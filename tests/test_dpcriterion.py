from __future__ import annotations

import math

import pytest

from gravlab.dpcriterion import collapse_time, feynman_mass_scale, lifetime_sweep
from gravlab.massdist import PointMass, SuperpositionSpec, UniformSphere, e_delta
from gravlab.quantities import CODATA2018


def sphere_pair(d: float, mass: float = 1.0, radius: float = 1.0) -> SuperpositionSpec:
    return SuperpositionSpec(
        UniformSphere(mass, radius),
        UniformSphere(mass, radius, (d, 0.0, 0.0)),
    )


def test_definitional_arithmetic():
    # a superposition engineered so E_delta = hbar / (1 s) collapses in one second
    spec = sphere_pair(4.0)
    est = collapse_time(spec)
    assert est.collapse_time * est.e_delta == pytest.approx(CODATA2018.hbar, rel=1e-12, abs=0)


def test_identical_branches_live_forever():
    spec = SuperpositionSpec(UniformSphere(1.0, 1.0), UniformSphere(1.0, 1.0))
    est = collapse_time(spec)
    assert est.infinite
    assert est.e_delta == 0.0
    assert math.isinf(est.collapse_time)


def test_unit_spheres_at_four_radii():
    # E_delta = 0.95 G ~ 6.34e-11 J gives T ~ 1.66e-24 s
    est = collapse_time(sphere_pair(4.0))
    assert est.e_delta == pytest.approx(0.95 * CODATA2018.G, rel=1e-9, abs=0)
    assert est.collapse_time == pytest.approx(CODATA2018.hbar / (0.95 * CODATA2018.G),
                                              rel=1e-9, abs=0)
    assert est.collapse_time == pytest.approx(1.66e-24, rel=0.01, abs=0)


def test_prefactor_scales_lifetime_exactly():
    spec = sphere_pair(3.0)
    base = collapse_time(spec)
    for lam in (0.5, 2.0, 7.0):
        assert collapse_time(spec, prefactor=lam).collapse_time == pytest.approx(
            lam * base.collapse_time, rel=1e-14, abs=0
        )


def test_branch_swap_invariance():
    a = UniformSphere(1.0, 1.0)
    b = UniformSphere(1.0, 1.0, (2.5, 0.0, 0.0))
    t1 = collapse_time(SuperpositionSpec(a, b)).collapse_time
    t2 = collapse_time(SuperpositionSpec(b, a)).collapse_time
    assert t1 == pytest.approx(t2, rel=1e-12, abs=0)


def test_digest_tracks_inputs():
    e1 = collapse_time(sphere_pair(4.0))
    e2 = collapse_time(sphere_pair(4.0))
    e3 = collapse_time(sphere_pair(5.0))
    assert e1.inputs_digest == e2.inputs_digest
    assert e1.inputs_digest != e3.inputs_digest


def test_feynman_mass_scale():
    c = CODATA2018
    m = feynman_mass_scale()
    assert m == pytest.approx(math.sqrt(c.hbar * c.c / c.G), rel=1e-14, abs=0)
    # ~2.176e-8 kg = 2.176e-5 g, the "near 1e-5 grams" order
    assert m == pytest.approx(2.176e-8, rel=1e-3)
    assert m**2 * c.G / (c.hbar * c.c) == pytest.approx(1.0, rel=1e-12)
    # quadrupling G halves the scale
    quad_g = feynman_mass_scale(c.with_overrides(G=4.0 * c.G))
    assert quad_g == pytest.approx(m / 2.0, rel=1e-14, abs=0)


def test_sweep_monotone_in_separation():
    family = [(d, sphere_pair(d)) for d in (2.0, 3.0, 4.0, 6.0, 10.0)]
    rows = lifetime_sweep(family)
    assert [row.parameter for row in rows] == [2.0, 3.0, 4.0, 6.0, 10.0]
    times = [row.collapse_time for row in rows]
    assert all(t2 < t1 for t1, t2 in zip(times, times[1:]))


def test_sweep_single_element_matches_collapse_time():
    rows = lifetime_sweep([(4.0, sphere_pair(4.0))])
    est = collapse_time(sphere_pair(4.0))
    assert len(rows) == 1
    assert rows[0].e_delta == pytest.approx(est.e_delta, rel=1e-12, abs=0)
    assert rows[0].collapse_time == pytest.approx(est.collapse_time, rel=1e-12, abs=0)


def test_sweep_mass_scaling_law():
    # lifetimes scale as lambda^-2 when all masses scale by lambda
    rows = lifetime_sweep(
        [(lam, sphere_pair(4.0, mass=lam)) for lam in (1.0, 2.0, 4.0)]
    )
    t1, t2, t4 = (row.collapse_time for row in rows)
    assert t2 == pytest.approx(t1 / 4.0, rel=1e-9, abs=0)
    assert t4 == pytest.approx(t1 / 16.0, rel=1e-9, abs=0)


def test_sweep_records_row_errors_and_continues():
    bad = SuperpositionSpec(PointMass(1.0), PointMass(1.0, (1.0, 0.0, 0.0)))
    rows = lifetime_sweep([(1.0, bad), (4.0, sphere_pair(4.0))])
    assert rows[0].error is not None and rows[0].collapse_time is None
    assert rows[1].error is None and rows[1].collapse_time is not None
