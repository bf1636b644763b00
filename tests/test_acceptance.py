"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion shows up as the test failing).
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from gravlab.cli import RunManifest, run
from gravlab.collapsesim import CollapseModel, energy_ledger, simulate, _trajectory_uniforms
from gravlab.dpcriterion import feynman_mass_scale
from gravlab.massdist import (
    Gaussian,
    PointMass,
    SphericalShell,
    SuperpositionSpec,
    UniformSphere,
    e_delta,
    e_delta_mc,
)
from gravlab.quantities import CODATA2018, ENERGY_SCALES, kernel_length
from gravlab.snsolver import (
    RadialGrid,
    WaveState,
    evolve,
    free_gaussian_width_squared,
    gravitational_kernel,
    hydrogen_diagnostic,
    stationary_states,
    suggested_dt,
)

C = CODATA2018


def report(number: int, message: str, started: float) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {message} [{time.time() - started:.1f} s]")


def test_criterion_1_feynman_scale():
    t0 = time.time()
    grams = feynman_mass_scale(C) * 1000.0
    expected = math.sqrt(C.hbar * C.c / C.G) * 1000.0
    assert abs(grams / expected - 1.0) < 1e-3
    assert grams == pytest.approx(2.176e-5, rel=1e-3)
    assert round(math.log10(grams)) == -5   # "near 1e-5 grams"
    report(1, f"feynman scale {grams:.4e} g within 0.1%", t0)


def test_criterion_2_e_delta_analytic_oracle():
    t0 = time.time()
    spec = SuperpositionSpec(UniformSphere(1.0, 1.0),
                             UniformSphere(1.0, 1.0, (4.0, 0.0, 0.0)))
    analytic = C.G * (6.0 / 5.0 - 1.0 / 4.0)
    quad = e_delta(spec, method="quadrature")
    assert abs(quad / analytic - 1.0) < 5e-3
    mc, err = e_delta_mc(spec, n_samples=200_000, seed=2024)
    assert abs(mc - analytic) < 3.0 * err
    report(2, f"E_delta quadrature within 0.5% and Monte Carlo within "
              f"{abs(mc - analytic) / err:.2f} sigma", t0)


def _random_shape(rng: np.random.Generator, mass: float):
    kind = rng.integers(0, 4)
    size = float(rng.uniform(0.1, 5.0))
    center = tuple(rng.uniform(-4.0, 4.0, size=3))
    if kind == 0:
        return UniformSphere(mass, size, center)
    if kind == 1:
        return SphericalShell(mass, size, center)
    if kind == 2:
        return Gaussian(mass, size, center)
    return PointMass(mass, center, size)


def test_criterion_3_kernel_positive_definiteness():
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    n_pairs = 120
    for i in range(n_pairs):
        a = _random_shape(rng, 1.0)
        b = a if i % 10 == 0 else _random_shape(rng, 1.0)
        value = e_delta(SuperpositionSpec(a, b))
        if a == b:
            assert value == 0.0
        else:
            assert value > 0.0
        # mass scaling: lambda^2 exactly (masses factor out of the integrals)
        for lam in (2.0, 10.0):
            scaled_a = _rescale_mass(a, lam)
            scaled_b = _rescale_mass(b, lam)
            up = e_delta(SuperpositionSpec(scaled_a, scaled_b))
            assert up == pytest.approx(lam**2 * value, rel=1e-9, abs=1e-60)
        # length dilation by s divides the energy by s
        s = 3.0
        big = e_delta(SuperpositionSpec(_dilate(a, s), _dilate(b, s)))
        assert big == pytest.approx(value / s, rel=1e-5, abs=1e-60)
    report(3, f"{n_pairs} random pairs: E_delta >= 0, zero iff identical, "
              "scaling laws hold", t0)


def _rescale_mass(shape, lam):
    payload = shape.to_dict()
    payload["mass_kg"] *= lam
    from gravlab.massdist import shape_from_dict
    return shape_from_dict(payload)


def _dilate(shape, s):
    payload = shape.to_dict()
    payload["center_m"] = [s * v for v in payload["center_m"]]
    for key in ("radius_m", "width_m", "smearing_length_m"):
        if key in payload:
            payload[key] *= s
    from gravlab.massdist import shape_from_dict
    return shape_from_dict(payload)


MASS = 1e-17
NATURAL_LENGTH = kernel_length(MASS, C.G * MASS**2, C)


def test_criterion_4_sn_ground_state_two_methods():
    t0 = time.time()
    grid = RadialGrid.uniform(50.0 * NATURAL_LENGTH, 2000)
    kernel = [gravitational_kernel(MASS, C)]
    scf = stationary_states(MASS, kernel, n_states=1, grid=grid)[0]
    shoot = stationary_states(MASS, kernel, n_states=1, grid=grid,
                              method="shooting")[0]
    rel = abs(scf.eigenvalue - shoot.eigenvalue) / abs(scf.eigenvalue)
    assert rel < 1e-3
    eps0 = scf.eigenvalue / ENERGY_SCALES["sn-natural"](MASS, C)
    # frozen by the two-method agreement above; -0.1628 rounds to -0.163
    assert eps0 == pytest.approx(-0.16277, abs=5e-4)
    assert round(eps0, 3) == -0.163

    # grid refinement: successive changes shrink ~4x (second order)
    values = []
    for n in (1600, 3200, 6400):
        g = RadialGrid.uniform(50.0 * NATURAL_LENGTH, n)
        values.append(stationary_states(MASS, kernel, n_states=1, grid=g)[0].eigenvalue)
    ratio = abs(values[1] - values[0]) / abs(values[2] - values[1])
    assert 2.5 < ratio < 6.0
    report(4, f"ground eigenvalue {eps0:.5f} (methods agree to {rel:.1e}; "
              f"refinement ratio {ratio:.2f})", t0)


def test_criterion_5_sn_mass_scaling_law():
    t0 = time.time()
    spectra = {}
    for mass, n in ((MASS, 4000), (2.0 * MASS, 4400)):
        grid = RadialGrid.uniform(125.0 * kernel_length(mass, C.G * mass**2, C), n)
        states = stationary_states(mass, [gravitational_kernel(mass, C)],
                                   n_states=2, grid=grid)
        spectra[mass] = [s.eigenvalue / ENERGY_SCALES["sn-natural"](mass, C) for s in states]
    for e1, e2 in zip(spectra[MASS], spectra[2.0 * MASS]):
        assert abs(e1 / e2 - 1.0) < 1e-3
    report(5, "spectra at m and 2m agree after SN-natural rescaling within 0.1%", t0)


def test_criterion_6_evolution_sanity():
    t0 = time.time()
    mass, sigma0 = 1e-20, 1e-6
    t_final = 2.0 * mass * sigma0**2 / C.hbar
    grid = RadialGrid.uniform(14.0 * sigma0, 512)
    packet = WaveState.gaussian_packet(grid, sigma0, mass)
    result = evolve(packet, t_final / 1500, 1500, kappa=0.0, record_every=250)
    for i in range(1, result.times.size):
        # an s-wave Gaussian spreads isotropically: <r^2> = 3 sigma^2(t)
        expected = 3.0 * free_gaussian_width_squared(sigma0, mass, float(result.times[i]), C)
        assert abs(result.width[i] ** 2 / expected - 1.0) < 5e-3
    assert abs(result.norm[-1] - 1.0) < 1e-8
    assert abs(result.energy[-1] / result.energy[0] - 1.0) < 1e-5

    rgrid = RadialGrid.uniform(50.0 * NATURAL_LENGTH, 2000)
    ground = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=1,
                               grid=rgrid)[0]
    kappa = gravitational_kernel(MASS, C).strength
    stationary = evolve(ground.state, 0.9 * suggested_dt(ground.state, kappa, C), 1000,
                        kappa=kappa, record_every=200)
    assert abs(stationary.norm[-1] - stationary.norm[0]) < 1e-6
    assert abs(stationary.energy[-1] / stationary.energy[0] - 1.0) < 1e-6
    assert abs(stationary.width[-1] / stationary.width[0] - 1.0) < 1e-6
    report(6, "free spreading within 0.5%, norm drift "
              f"{abs(result.norm[-1] - 1.0):.1e}, stationary state constant to 1e-6", t0)


def test_criterion_7_hydrogen_critique():
    t0 = time.time()
    rep = hydrogen_diagnostic(include_electrostatic_self=True,
                              include_gravitational_self=True)
    hartree_ev = C.hartree / 1.602176634e-19
    assert abs(rep.e0_ev / (-0.5 * hartree_ev) - 1.0) < 1e-3
    es = next(t for t in rep.terms if t.label == "electrostatic")
    grav = next(t for t in rep.terms if t.label == "gravity")
    assert abs(es.first_order_ev / (0.625 * hartree_ev) - 1.0) < 1e-2
    orders = math.log10(abs(es.first_order_ev / grav.first_order_ev))
    assert orders >= 40.0
    report(7, f"E0 = {rep.e0_ev:.3f} eV, electrostatic shift "
              f"{es.first_order_ev:.2f} eV (ratio {es.ratio_to_coulomb:.3f}), "
              f"gravity {orders:.0f} orders down", t0)


def test_criterion_8_collapse_statistics():
    t0 = time.time()
    n = 100_000
    spec = SuperpositionSpec(UniformSphere(1.0, 1.0),
                             UniformSphere(1.0, 1.0, (4.0, 0.0, 0.0)))
    born = (0.36, 0.64)   # |0.6|^2 and |0.8|^2
    scenarios = [
        CollapseModel.from_superposition(spec, (2.0, 2.0), 0.0, outcome_weights=born),
        CollapseModel.from_superposition(spec, (1.0, 3.0), 0.0, outcome_weights=born),
        CollapseModel.from_superposition(spec, (1.0, 3.0), 0.5, outcome_weights=born),
    ]
    rate = scenarios[0].rate
    assert rate == pytest.approx(e_delta(spec) / C.hbar, rel=1e-12)
    for k, model in enumerate(scenarios):
        assert model.outcome_weights == born
        ens = simulate(model, n, seed=1000 + k)
        u_time = np.concatenate([u for u, _ in _trajectory_uniforms(n, 1000 + k)])
        ks = stats.kstest(-np.log1p(-u_time) / model.rate, "expon", args=(0.0, 1.0 / rate))
        assert ks.statistic < 1.6276 / math.sqrt(n)   # 1% critical value
        fa = ens.summary.outcome_frequencies[0]
        sigma = math.sqrt(0.36 * 0.64 / n)
        assert abs(fa - 0.36) < 3.0 * sigma
        ledger = energy_ledger(ens, model)
        assert abs(ledger.residual - ledger.expected_residual) <= 3.0 * ledger.standard_error
    again = simulate(scenarios[0], n, seed=1000)
    first = simulate(scenarios[0], n, seed=1000)
    assert again.to_dict() == first.to_dict()
    assert np.array_equal(again.summary.survival_fractions, first.summary.survival_fractions)
    for (u_again, b_again), (u_first, b_first) in zip(_trajectory_uniforms(n, 1000),
                                                      _trajectory_uniforms(n, 1000)):
        assert np.array_equal(u_again, u_first)
        assert np.array_equal(b_again, b_first)
    report(8, f"KS, Born weights, and 3 energy-ledger scenarios pass at n = {n}; "
              "bit-exact under fixed seed", t0)


def test_criterion_9_manifest_reproducibility(tmp_path):
    t0 = time.time()
    cases = [
        ("feynman-scale", {}),
        ("e-delta", {
            "shape_a": {"kind": "uniform_sphere", "mass_kg": 1.0, "radius_m": 1.0},
            "shape_b": {"kind": "uniform_sphere", "mass_kg": 1.0, "radius_m": 1.0,
                        "center_m": [4.0, 0.0, 0.0]},
            "monte_carlo": True, "mc_samples": 20_000,
        }),
        ("collapse-sim", {"n": 20_000, "rate_per_s": 1.0,
                          "branch_energies_J": [1.0, 2.0]}),
    ]
    for name, params in cases:
        first = tmp_path / f"{name}-1"
        second = tmp_path / f"{name}-2"
        run(RunManifest.from_dict({"command": name, "parameters": params,
                                   "output_dir": str(first), "seed": 7}))
        persisted = json.loads((first / "manifest.json").read_text())
        persisted["output_dir"] = str(second)
        run(RunManifest.from_dict(persisted))
        h1 = {f["name"]: f["sha256"]
              for f in json.loads((first / "result_bundle.json").read_text())["files"]}
        h2 = {f["name"]: f["sha256"]
              for f in json.loads((second / "result_bundle.json").read_text())["files"]}
        assert h1 == h2 and len(h1) >= 2
    report(9, "persisted manifests rerun to identical content hashes "
              f"({len(cases)} commands)", t0)
