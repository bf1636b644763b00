from __future__ import annotations

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gravlab
from gravlab.dpcriterion import collapse_time
from gravlab.errors import DivergentSelfEnergy, QuadratureWarning
from gravlab.massdist import (
    PANEL_CAP,
    Gaussian,
    PointMass,
    RadialProfile,
    SphericalShell,
    SuperpositionSpec,
    UniformSphere,
    _adaptive,
    _ball_overlap,
    _unit_mutual_closed_form,
    e_delta,
    e_delta_mc,
    mutual_energy,
    radial_profile_from_csv,
    self_energy,
    self_energy_mc,
    shape_from_dict,
)
from gravlab.quantities import CODATA2018

G = CODATA2018.G


# -- self energy ------------------------------------------------------------

def test_uniform_sphere_self_energy_analytic():
    # 3 G m^2 / (5 R); for m = 1 kg, R = 1 m this is ~4.005e-11 J
    u = self_energy(UniformSphere(1.0, 1.0))
    assert u == pytest.approx(3.0 * G / 5.0, rel=1e-12, abs=0)
    assert u == pytest.approx(4.00458e-11, rel=1e-4, abs=0)


def test_sphere_self_energy_against_monte_carlo():
    # independent oracle: Monte Carlo over the squared Gauss-law field in 3-D
    value, err = self_energy_mc(UniformSphere(1.0, 1.0), n_samples=200_000, seed=42)
    assert abs(value - 3.0 * G / 5.0) < 3.0 * err


def test_gaussian_self_energy_analytic_and_quadrature():
    # G m^2 / (2 sqrt(pi) sigma) ~ 1.882e-11 J at m = 1 kg, sigma = 1 m
    g = Gaussian(1.0, 1.0)
    u = self_energy(g)
    assert u == pytest.approx(G / (2.0 * math.sqrt(math.pi)), rel=1e-12, abs=0)
    assert u == pytest.approx(1.8828e-11, rel=1e-4, abs=0)
    assert self_energy(g, method="quadrature") == pytest.approx(u, rel=1e-5, abs=0)


def test_gaussian_enclosed_fraction_matches_the_regularized_gamma_function():
    from scipy.special import gammainc

    shape = Gaussian(1.0, 0.7)
    x = np.linspace(0.0, 72.0, 20_001)  # x = r^2 / (2 sigma^2)
    fraction = shape.enclosed_fraction(shape.width * np.sqrt(2.0 * x))
    assert np.max(np.abs(fraction - gammainc(1.5, x))) <= 1e-14
    assert float(shape.enclosed_fraction(shape.width * math.sqrt(2.0 * x[7]))) == fraction[7]


def test_shell_self_energy():
    assert self_energy(SphericalShell(2.0, 0.5)) == pytest.approx(G * 4.0 / 1.0, rel=1e-12, abs=0)


def test_singular_point_mass_raises():
    with pytest.raises(DivergentSelfEnergy):
        self_energy(PointMass(1.0))
    # smearing regularizes it into a uniform ball
    assert self_energy(PointMass(1.0, smearing_length=0.1)) == pytest.approx(
        3.0 * G / 0.5, rel=1e-12, abs=0
    )


# -- mutual energy ----------------------------------------------------------

def test_shell_theorem_for_disjoint_spheres():
    a = UniformSphere(1.0, 1.0)
    b = UniformSphere(1.0, 1.0, (4.0, 0.0, 0.0))
    assert mutual_energy(a, b) == pytest.approx(G / 4.0, rel=1e-12, abs=0)
    assert mutual_energy(a, b, method="quadrature") == pytest.approx(G / 4.0, rel=1e-5, abs=0)


def test_mutual_of_distribution_with_itself_is_twice_self_energy():
    for shape in (UniformSphere(2.0, 1.5), Gaussian(1.0, 0.7), SphericalShell(1.0, 2.0)):
        assert mutual_energy(shape, shape) == pytest.approx(
            2.0 * self_energy(shape), rel=1e-12, abs=0
        )


def test_coincident_gaussians_match_quadrature():
    a = Gaussian(1.0, 1.0)
    b = Gaussian(1.0, 2.0)
    closed = mutual_energy(a, b)
    assert closed == pytest.approx(
        G * math.sqrt(2.0 / math.pi) / math.sqrt(1.0 + 4.0), rel=1e-12, abs=0
    )
    assert mutual_energy(a, b, method="quadrature") == pytest.approx(closed, rel=1e-5, abs=0)


def test_overlapping_spheres_closed_form_matches_quadrature():
    a = UniformSphere(1.0, 1.0)
    for d in (0.0, 0.5, 1.0, 1.7, 2.0):
        b = UniformSphere(1.0, 1.0, (d, 0.0, 0.0))
        assert mutual_energy(a, b, method="quadrature") == pytest.approx(
            mutual_energy(a, b), rel=1e-5, abs=0
        )


def test_contained_sphere_closed_form_matches_quadrature():
    big = UniformSphere(1.0, 2.0)
    small = UniformSphere(1.0, 0.3, (0.8, 0.0, 0.0))
    assert mutual_energy(big, small, method="quadrature") == pytest.approx(
        mutual_energy(big, small), rel=1e-5, abs=0
    )


def test_point_mass_sees_shell_potential():
    p = PointMass(1.0, (0.5, 0.0, 0.0))
    shell = SphericalShell(1.0, 2.0)
    assert mutual_energy(p, shell) == pytest.approx(G / 2.0, rel=1e-12, abs=0)  # inside: 1/R
    outside = PointMass(1.0, (5.0, 0.0, 0.0))
    assert mutual_energy(outside, shell) == pytest.approx(G / 5.0, rel=1e-12, abs=0)


def test_coincident_singular_points_diverge():
    with pytest.raises(DivergentSelfEnergy):
        mutual_energy(PointMass(1.0), PointMass(1.0))
    # distinct centers are fine
    assert mutual_energy(PointMass(1.0), PointMass(1.0, (2.0, 0.0, 0.0))) == pytest.approx(
        G / 2.0, rel=1e-12, abs=0
    )


# -- e_delta ----------------------------------------------------------------

def test_identical_branches_give_zero():
    a = UniformSphere(1.0, 1.0)
    assert e_delta(SuperpositionSpec(a, UniformSphere(1.0, 1.0))) == 0.0


def test_displaced_spheres_value():
    # G m^2 (6/(5R) - 1/d) for d >= 2R; 0.95 G at R = 1, d = 4
    a = UniformSphere(1.0, 1.0)
    b = UniformSphere(1.0, 1.0, (4.0, 0.0, 0.0))
    value = e_delta(SuperpositionSpec(a, b))
    assert value == pytest.approx(0.95 * G, rel=1e-12, abs=0)
    mc, err = e_delta_mc(SuperpositionSpec(a, b), n_samples=150_000, seed=5)
    assert abs(mc - value) < 3.0 * err


def test_far_separation_limit():
    # d -> inf leaves twice the single-sphere self energy, (6/5) G m^2 / R
    a = UniformSphere(1.0, 1.0)
    b = UniformSphere(1.0, 1.0, (100.0, 0.0, 0.0))
    value = e_delta(SuperpositionSpec(a, b), method="quadrature")
    assert value == pytest.approx(1.2 * G, rel=0.01, abs=0)


def test_singular_branch_reports_guidance():
    with pytest.raises(DivergentSelfEnergy, match="smearing_length"):
        e_delta(SuperpositionSpec(PointMass(1.0), PointMass(1.0, (1.0, 0.0, 0.0))))


def _closed_form_energy(a, b) -> float:
    """G (m_a m_b) times the closed-form unit mutual energy of a and b at their separation."""
    return G * a.mass * b.mass * _unit_mutual_closed_form(a, b, math.dist(a.center, b.center))


def test_gaussian_e_delta_matches_the_closed_form_difference_at_d_over_w_1e_2():
    # at d/w = 1e-2, U_a + U_b - mutual rounds at about 3e-11 of E_delta; the engine subtracts none
    a, b = Gaussian(1.0, 1.0), Gaussian(1.0, 1.0, (1e-2, 0.0, 0.0))
    selves = 0.5 * (_closed_form_energy(a, a) + _closed_form_energy(b, b))
    assert selves - _closed_form_energy(a, b) == pytest.approx(e_delta(SuperpositionSpec(a, b)),
                                                               rel=1e-9, abs=0)


def test_superposition_validation():
    a = UniformSphere(1.0, 1.0)
    b = UniformSphere(1.0, 1.0, (2.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SuperpositionSpec(a, UniformSphere(2.0, 1.0, (2.0, 0.0, 0.0)))
    spec = SuperpositionSpec(a, b)
    # a superposition is its two branches; outcome weights belong to collapsesim
    assert spec.to_dict() == {"branch_a": a.to_dict(), "branch_b": b.to_dict()}
    assert len(spec.content_digest()) == 64


# -- radial profiles --------------------------------------------------------

def test_profile_reproduces_sampled_gaussian():
    r = np.linspace(0.0, 12.0, 600)
    rho = 2.0 * np.exp(-(r**2) / 2.0) / (2.0 * math.pi) ** 1.5
    prof = RadialProfile(r, rho)
    assert prof.mass == pytest.approx(2.0, rel=1e-6)
    assert self_energy(prof) == pytest.approx(
        self_energy(Gaussian(prof.mass, 1.0)), rel=1e-5, abs=0
    )


def test_profile_mass_consistency_check():
    r = np.linspace(0.0, 5.0, 50)
    rho = np.ones_like(r)
    with pytest.raises(ValueError, match="1e-9 relative"):
        RadialProfile(r, rho, mass=1.0)


def test_profile_rejects_negative_density():
    r = np.linspace(0.0, 5.0, 50)
    rho = np.ones_like(r)
    rho[10] = -0.1
    with pytest.raises(ValueError):
        RadialProfile(r, rho)


def test_a_profile_sampled_from_r_above_0_is_plugged_with_its_first_density():
    # constant density inside the first sample makes these samples a uniform unit ball
    r = np.linspace(0.25, 1.0, 16)
    prof = RadialProfile(r, np.full(16, 3.0 / (4.0 * math.pi)))
    assert self_energy(prof) == pytest.approx(3.0 * G / 5.0, rel=1e-12, abs=0)


def test_profile_from_csv(tmp_path):
    r = np.linspace(0.0, 3.0, 80)
    rho = np.where(r <= 1.0, 1.0, 0.0)
    path = tmp_path / "profile.csv"
    np.savetxt(path, np.column_stack([r, rho]), delimiter=",")
    prof = radial_profile_from_csv(path)
    # a blocky sphere sampled on 80 points: within a few percent of the ideal
    assert self_energy(prof) == pytest.approx(
        3.0 * G * prof.mass**2 / 5.0, rel=0.05
    )


def test_shape_round_trips_through_dict():
    shapes = [
        UniformSphere(1.5, 0.5, (1.0, 2.0, 3.0)),
        SphericalShell(1.0, 2.0),
        Gaussian(2.0, 0.1, (0.0, 1.0, 0.0)),
        PointMass(1.0, (0.0, 0.0, 0.0), 0.25),
    ]
    for shape in shapes:
        again = shape_from_dict(shape.to_dict())
        assert again == shape


# -- one dispatch for self and mutual energies ------------------------------

def _exponential_profile(length: float) -> RadialProfile:
    # rho ~ exp(-r / length), sampled on 200 points out to 20 lengths
    r = np.linspace(0.0, 20.0, 200)
    return RadialProfile(length * r, np.exp(-r) / length**3)


def test_profile_self_energy_honours_rel_tol_under_auto():
    prof = _exponential_profile(1.0)
    loose = self_energy(prof, rel_tol=1e-3)
    tight = self_energy(prof, rel_tol=1e-6)
    assert loose == self_energy(prof, method="quadrature", rel_tol=1e-3)
    assert tight == self_energy(prof, method="quadrature", rel_tol=1e-6)
    assert loose != tight
    assert abs(loose - tight) <= 1e-3 * tight


def test_profile_self_energy_has_no_closed_form():
    profile = _exponential_profile(1.0)
    assert _unit_mutual_closed_form(profile, profile, 0.0) is None


def test_profile_quadrature_does_not_depend_on_the_unit_of_length():
    # unit energies scale as 1/length; an absolute quadrature floor breaks that
    length = 1e4
    small, large = _exponential_profile(1.0), _exponential_profile(length)
    unit_small = self_energy(small) / (G * small.mass**2)
    unit_large = self_energy(large) / (G * large.mass**2)
    assert unit_large * length == pytest.approx(unit_small, rel=1e-7)


def test_quadrature_self_energies_match_closed_forms():
    for shape in (SphericalShell(2.0, 0.5), Gaussian(1.5, 0.7),
                  PointMass(1.0, smearing_length=0.3)):
        exact = 0.5 * _closed_form_energy(shape, shape)
        assert self_energy(shape, method="quadrature") == pytest.approx(exact, rel=1e-9, abs=0)


def test_shell_inside_shell_has_a_closed_form():
    # a shell sees a constant potential G m / R anywhere inside another shell
    outer = SphericalShell(2.0, 2.0)
    inner = SphericalShell(3.0, 1.0, (0.5, 0.0, 0.0))
    assert _closed_form_energy(outer, inner) == G * 2.0 * 3.0 / 2.0
    assert mutual_energy(outer, inner) == G * 2.0 * 3.0 / 2.0


# -- the field-energy Monte Carlo --------------------------------------------

def _profile(center=(0.0, 0.0, 0.0)) -> RadialProfile:
    r = np.linspace(0.0, 1.0, 16)
    return RadialProfile(r, np.exp(-4.0 * r * r) * (1.2 - r), center)


MC_SHAPES = {
    "sphere": lambda c: UniformSphere(1.0, 1.0, c),
    "shell": lambda c: SphericalShell(1.0, 1.0, c),
    "gaussian": lambda c: Gaussian(1.0, 1.0, c),
    "profile": _profile,
    "point": lambda c: PointMass(1.0, c, smearing_length=1.0),
}
MC_ETAS = (1e4, 100.0, 10.0, 4.0, 1.0, 1e-2, 1e-4, 1e-6, 1e-8)
MC_MIXED = {
    "sphere-11-around-shell-9": (UniformSphere(1.0, 11.0), SphericalShell(1.0, 9.0)),
    "sphere-shell-1e-6": (UniformSphere(1.0, 1.0), SphericalShell(1.0, 1.0, (1e-6, 0, 0))),
    "shells-1-1.5-1e-6": (SphericalShell(1.0, 1.0), SphericalShell(1.0, 1.5, (1e-6, 0, 0))),
    "gaussian-sphere-0.3": (Gaussian(1.0, 0.3), UniformSphere(1.0, 1.0, (0.3, 0, 0))),
    "profile-gaussian-1e-8": (_profile(), Gaussian(_profile().mass, 0.3, (1e-8, 0, 0))),
    "point-shell-2": (PointMass(1.0, smearing_length=0.5), SphericalShell(1.0, 1.0, (2, 0, 0))),
}
MC_PAIRS = {f"{name}-{eta:g}": (make((0.0, 0.0, 0.0)), make((eta, 0.0, 0.0)))
            for name, make in MC_SHAPES.items() if name != "point" for eta in MC_ETAS}


def _assert_mc_agrees(mc: float, err: float, exact: float) -> None:
    assert err <= 2e-2 * exact
    # a shell's self energy has zero variance: rounding sets its floor
    assert abs(mc - exact) <= 4.0 * err + 1e-12 * exact


@pytest.mark.parametrize("pair", [*MC_PAIRS.values(), *MC_MIXED.values()],
                         ids=[*MC_PAIRS, *MC_MIXED])
def test_field_energy_mc_e_delta_is_within_4_se_at_every_separation(pair):
    spec = SuperpositionSpec(*pair)
    _assert_mc_agrees(*e_delta_mc(spec, n_samples=200_000, seed=1), e_delta(spec))


@pytest.mark.parametrize("name", MC_SHAPES)
def test_field_energy_mc_self_energy_is_within_4_se(name):
    shape = MC_SHAPES[name]((0.5, -1.0, 2.0))
    _assert_mc_agrees(*self_energy_mc(shape, n_samples=200_000, seed=1), self_energy(shape))


def test_field_energy_mc_of_identical_branches_is_exactly_zero():
    spec = SuperpositionSpec(_profile(), _profile())
    assert e_delta_mc(spec, n_samples=1000, seed=3) == (0.0, 0.0)


def test_field_energy_mc_rejects_an_unsmeared_point():
    with pytest.raises(DivergentSelfEnergy, match="set smearing_length > 0"):
        e_delta_mc(SuperpositionSpec(PointMass(1.0), UniformSphere(1.0, 1.0, (3.0, 0.0, 0.0))))


MC_MEMORY_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from gravlab.massdist import Gaussian, self_energy_mc
peaks = []
for n in (200_000, 2_000_000):
    self_energy_mc(Gaussian(1.0, 1.0), n_samples=n, seed=1)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(peaks[1] - peaks[0])
"""


def test_field_energy_mc_memory_does_not_grow_with_the_sample_count():
    src = str(Path(gravlab.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", MC_MEMORY_PROBE, src],
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout.split()[-1]) <= 16 * 1024  # ru_maxrss is in KiB on Linux


# -- E_delta at d << R: the Gauss-law engine --------------------------------

def _ball_e_delta(radius: float, d: float) -> float:
    eta = d / radius
    return _ball_overlap(eta) / radius if eta <= 2.0 else 1.2 / radius - 1.0 / d


def _shell_e_delta(radius: float, d: float) -> float:
    return d / (4.0 * radius**2) if d < 2.0 * radius else 1.0 / radius - 1.0 / d


def _gaussian_e_delta(width: float, d: float) -> float:
    w = 2.0 * width
    x = d / w
    if x < 1e-2:
        return 2.0 / (math.sqrt(math.pi) * w) * (x**2 / 3.0 - x**4 / 10.0 + x**6 / 42.0)
    return 2.0 / (math.sqrt(math.pi) * w) - math.erf(x) / d


def _nested_e_delta(big: float, small: float, d: float) -> float:
    at_zero = 0.6 / big + 0.6 / small - (3.0 * big**2 - 0.6 * small**2) / (2.0 * big**3)
    return at_zero + d**2 / (2.0 * big**3)


def _uniform_ball_profile(radius: float, center=(0.0, 0.0, 0.0)) -> RadialProfile:
    rho = 3.0 / (4.0 * math.pi * radius**3)
    return RadialProfile(np.linspace(0.0, radius, 16), np.full(16, rho), center, mass=1.0)


SMALL_D_PAIRS = {
    "spheres": (lambda c: UniformSphere(1.0, 1.0, c), lambda d: _ball_e_delta(1.0, d)),
    "smeared points": (lambda c: PointMass(1.0, c, 1.0), lambda d: _ball_e_delta(1.0, d)),
    "shells": (lambda c: SphericalShell(1.0, 1.0, c), lambda d: _shell_e_delta(1.0, d)),
    "gaussians": (lambda c: Gaussian(1.0, 1.0, c), lambda d: _gaussian_e_delta(1.0, d)),
    "profiles": (lambda c: _uniform_ball_profile(1.0, c), lambda d: _ball_e_delta(1.0, d)),
}
SEPARATIONS = [10.0 ** (k / 2.0) for k in range(-24, 3)]  # 1e-12 ... 10, half decades


def _check_small_d(spec: SuperpositionSpec, expected: float, method: str) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        value = e_delta(spec, method=method, rel_tol=1e-10)
        assert value == pytest.approx(G * expected, rel=1e-8, abs=0)
        if method == "auto":
            assert math.isfinite(collapse_time(spec, rel_tol=1e-10).collapse_time)


@pytest.mark.parametrize("method", ["auto", "quadrature"])
@pytest.mark.parametrize("pair", sorted(SMALL_D_PAIRS))
def test_e_delta_is_accurate_from_d_over_r_1e_minus_12_to_10(pair, method):
    make, unit_e_delta = SMALL_D_PAIRS[pair]
    for d in SEPARATIONS:
        spec = SuperpositionSpec(make((0.0, 0.0, 0.0)), make((d, 0.0, 0.0)))
        _check_small_d(spec, unit_e_delta(d), method)


@pytest.mark.parametrize("eta", [1.08, 1.43, 1.69])
def test_profile_e_delta_is_exact_where_the_kernel_switch_meets_a_support_edge(eta):
    # for 1 < d/R < 2, s = (d - u)/2 reaches R at u = d - 2R and u = 2R - d,
    # between the half-decade separations of the test above
    spec = SuperpositionSpec(_uniform_ball_profile(1.0), _uniform_ball_profile(1.0, (eta, 0, 0)))
    assert e_delta(spec) == pytest.approx(G * _ball_e_delta(1.0, eta), rel=1e-13, abs=0)


def test_adaptive_quadrature_stops_at_the_panel_cap_on_a_divergent_integrand():
    with pytest.warns(QuadratureWarning, match=f"stopped at {PANEL_CAP} panels"):
        value = _adaptive(lambda x: 1.0 / np.abs(x - 0.3), 0.0, 1.0, 1e-6, set())
    assert type(value) is float and value > 0.0


@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_e_delta_of_a_sphere_and_a_smeared_point_of_the_same_radius(method):
    for d in SEPARATIONS:
        spec = SuperpositionSpec(UniformSphere(1.0, 1.0), PointMass(1.0, (d, 0.0, 0.0), 1.0))
        _check_small_d(spec, _ball_e_delta(1.0, d), method)


@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_e_delta_of_nested_balls_grows_as_d_squared(method):
    # the small ball stays inside the big one: E(0) + G m^2 d^2 / (2 R_big^3)
    for d in [x for x in SEPARATIONS if x <= 0.5]:
        spec = SuperpositionSpec(UniformSphere(1.0, 1.0), UniformSphere(1.0, 0.5, (d, 0.0, 0.0)))
        _check_small_d(spec, _nested_e_delta(1.0, 0.5, d), method)


def test_exponential_profile_self_energy_splits_at_the_samples():
    # per-interval Gauss-Legendre on the sample knots gives 0.156250121063792
    prof = _exponential_profile(1.0)
    unit = self_energy(prof, rel_tol=1e-8) / (G * prof.mass**2)
    assert unit == pytest.approx(0.156250121063792, rel=5e-8)


def test_profile_mass_antiderivative_matches_the_per_interval_polynomials():
    r = np.linspace(0.0, 3.0, 25)
    prof = RadialProfile(r, np.exp(-r) * (1.0 + np.sin(3.0 * r) ** 2))
    rho = prof._rho
    expected = [0.0]
    for i in range(r.size - 1):
        local = np.polynomial.Polynomial(rho.c[::-1, i])
        shift = np.polynomial.Polynomial([r[i], 1.0]) ** 2
        piece = (4.0 * math.pi * local * shift).integ()
        expected.append(expected[-1] + piece(r[i + 1] - r[i]))
    assert prof._cum_mass(r) == pytest.approx(expected, rel=1e-13, abs=1e-15)


def test_profile_pchip_and_mass_antiderivative_equal_scipy_bit_for_bit():
    from scipy.interpolate import PchipInterpolator, PPoly

    rng = np.random.default_rng(5)
    for _ in range(40):
        r = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1.0, 30))))
        rho = rng.random(r.size)
        rho[rng.integers(0, r.size, 4)] = 0.0  # flat and sign-changing slopes
        rho[10:13] = rho[9]
        prof = RadialProfile(r, rho)
        ref = PchipInterpolator(r, rho, extrapolate=False)
        start, c = r[:-1], ref.c
        weighted = np.zeros((6, c.shape[1]))  # 4 pi r^2 rho, r^2 = (x + start)^2
        weighted[:4] = c
        weighted[1:5] += 2.0 * start * c
        weighted[2:] += start**2 * c
        cum = PPoly(4.0 * math.pi * weighted, r).antiderivative()
        points = np.concatenate((r, rng.uniform(0.0, r[-1], 500)))
        assert np.array_equal(prof._rho.c, ref.c)
        assert np.array_equal(prof._rho(points), ref(points))
        assert np.array_equal(prof._cum_mass(points), cum(points))
        assert prof.mass == cum(r[-1])


def test_e_delta_raises_no_warning_at_the_rounding_limits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # concentric balls one ulp apart in radius: F_a - F_b is rounding noise
        a, b = UniformSphere(1.0, 0.05), UniformSphere(1.0, math.nextafter(0.05, 1.0))
        assert 0.0 <= e_delta(SuperpositionSpec(a, b)) <= 1e-14 * self_energy(a)
        # a subnormal separation gives the concentric value
        spec = SuperpositionSpec(UniformSphere(1.0, 1.0),
                                 UniformSphere(1.0, 0.5, (1e-311, 0.0, 0.0)))
        assert e_delta(spec) == pytest.approx(G * _nested_e_delta(1.0, 0.5, 0.0), rel=1e-8, abs=0)
