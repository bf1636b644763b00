from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from gravlab.dpcriterion import collapse_time
from gravlab.errors import DivergentSelfEnergy, NoClosedForm
from gravlab.massdist import (
    Gaussian,
    PointMass,
    RadialProfile,
    SphericalShell,
    SuperpositionSpec,
    UniformSphere,
    _ball_overlap,
    e_delta,
    e_delta_mc,
    mutual_energy,
    mutual_energy_mc,
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
    assert u == pytest.approx(3.0 * G / 5.0, rel=1e-12)
    assert u == pytest.approx(4.00458e-11, rel=1e-4)


def test_sphere_self_energy_against_monte_carlo():
    # independent 6-D double-integral oracle
    value, err = self_energy_mc(UniformSphere(1.0, 1.0), n_samples=200_000, seed=42)
    assert abs(value - 3.0 * G / 5.0) < 3.0 * err


def test_gaussian_self_energy_analytic_and_quadrature():
    # G m^2 / (2 sqrt(pi) sigma) ~ 1.882e-11 J at m = 1 kg, sigma = 1 m
    g = Gaussian(1.0, 1.0)
    u = self_energy(g)
    assert u == pytest.approx(G / (2.0 * math.sqrt(math.pi)), rel=1e-12)
    assert u == pytest.approx(1.8828e-11, rel=1e-4)
    assert self_energy(g, method="quadrature") == pytest.approx(u, rel=1e-5)


def test_shell_self_energy():
    assert self_energy(SphericalShell(2.0, 0.5)) == pytest.approx(G * 4.0 / 1.0, rel=1e-12)


def test_singular_point_mass_raises():
    with pytest.raises(DivergentSelfEnergy):
        self_energy(PointMass(1.0))
    # smearing regularizes it into a uniform ball
    assert self_energy(PointMass(1.0, smearing_length=0.1)) == pytest.approx(
        3.0 * G / 0.5, rel=1e-12
    )


# -- mutual energy ----------------------------------------------------------

def test_shell_theorem_for_disjoint_spheres():
    a = UniformSphere(1.0, 1.0)
    b = UniformSphere(1.0, 1.0, (4.0, 0.0, 0.0))
    assert mutual_energy(a, b) == pytest.approx(G / 4.0, rel=1e-12)
    assert mutual_energy(a, b, method="quadrature") == pytest.approx(G / 4.0, rel=1e-5)
    value, err = mutual_energy_mc(a, b, n_samples=100_000, seed=3)
    assert abs(value - G / 4.0) < 3.0 * err


def test_mutual_of_distribution_with_itself_is_twice_self_energy():
    for shape in (UniformSphere(2.0, 1.5), Gaussian(1.0, 0.7), SphericalShell(1.0, 2.0)):
        assert mutual_energy(shape, shape) == pytest.approx(
            2.0 * self_energy(shape), rel=1e-12
        )


def test_coincident_gaussians_match_quadrature():
    a = Gaussian(1.0, 1.0)
    b = Gaussian(1.0, 2.0)
    closed = mutual_energy(a, b)
    assert closed == pytest.approx(
        G * math.sqrt(2.0 / math.pi) / math.sqrt(1.0 + 4.0), rel=1e-12
    )
    assert mutual_energy(a, b, method="quadrature") == pytest.approx(closed, rel=1e-5)


def test_overlapping_spheres_closed_form_matches_quadrature():
    a = UniformSphere(1.0, 1.0)
    for d in (0.0, 0.5, 1.0, 1.7, 2.0):
        b = UniformSphere(1.0, 1.0, (d, 0.0, 0.0))
        assert mutual_energy(a, b, method="quadrature") == pytest.approx(
            mutual_energy(a, b), rel=1e-5
        )


def test_contained_sphere_closed_form_matches_quadrature():
    big = UniformSphere(1.0, 2.0)
    small = UniformSphere(1.0, 0.3, (0.8, 0.0, 0.0))
    assert mutual_energy(big, small, method="quadrature") == pytest.approx(
        mutual_energy(big, small), rel=1e-5
    )


def test_point_mass_sees_shell_potential():
    p = PointMass(1.0, (0.5, 0.0, 0.0))
    shell = SphericalShell(1.0, 2.0)
    assert mutual_energy(p, shell) == pytest.approx(G / 2.0, rel=1e-12)  # inside: 1/R
    outside = PointMass(1.0, (5.0, 0.0, 0.0))
    assert mutual_energy(outside, shell) == pytest.approx(G / 5.0, rel=1e-12)


def test_coincident_singular_points_diverge():
    with pytest.raises(DivergentSelfEnergy):
        mutual_energy(PointMass(1.0), PointMass(1.0))
    # distinct centers are fine
    assert mutual_energy(PointMass(1.0), PointMass(1.0, (2.0, 0.0, 0.0))) == pytest.approx(
        G / 2.0, rel=1e-12
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
    assert value == pytest.approx(0.95 * G, rel=1e-12)
    mc, err = e_delta_mc(SuperpositionSpec(a, b), n_samples=150_000, seed=5)
    assert abs(mc - value) < 3.0 * err


def test_far_separation_limit():
    # d -> inf leaves twice the single-sphere self energy, (6/5) G m^2 / R
    a = UniformSphere(1.0, 1.0)
    b = UniformSphere(1.0, 1.0, (100.0, 0.0, 0.0))
    value = e_delta(SuperpositionSpec(a, b), method="quadrature")
    assert value == pytest.approx(1.2 * G, rel=0.01)


def test_singular_branch_reports_guidance():
    with pytest.raises(DivergentSelfEnergy, match="smearing_length"):
        e_delta(SuperpositionSpec(PointMass(1.0), PointMass(1.0, (1.0, 0.0, 0.0))))


def test_superposition_validation():
    a = UniformSphere(1.0, 1.0)
    b = UniformSphere(1.0, 1.0, (2.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SuperpositionSpec(a, b, amp_a=1.0, amp_b=1.0)
    with pytest.raises(ValueError):
        SuperpositionSpec(a, UniformSphere(2.0, 1.0, (2.0, 0.0, 0.0)))
    spec = SuperpositionSpec(a, b, amp_a=0.6, amp_b=0.8j)
    assert spec.weights == pytest.approx((0.36, 0.64))
    assert len(spec.content_digest()) == 64


# -- radial profiles --------------------------------------------------------

def test_profile_reproduces_sampled_gaussian():
    r = np.linspace(0.0, 12.0, 600)
    rho = 2.0 * np.exp(-(r**2) / 2.0) / (2.0 * math.pi) ** 1.5
    prof = RadialProfile(r, rho)
    assert prof.mass == pytest.approx(2.0, rel=1e-6)
    assert self_energy(prof) == pytest.approx(
        self_energy(Gaussian(prof.mass, 1.0)), rel=1e-5
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
    with pytest.raises(NoClosedForm):
        self_energy(_exponential_profile(1.0), method="analytic")


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
        exact = self_energy(shape, method="analytic")
        assert self_energy(shape, method="quadrature") == pytest.approx(exact, rel=1e-9)


def test_shell_inside_shell_has_a_closed_form():
    # a shell sees a constant potential G m / R anywhere inside another shell
    outer = SphericalShell(2.0, 2.0)
    inner = SphericalShell(3.0, 1.0, (0.5, 0.0, 0.0))
    assert mutual_energy(outer, inner, method="analytic") == G * 2.0 * 3.0 / 2.0


def test_self_energy_mc_is_half_the_mutual_estimate():
    g = Gaussian(3.0, 0.7)
    value, err = mutual_energy_mc(g, g, n_samples=20_000, seed=11)
    assert self_energy_mc(g, n_samples=20_000, seed=11) == (0.5 * value, 0.5 * err)


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
        warnings.simplefilter("error", IntegrationWarning)
        value = e_delta(spec, method=method, rel_tol=1e-10)
        assert value == pytest.approx(G * expected, rel=1e-8)
        if method == "auto":
            assert math.isfinite(collapse_time(spec, rel_tol=1e-10).collapse_time)


@pytest.mark.parametrize("method", ["auto", "quadrature"])
@pytest.mark.parametrize("pair", sorted(SMALL_D_PAIRS))
def test_e_delta_is_accurate_from_d_over_r_1e_minus_12_to_10(pair, method):
    make, unit_e_delta = SMALL_D_PAIRS[pair]
    for d in SEPARATIONS:
        spec = SuperpositionSpec(make((0.0, 0.0, 0.0)), make((d, 0.0, 0.0)))
        _check_small_d(spec, unit_e_delta(d), method)


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


def test_e_delta_raises_no_warning_at_the_rounding_limits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # concentric balls one ulp apart in radius: F_a - F_b is rounding noise
        a, b = UniformSphere(1.0, 0.05), UniformSphere(1.0, math.nextafter(0.05, 1.0))
        assert 0.0 <= e_delta(SuperpositionSpec(a, b)) <= 1e-14 * self_energy(a)
        # a subnormal separation gives the concentric value
        spec = SuperpositionSpec(UniformSphere(1.0, 1.0),
                                 UniformSphere(1.0, 0.5, (1e-311, 0.0, 0.0)))
        assert e_delta(spec) == pytest.approx(G * _nested_e_delta(1.0, 0.5, 0.0), rel=1e-8)
