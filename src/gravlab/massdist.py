"""Mass-distribution shapes and the gravitational self/mutual/difference energies.

All shapes are spherically symmetric about their own center, so every double
integral over the 1/|x-y| kernel reduces to radial integrals through the
shell theorem.  Energies follow the convention

    U[rho]   = (G/2) * int rho(x) rho(y) / |x-y|      (self energy, >= 0)
    mutual   =  G    * int rho1(x) rho2(y) / |x-y|
    e_delta  = U[rho_a - rho_b] = U[rho_a] + U[rho_b] - mutual(rho_a, rho_b)

Every self energy, closed-form, quadrature or Monte Carlo, is half the
mutual energy of a shape with itself at zero separation.  Mutual energies go
through one dispatch: the closed form unless method="quadrature", else the
Gauss-law engine, built on each shape's enclosed mass fraction F(r) and
f(r) = F'(r)/r.  A closed form of None means "no closed form": "analytic"
then raises NoClosedForm, "auto" integrates.  E_delta is never a difference
of near-equal energies unless method="analytic" (see ``e_delta``).

scipy is imported inside the functions that call it, so importing this
module does not load it; ``tests/test_cli.py`` guards that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CancellationError, DivergentSelfEnergy, NoClosedForm
from .persistence import json_digest
from .quantities import CODATA2018, PhysicalConstants

DEFAULT_REL_TOL = 1e-6

Center = tuple[float, float, float]
_ORIGIN: Center = (0.0, 0.0, 0.0)


def _as_center(c: Sequence[float]) -> Center:
    x, y, z = (float(v) for v in c)
    return (x, y, z)


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


class MassDistribution:
    """Base interface of a spherically symmetric shape.

    The Gauss-law engine reads ``tail_radius``, ``weight_over_r`` (or
    ``delta_radius`` for a shell or point), ``enclosed_fraction`` and
    ``knots``; the Monte Carlo sampler reads ``radius_from_cdf``.  A shape has
    no energy method: every self energy is half its zero-separation mutual
    energy, and E_delta is never a difference of near-equal energies.
    """

    mass: float
    center: Center

    # radius beyond which the density vanishes (inf-like cutoff for Gaussians)
    def tail_radius(self) -> float:
        raise NotImplementedError

    # f(r) = F'(r)/r = 4*pi*r*rho(r)/mass; delta-like shapes have none
    def weight_over_r(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # radius of the delta shell for delta-like shapes (0.0 for a point), else None
    def delta_radius(self) -> float | None:
        return None

    # F(r): fraction of the mass within r of the center
    def enclosed_fraction(self, r: np.ndarray | float) -> np.ndarray:
        raise NotImplementedError

    # ascending radii from 0 to tail_radius() between which weight_over_r is smooth
    def knots(self) -> np.ndarray:
        return np.array([0.0, self.tail_radius()])

    # inverse of the radial mass CDF, for stratified sampling
    def radius_from_cdf(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformSphere(MassDistribution):
    mass: float
    radius: float
    center: Center = _ORIGIN

    def __post_init__(self) -> None:
        _check_mass(self.mass)
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", _as_center(self.center))

    def tail_radius(self) -> float:
        return self.radius

    def weight_over_r(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.radius, 3.0 * r / self.radius**3, 0.0)

    def enclosed_fraction(self, r):
        return np.minimum(np.asarray(r, dtype=float) / self.radius, 1.0) ** 3

    def radius_from_cdf(self, u):
        return self.radius * np.cbrt(u)

    def to_dict(self) -> dict:
        return {"kind": "uniform_sphere", "mass_kg": self.mass, "radius_m": self.radius,
                "center_m": list(self.center)}


@dataclass(frozen=True)
class SphericalShell(MassDistribution):
    mass: float
    radius: float
    center: Center = _ORIGIN

    def __post_init__(self) -> None:
        _check_mass(self.mass)
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", _as_center(self.center))

    def tail_radius(self) -> float:
        return self.radius

    def delta_radius(self) -> float | None:
        return self.radius

    def enclosed_fraction(self, r):
        return np.where(np.asarray(r, dtype=float) >= self.radius, 1.0, 0.0)

    def radius_from_cdf(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.radius)

    def to_dict(self) -> dict:
        return {"kind": "spherical_shell", "mass_kg": self.mass, "radius_m": self.radius,
                "center_m": list(self.center)}


@dataclass(frozen=True)
class Gaussian(MassDistribution):
    mass: float
    width: float  # sigma of rho(r) ~ exp(-r^2 / (2 sigma^2))
    center: Center = _ORIGIN

    def __post_init__(self) -> None:
        _check_mass(self.mass)
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width}")
        object.__setattr__(self, "center", _as_center(self.center))

    def tail_radius(self) -> float:
        # density weight beyond 12 sigma is ~1e-31 of the total; invisible at 1e-6 tolerance
        return 12.0 * self.width

    def weight_over_r(self, r):
        r = np.asarray(r, dtype=float)
        s = self.width
        return 4.0 * math.pi * r * np.exp(-r**2 / (2.0 * s**2)) / (2.0 * math.pi * s**2) ** 1.5

    def enclosed_fraction(self, r):
        from scipy.special import gammainc

        # the chi(3) law of radius_from_cdf
        return gammainc(1.5, np.asarray(r, dtype=float) ** 2 / (2.0 * self.width**2))

    def knots(self) -> np.ndarray:
        # half-sigma panels: 8-point Gauss-Legendre on each is exact to rounding
        return np.linspace(0.0, self.tail_radius(), 25)

    def radius_from_cdf(self, u):
        from scipy.special import gammaincinv

        # radial mass CDF of an isotropic Gaussian is a chi(3) law
        return self.width * np.sqrt(2.0 * gammaincinv(1.5, np.asarray(u, dtype=float)))

    def to_dict(self) -> dict:
        return {"kind": "gaussian", "mass_kg": self.mass, "width_m": self.width,
                "center_m": list(self.center)}


@dataclass(frozen=True)
class PointMass(MassDistribution):
    """Point mass, optionally smeared into a uniform ball of radius ``smearing_length``.

    The unsmeared point is representable but singular: its self energy is the
    package's concrete rendering of the short-distance cut-off difficulty.
    """

    mass: float
    center: Center = _ORIGIN
    smearing_length: float = 0.0

    def __post_init__(self) -> None:
        _check_mass(self.mass)
        if self.smearing_length < 0.0:
            raise ValueError(f"smearing_length must be >= 0, got {self.smearing_length}")
        object.__setattr__(self, "center", _as_center(self.center))

    def _ball(self) -> UniformSphere:
        return UniformSphere(self.mass, self.smearing_length, self.center)

    def tail_radius(self) -> float:
        return self.smearing_length

    def weight_over_r(self, r):
        return self._ball().weight_over_r(r)

    def delta_radius(self) -> float | None:
        return 0.0 if self.smearing_length == 0.0 else None

    def enclosed_fraction(self, r):
        if self.smearing_length == 0.0:
            return np.ones_like(np.asarray(r, dtype=float))
        return self._ball().enclosed_fraction(r)

    def radius_from_cdf(self, u):
        if self.smearing_length == 0.0:
            return np.zeros_like(np.asarray(u, dtype=float))
        return self._ball().radius_from_cdf(u)

    def to_dict(self) -> dict:
        return {"kind": "point_mass", "mass_kg": self.mass,
                "smearing_length_m": self.smearing_length, "center_m": list(self.center)}


class RadialProfile(MassDistribution):
    """Sampled rho(r) on an ascending grid, interpolated monotone-cubic (PCHIP).

    PCHIP stays within the bracketing sample values, so nonnegative samples
    give a nonnegative density everywhere.  Cumulative mass is computed
    exactly on the piecewise polynomial, so the declared-mass consistency
    check is limited by the data, not by quadrature noise.
    """

    def __init__(
        self,
        r: Sequence[float],
        rho: Sequence[float],
        center: Sequence[float] = _ORIGIN,
        mass: float | None = None,
    ):
        from scipy.interpolate import PchipInterpolator

        r_arr = np.asarray(r, dtype=float)
        rho_arr = np.asarray(rho, dtype=float)
        if r_arr.ndim != 1 or r_arr.size < 4:
            raise ValueError("radial profile needs at least 4 samples")
        if r_arr.shape != rho_arr.shape:
            raise ValueError("r and rho must have matching shapes")
        if np.any(np.diff(r_arr) <= 0) or r_arr[0] < 0:
            raise ValueError("r samples must be nonnegative and strictly increasing")
        if np.any(rho_arr < 0):
            raise ValueError("density samples must be nonnegative")
        if r_arr[0] > 0.0:
            # constant-density plug inside the first sample
            r_arr = np.concatenate(([0.0], r_arr))
            rho_arr = np.concatenate(([rho_arr[0]], rho_arr))

        self.center = _as_center(center)
        self._r_max = float(r_arr[-1])
        self._rho = PchipInterpolator(r_arr, rho_arr, extrapolate=False)

        # exact piecewise-polynomial integral of 4*pi*r^2*rho
        self._cum_mass = _weighted_antiderivative(self._rho)
        total = float(self._cum_mass(self._r_max))
        if not total > 0.0:
            raise ValueError("profile integrates to zero mass")
        if mass is None:
            mass = total
        elif abs(total - mass) > 1e-9 * abs(mass):
            raise ValueError(
                f"declared mass {mass!r} disagrees with integrated mass {total!r} "
                "beyond 1e-9 relative"
            )
        self.mass = float(mass)
        self._integral_total = total

        # dense table of the inverse radial CDF
        dense = np.linspace(0.0, self._r_max, max(4096, 8 * r_arr.size))
        cdf = np.asarray(self._cum_mass(dense)) / total
        cdf[-1] = 1.0
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        self._cdf_vals = cdf[keep]
        self._cdf_radii = dense[keep]

    def tail_radius(self) -> float:
        return self._r_max

    def weight_over_r(self, r):
        r = np.asarray(r, dtype=float)
        rho = np.nan_to_num(self._rho(r), nan=0.0)
        return 4.0 * math.pi * r * np.clip(rho, 0.0, None) / self._integral_total

    def enclosed_fraction(self, r):
        r = np.clip(np.asarray(r, dtype=float), 0.0, self._r_max)
        return np.asarray(self._cum_mass(r)) / self._integral_total

    def knots(self) -> np.ndarray:
        return self._rho.x

    def radius_from_cdf(self, u):
        return np.interp(np.asarray(u, dtype=float), self._cdf_vals, self._cdf_radii)

    def to_dict(self) -> dict:
        r = self._rho.x
        return {"kind": "radial_profile", "mass_kg": self.mass, "center_m": list(self.center),
                "r_m": [float(v) for v in r], "rho_kg_m3": [float(v) for v in self._rho(r)]}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return (self.center == other.center and self.mass == other.mass
                and np.array_equal(self._rho.x, other._rho.x)
                and np.array_equal(self._rho(self._rho.x), other._rho(other._rho.x)))

    def __hash__(self) -> int:
        return hash((self.center, self.mass, self._r_max))


def _check_mass(mass: float) -> None:
    if not (mass > 0.0 and math.isfinite(mass)):
        raise ValueError(f"mass must be strictly positive, got {mass}")


def _weighted_antiderivative(rho):
    """Exact antiderivative (a ``PPoly``) of 4*pi*r^2*rho(r) for a
    piecewise-cubic ``PchipInterpolator`` rho."""
    from scipy.interpolate import PPoly

    start = rho.x[:-1]
    c = rho.c  # (4, n_intervals), highest degree first, local variable x = r - start
    # r^2 = x^2 + 2*start*x + start^2
    out = np.zeros((6, c.shape[1]))
    out[:4] = c
    out[1:5] += 2.0 * start * c
    out[2:] += start**2 * c
    return PPoly(4.0 * math.pi * out, rho.x).antiderivative()


def radial_profile_from_csv(path, center: Sequence[float] = _ORIGIN,
                            mass: float | None = None) -> RadialProfile:
    """Load a two-column CSV (r in meters, rho in kg/m^3) into a RadialProfile."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: expected two columns (r, rho)")
    return RadialProfile(data[:, 0], data[:, 1], center=center, mass=mass)


def shape_from_dict(payload: dict) -> MassDistribution:
    """Inverse of ``MassDistribution.to_dict`` (used by manifests and digests)."""
    kind = payload.get("kind")
    center = payload.get("center_m", list(_ORIGIN))
    if kind == "uniform_sphere":
        return UniformSphere(payload["mass_kg"], payload["radius_m"], _as_center(center))
    if kind == "spherical_shell":
        return SphericalShell(payload["mass_kg"], payload["radius_m"], _as_center(center))
    if kind == "gaussian":
        return Gaussian(payload["mass_kg"], payload["width_m"], _as_center(center))
    if kind == "point_mass":
        return PointMass(payload["mass_kg"], _as_center(center),
                         payload.get("smearing_length_m", 0.0))
    if kind == "radial_profile":
        return RadialProfile(payload["r_m"], payload["rho_kg_m3"], center,
                             payload.get("mass_kg"))
    raise ValueError(f"unknown shape kind {kind!r}")


# ---------------------------------------------------------------------------
# Superposition of two configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperpositionSpec:
    """Two mass configurations of the same body plus complex branch amplitudes."""

    branch_a: MassDistribution
    branch_b: MassDistribution
    amp_a: complex = complex(math.sqrt(0.5))
    amp_b: complex = complex(math.sqrt(0.5))

    def __post_init__(self) -> None:
        total = abs(self.amp_a) ** 2 + abs(self.amp_b) ** 2
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"|amp_a|^2 + |amp_b|^2 = {total!r}, must be 1 within 1e-12")
        ma, mb = self.branch_a.mass, self.branch_b.mass
        if abs(ma - mb) > 1e-9 * max(abs(ma), abs(mb)):
            raise ValueError(
                f"branches must share total mass within 1e-9 relative (got {ma!r}, {mb!r})"
            )

    @property
    def weights(self) -> tuple[float, float]:
        return (abs(self.amp_a) ** 2, abs(self.amp_b) ** 2)

    def to_dict(self) -> dict:
        return {
            "branch_a": self.branch_a.to_dict(),
            "branch_b": self.branch_b.to_dict(),
            "amp_a": [self.amp_a.real, self.amp_a.imag],
            "amp_b": [self.amp_b.real, self.amp_b.imag],
        }

    def content_digest(self) -> str:
        return json_digest(self.to_dict())


# ---------------------------------------------------------------------------
# Gauss-law engine
# ---------------------------------------------------------------------------
# Split each shape into concentric shells: F(r) is its enclosed mass fraction
# and f(r) = F'(r)/r.  Two unit shells of radii s and t = s + u, centers d
# apart, have mutual energy 1/max(s, t) - k(s, u)/(s t) with k >= 0 and k = 0
# for |u| >= d.  So for unit masses mutual(d) = I0 - B(d), with
#     I0 = int_0^inf F_a F_b / r^2 dr,   B(d) = int int f_a(s) f_b(s + u) k ds du,
# and E_delta / G = 1/2 int (m_a F_a - m_b F_b)^2 / r^2 dr + m_a m_b B(d).


def _adaptive(func, lo: float, hi: float, rel_tol: float, breaks: set[float],
              noise: float = 0.0) -> float:
    """int_lo^hi func, split at the breaks inside (lo, hi).

    quad gets rel_tol / 10: its error estimate misses the kinks that profile
    knots put inside its intervals (it undershot 2.6-fold on a 40-sample
    profile).  epsabs=0 keeps the accuracy independent of the unit of length.
    ``noise`` is the rounding level of the integral: quad's warning that it
    missed rel_tol is kept only for an error estimate above it."""
    from scipy.integrate import IntegrationWarning, quad

    points = sorted(p for p in breaks if lo < p < hi) or None
    epsrel = max(rel_tol / 10.0, 100.0 * np.finfo(float).eps)
    value, error, _, *failure = quad(func, lo, hi, epsabs=0.0, epsrel=epsrel, limit=400,
                                     points=points, full_output=1)
    if failure and error > noise:
        warnings.warn(failure[0], IntegrationWarning, stacklevel=2)
    return value


def _kernel(s, u, d: float):
    """k(s, u) for |u| < d."""
    t = s + u
    # min(s, t) < d/2 where the second form applies; the clamp keeps it finite elsewhere
    return np.where(s + t >= d, (d - abs(u)) ** 2 / (4.0 * d),
                    (d - np.maximum(s, t)) * np.minimum(np.minimum(s, t), d) / d)


def _canonical_order(a: MassDistribution, b: MassDistribution):
    """Argument-order-independent role assignment, a shell first, so the band
    integral is symmetric in (a, b) bit for bit."""
    key = lambda s: (s.delta_radius() is None, type(s).__name__, s.tail_radius(), s.mass,
                     s.center)
    return (a, b) if key(a) <= key(b) else (b, a)


def _band_integral(a: MassDistribution, b: MassDistribution, d: float, rel_tol: float) -> float:
    """B(d) >= 0: adaptive in u; in s, composite 8-point Gauss-Legendre on
    panels split at the knots, exact for piecewise-polynomial densities."""
    if d == 0.0:
        return 0.0
    a, b = _canonical_order(a, b)
    ra, rb = a.delta_radius(), b.delta_radius()
    if ra is not None and rb is not None:  # two shells: a single node
        return float(_kernel(ra, rb - ra, d)) / (ra * rb) if abs(rb - ra) < d else 0.0
    sa, sb = a.tail_radius(), b.tail_radius()
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def inner(u: float) -> float:
        if ra is not None:  # a shell: f_a(s) ds = delta(s - ra) ds / ra
            s = np.array([ra])
            w = b.weight_over_r(s + u) / ra
        else:
            lo, hi = max(0.0, -u), min(sa, sb - u)
            knots = np.concatenate((a.knots(), b.knots() - u, [(d - u) / 2.0]))
            edges = np.concatenate(([lo], np.unique(knots[(knots > lo) & (knots < hi)]), [hi]))
            half = 0.5 * np.diff(edges)[:, None]
            s = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes).ravel()
            w = (half * weights).ravel() * a.weight_over_r(s) * b.weight_over_r(s + u)
        return float(w @ _kernel(s, u, d))

    return _adaptive(inner, max(-d, -sa), min(d, sb), rel_tol, {0.0, sa - sb, sb - sa})


def _concentric_integral(g, a: MassDistribution, b: MassDistribution, rel_tol: float,
                         lo: float = 0.0, noise: float = 0.0) -> float:
    """int_lo^inf g(r) / r^2 dr for g built from F_a and F_b, constant past their tails."""
    inner, outer = sorted((a.tail_radius(), b.tail_radius()))
    hi = max(outer, lo)
    return _adaptive(lambda r: g(r) / r**2, lo, hi, rel_tol, {inner}, noise) + g(hi) / hi


def _ball_overlap(eta: float) -> float:
    """R * (6/5 - R * mutual) of two unit balls of radius R whose centers are
    eta * R apart (eta <= 2): E_delta of equal balls, with no subtraction."""
    return eta**2 / 2.0 - 3.0 * eta**3 / 16.0 + eta**5 / 160.0


def _ball_radii(d1: MassDistribution, d2: MassDistribution) -> list[float]:
    """Radii of the uniform balls (spheres and smeared points) among d1 and d2."""
    return [shape.tail_radius() for shape in (d1, d2)
            if isinstance(shape, (UniformSphere, PointMass)) and shape.tail_radius() > 0.0]


def _disjoint(d1: MassDistribution, d2: MassDistribution, d: float) -> bool:
    """Compact supports that do not overlap: they interact as two points."""
    return (d > 0.0 and d >= d1.tail_radius() + d2.tail_radius()
            and not isinstance(d1, Gaussian) and not isinstance(d2, Gaussian))


def _unit_mutual_closed_form(
    d1: MassDistribution, d2: MassDistribution, d: float
) -> float | None:
    """Known exact cases; None means no closed form."""
    if _disjoint(d1, d2, d):  # the shell theorem
        return 1.0 / d
    if (isinstance(d1, SphericalShell) and isinstance(d2, SphericalShell)
            and d <= abs(d1.radius - d2.radius)):  # one shell inside the other
        return 1.0 / max(d1.radius, d2.radius)
    balls = _ball_radii(d1, d2)
    if len(balls) == 2:
        r1, r2 = balls
        if d <= abs(r1 - r2):  # one ball fully inside the other
            big, small = max(r1, r2), min(r1, r2)
            return (3.0 * big**2 - d**2 - 0.6 * small**2) / (2.0 * big**3)
        if r1 == r2:
            return (1.2 - _ball_overlap(d / r1)) / r1
    if isinstance(d1, Gaussian) and isinstance(d2, Gaussian):
        from scipy.special import erf

        w = math.sqrt(2.0 * (d1.width**2 + d2.width**2))
        if d == 0.0:
            return 2.0 / (math.sqrt(math.pi) * w)
        return erf(d / w) / d
    return None


def _unit_mutual(
    d1: MassDistribution, d2: MassDistribution, d: float, method: str, rel_tol: float
) -> float:
    if d1.delta_radius() == 0.0 and d2.delta_radius() == 0.0 and d == 0.0:
        raise DivergentSelfEnergy("coincident unsmeared point masses: the 1/|x-y| "
                                  "integral diverges; set smearing_length > 0")
    if method != "quadrature":
        closed = _unit_mutual_closed_form(d1, d2, d)
        if closed is not None:
            return closed
        if method == "analytic":
            raise NoClosedForm("no closed form for this shape pair; use method='auto'")
    product = lambda r: float(d1.enclosed_fraction(r) * d2.enclosed_fraction(r))
    if 0.0 in (d1.delta_radius(), d2.delta_radius()):
        # F = 1 for a point, whose mutual energy is the potential int_d^inf F / r^2
        return _concentric_integral(product, d1, d2, rel_tol, lo=d)
    return _concentric_integral(product, d1, d2, rel_tol) - _band_integral(d1, d2, d, rel_tol)


# ---------------------------------------------------------------------------
# Public energy operations
# ---------------------------------------------------------------------------


def self_energy(
    d: MassDistribution,
    constants: PhysicalConstants = CODATA2018,
    method: str = "auto",
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Gravitational self energy U = (G/2) * double integral, in joules (>= 0):
    half the mutual energy of d with itself at zero separation."""
    return constants.G * d.mass**2 * (0.5 * _unit_mutual(d, d, 0.0, method, rel_tol))


def mutual_energy(
    d1: MassDistribution,
    d2: MassDistribution,
    constants: PhysicalConstants = CODATA2018,
    method: str = "auto",
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """G * double integral of rho1 rho2 / |x-y| (no 1/2), in joules.

    Equals G m1 m2 / d for disjoint spherically symmetric bodies, and twice the
    self energy when both arguments are the same distribution.
    """
    sep = math.dist(d1.center, d2.center)
    unit = _unit_mutual(d1, d2, sep, method, rel_tol)
    return constants.G * d1.mass * d2.mass * unit


def e_delta(
    spec: SuperpositionSpec,
    constants: PhysicalConstants = CODATA2018,
    method: str = "auto",
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Self energy of the branch difference density rho_a - rho_b, in joules.

    Nonnegative, and zero for identical branches.  Disjoint branches take
    U[a] + U[b] - G m_a m_b / d (at most half the sum is subtracted), equal
    balls a series in d/R; other pairs, and all under method="quadrature",
    the Gauss-law sum of two nonnegative terms.  Only method="analytic"
    subtracts near-equal energies: U[a] + U[b] - mutual from closed forms.
    """
    a, b = spec.branch_a, spec.branch_b
    if a.delta_radius() == 0.0 or b.delta_radius() == 0.0:
        raise DivergentSelfEnergy(
            "e_delta requires nonsingular branches; set smearing_length > 0 on point masses"
        )
    if a == b:
        return 0.0
    d = math.dist(a.center, b.center)
    ma, mb = a.mass, b.mass
    if method != "quadrature":
        balls = _ball_radii(a, b)
        if len(balls) == 2 and balls[0] == balls[1] and not _disjoint(a, b, d):
            overlap = 0.6 * (ma - mb) ** 2 + ma * mb * _ball_overlap(d / balls[0])
            return constants.G * overlap / balls[0]
        if method == "analytic" or _disjoint(a, b, d):
            selves = (self_energy(a, constants, method, rel_tol)
                      + self_energy(b, constants, method, rel_tol))
            value = selves - mutual_energy(a, b, constants, method, rel_tol)
            # kernel positivity guarantees >= 0; tiny negatives are roundoff
            if value < -1e-6 * selves:
                raise CancellationError(f"e_delta came out negative beyond roundoff: {value!r}")
            return max(value, 0.0)
    # F_a - F_b of near-equal shapes rounds at eps times the self-energy scale
    noise = np.finfo(float).eps * (ma + mb) ** 2 / max(a.tail_radius(), b.tail_radius())
    concentric = 0.5 * _concentric_integral(
        lambda r: float(ma * a.enclosed_fraction(r) - mb * b.enclosed_fraction(r)) ** 2,
        a, b, rel_tol, noise=noise)
    return constants.G * (concentric + ma * mb * _band_integral(a, b, d, rel_tol))


# ---------------------------------------------------------------------------
# Stratified Monte Carlo cross-check (6-D double integral)
# ---------------------------------------------------------------------------


def _sample_points(shape: MassDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from shape's normalized density, stratified in the radial CDF."""
    u = (rng.permutation(n) + rng.random(n)) / n
    radii = shape.radius_from_cdf(u)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return np.asarray(shape.center) + radii[:, None] * direction


def _mc_double_integral(
    d1: MassDistribution, d2: MassDistribution, n: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Unit-mass estimate of the 1/|x-y| double integral with its standard error."""
    x = _sample_points(d1, n, rng)
    y = _sample_points(d2, n, rng)
    inv = 1.0 / np.linalg.norm(x - y, axis=1)
    mean = float(np.mean(inv))
    sem = float(np.std(inv, ddof=1) / math.sqrt(n))
    return mean, sem


def self_energy_mc(
    d: MassDistribution,
    n_samples: int = 200_000,
    seed: int = 0,
    constants: PhysicalConstants = CODATA2018,
) -> tuple[float, float]:
    """Monte Carlo self energy (value, standard_error) in joules."""
    if d.delta_radius() == 0.0:
        raise DivergentSelfEnergy("cannot Monte-Carlo a singular point mass")
    value, sem = mutual_energy_mc(d, d, n_samples, seed, constants)
    return 0.5 * value, 0.5 * sem


def mutual_energy_mc(
    d1: MassDistribution,
    d2: MassDistribution,
    n_samples: int = 200_000,
    seed: int = 0,
    constants: PhysicalConstants = CODATA2018,
) -> tuple[float, float]:
    """Monte Carlo mutual energy (value, standard_error) in joules."""
    rng = np.random.default_rng(seed)
    mean, sem = _mc_double_integral(d1, d2, n_samples, rng)
    scale = constants.G * d1.mass * d2.mass
    return scale * mean, scale * sem


def e_delta_mc(
    spec: SuperpositionSpec,
    n_samples: int = 200_000,
    seed: int = 0,
    constants: PhysicalConstants = CODATA2018,
) -> tuple[float, float]:
    """Monte Carlo e_delta (value, standard_error); errors add in quadrature."""
    ua, sa = self_energy_mc(spec.branch_a, n_samples, seed, constants)
    ub, sb = self_energy_mc(spec.branch_b, n_samples, seed + 1, constants)
    um, sm = mutual_energy_mc(spec.branch_a, spec.branch_b, n_samples, seed + 2, constants)
    return ua + ub - um, math.sqrt(sa**2 + sb**2 + sm**2)
