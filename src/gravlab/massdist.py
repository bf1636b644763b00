"""Mass-distribution shapes and the gravitational self/mutual/difference energies.

All shapes are spherically symmetric about their own center, so every double
integral over the 1/|x-y| kernel reduces to one-dimensional radial quadrature
through the shell theorem.  Energies follow the convention

    U[rho]   = (G/2) * int rho(x) rho(y) / |x-y|      (self energy, >= 0)
    mutual   =  G    * int rho1(x) rho2(y) / |x-y|
    e_delta  = U[rho_a] + U[rho_b] - mutual(rho_a, rho_b)

so e_delta equals the self energy of the difference density rho_a - rho_b.
Masses factor out of every integral analytically, which keeps the lambda^2
mass-scaling law exact in floating point.

Every self energy, closed-form, quadrature or Monte Carlo, is half the
mutual energy of a shape with itself at zero separation.  Mutual energies go
through one dispatch: the closed form unless method="quadrature", else radial
quadrature.  A closed form of None means "no closed form": "analytic" then
raises NoClosedForm, "auto" integrates.

scipy is imported inside the functions that call it, so importing this
module does not load it; ``tests/test_cli.py`` guards that.
"""

from __future__ import annotations

import math
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
    """Base interface: radial profile, cumulative mass, and potential per unit mass.

    ``unit_potential(r)`` is phi(r)/(G m) with phi the (positive) Newtonian
    potential magnitude; ``potential_antiderivative(u)`` returns
    A(u) = int_0^u t * unit_potential(t) dt, which makes the shell-averaged
    potential (A(d+s) - A(|d-s|)) / (2 s d) exact without inner quadrature.
    A shape has no self-energy method: every self energy (closed-form,
    quadrature or Monte Carlo) is half its zero-separation mutual energy.
    """

    mass: float
    center: Center

    # radius beyond which the density vanishes (inf-like cutoff for Gaussians)
    def tail_radius(self) -> float:
        raise NotImplementedError

    # 4*pi*r^2 * rho(r)/mass, or None for surface/point (delta-like) shapes
    def radial_weight(self, r: np.ndarray) -> np.ndarray | None:
        raise NotImplementedError

    # radius of the delta shell for delta-like shapes (0.0 for a point), else None
    def delta_radius(self) -> float | None:
        return None

    def unit_potential(self, r: np.ndarray | float) -> np.ndarray | float:
        raise NotImplementedError

    def potential_antiderivative(self, u: np.ndarray | float) -> np.ndarray | float:
        raise NotImplementedError

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

    def radial_weight(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= self.radius, 3.0 * r**2 / self.radius**3, 0.0)

    def unit_potential(self, r):
        r = np.asarray(r, dtype=float)
        R = self.radius
        inside = (3.0 * R**2 - r**2) / (2.0 * R**3)
        outside = np.divide(1.0, r, out=np.full_like(r, np.inf), where=r > 0)
        return np.where(r < R, inside, outside)

    def potential_antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        R = self.radius
        inner = (3.0 * R**2 * u**2 / 2.0 - u**4 / 4.0) / (2.0 * R**3)
        return np.where(u < R, inner, u - 3.0 * R / 8.0)

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

    def radial_weight(self, r):
        return None

    def delta_radius(self) -> float | None:
        return self.radius

    def unit_potential(self, r):
        r = np.asarray(r, dtype=float)
        outside = np.divide(1.0, r, out=np.full_like(r, np.inf), where=r > 0)
        return np.where(r < self.radius, 1.0 / self.radius, outside)

    def potential_antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        R = self.radius
        return np.where(u < R, u**2 / (2.0 * R), u - R / 2.0)

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

    def radial_weight(self, r):
        r = np.asarray(r, dtype=float)
        s = self.width
        return 4.0 * math.pi * r**2 * np.exp(-r**2 / (2.0 * s**2)) / (2.0 * math.pi * s**2) ** 1.5

    def unit_potential(self, r):
        from scipy.special import erf

        r = np.asarray(r, dtype=float)
        z = r / (self.width * math.sqrt(2.0))
        limit = math.sqrt(2.0 / math.pi) / self.width
        with np.errstate(invalid="ignore", divide="ignore"):
            val = erf(z) / r
        return np.where(r > 0, val, limit)

    def potential_antiderivative(self, u):
        from scipy.special import erf

        u = np.asarray(u, dtype=float)
        a = 1.0 / (self.width * math.sqrt(2.0))
        return u * erf(a * u) + (np.exp(-((a * u) ** 2)) - 1.0) / (a * math.sqrt(math.pi))

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

    def radial_weight(self, r):
        if self.smearing_length == 0.0:
            return None
        return self._ball().radial_weight(r)

    def delta_radius(self) -> float | None:
        return 0.0 if self.smearing_length == 0.0 else None

    def unit_potential(self, r):
        if self.smearing_length == 0.0:
            r = np.asarray(r, dtype=float)
            return np.divide(1.0, r, out=np.full_like(r, np.inf), where=r > 0)
        return self._ball().unit_potential(r)

    def potential_antiderivative(self, u):
        if self.smearing_length == 0.0:
            return np.asarray(u, dtype=float)
        return self._ball().potential_antiderivative(u)

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
    give a nonnegative density everywhere.  Cumulative mass and the outer
    potential integral are computed exactly on the piecewise polynomial, so
    the declared-mass consistency check is limited by the data, not by
    quadrature noise.
    """

    def __init__(
        self,
        r: Sequence[float],
        rho: Sequence[float],
        center: Sequence[float] = _ORIGIN,
        mass: float | None = None,
    ):
        from scipy.integrate import cumulative_trapezoid
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

        # exact piecewise-polynomial integrals of 4*pi*r^2*rho and 4*pi*r*rho
        self._cum_mass = _weighted_antiderivative(self._rho, power=2)
        cum_ring = _weighted_antiderivative(self._rho, power=1)
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
        self._ring_total = float(cum_ring(self._r_max))
        self._cum_ring = cum_ring

        # dense tables: potential antiderivative and inverse radial CDF
        dense = np.linspace(0.0, self._r_max, max(4096, 8 * r_arr.size))
        pot = self.unit_potential(dense)
        self._antideriv_grid = dense
        self._antideriv_vals = cumulative_trapezoid(dense * pot, dense, initial=0.0)
        cdf = np.asarray(self._cum_mass(dense)) / total
        cdf[-1] = 1.0
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        self._cdf_vals = cdf[keep]
        self._cdf_radii = dense[keep]

    def tail_radius(self) -> float:
        return self._r_max

    def radial_weight(self, r):
        r = np.asarray(r, dtype=float)
        rho = np.nan_to_num(self._rho(r), nan=0.0)
        return 4.0 * math.pi * r**2 * np.clip(rho, 0.0, None) / self._integral_total

    def unit_potential(self, r):
        r = np.asarray(r, dtype=float)
        rc = np.clip(r, 0.0, self._r_max)
        m_in = np.asarray(self._cum_mass(rc), dtype=float)
        ring_out = self._ring_total - np.asarray(self._cum_ring(rc), dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            phi = np.where(r > 0, m_in / np.maximum(r, 1e-300), 0.0) + ring_out
        # 4*pi*int rho r dr at r=0 equals the full ring integral
        phi = np.where(r > 0, phi, self._ring_total)
        return phi / self._integral_total

    def potential_antiderivative(self, u):
        u = np.asarray(u, dtype=float)
        inside = np.interp(np.clip(u, 0.0, self._r_max), self._antideriv_grid, self._antideriv_vals)
        # beyond the support, t*phi = 1 exactly
        return np.where(u <= self._r_max, inside, self._antideriv_vals[-1] + (u - self._r_max))

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


def _weighted_antiderivative(rho, power: int):
    """Exact antiderivative (a ``PPoly``) of 4*pi*r^power*rho(r) for a
    piecewise-cubic ``PchipInterpolator`` rho."""
    from scipy.interpolate import PPoly

    breaks = rho.x
    coeffs = rho.c  # (4, n_intervals), highest degree first, local variable x = r - break
    n = coeffs.shape[1]
    out = np.zeros((4 + power, n))
    for i in range(n):
        local = np.polynomial.polynomial.Polynomial(coeffs[::-1, i])
        shift = np.polynomial.polynomial.Polynomial([breaks[i], 1.0]) ** power
        prod = 4.0 * math.pi * (local * shift)
        c = prod.coef[::-1]  # highest first
        out[-len(c):, i] = c
    return PPoly(out, breaks).antiderivative()


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
# Quadrature engines
# ---------------------------------------------------------------------------


def _shell_averaged_potential(shape: MassDistribution, s: float, d: float) -> float:
    """Average of shape's unit potential over a sphere of radius s centered d away."""
    if d == 0.0:
        return float(shape.unit_potential(s))
    if s == 0.0:
        return float(shape.unit_potential(d))
    hi = shape.potential_antiderivative(d + s)
    lo = shape.potential_antiderivative(abs(d - s))
    return float((hi - lo) / (2.0 * s * d))


def _canonical_order(a: MassDistribution, b: MassDistribution):
    """Argument-order-independent role assignment, so mutual(a, b) == mutual(b, a)
    bit-for-bit even on the quadrature path."""
    key = lambda s: (type(s).__name__, s.tail_radius(), s.mass, s.center)
    return (a, b) if key(a) <= key(b) else (b, a)


def _unit_mutual_quadrature(
    d1: MassDistribution, d2: MassDistribution, d: float, rel_tol: float
) -> float:
    """int w_outer(s) * <phi_inner>(s, d) ds with the delta-like shape placed outside."""
    inner, outer = _canonical_order(d1, d2)
    if outer.delta_radius() is None and inner.delta_radius() is not None:
        inner, outer = outer, inner
    s_delta = outer.delta_radius()
    if s_delta is not None:
        return _shell_averaged_potential(inner, s_delta, d)

    from scipy.integrate import quad

    tail = outer.tail_radius()
    s_inner = inner.tail_radius()
    breakpoints = sorted(
        {p for p in (abs(d - s_inner), d + s_inner, s_inner) if 0.0 < p < tail}
    )

    def integrand(s: float) -> float:
        return float(outer.radial_weight(np.array(s))) * _shell_averaged_potential(inner, s, d)

    # epsabs=0: unit energies scale as 1/length, so an absolute floor would
    # make the accuracy depend on the unit of length
    value, _ = quad(integrand, 0.0, tail, epsabs=0.0, epsrel=rel_tol, limit=400,
                    points=breakpoints or None)
    return value


def _unit_mutual_closed_form(
    d1: MassDistribution, d2: MassDistribution, d: float
) -> float | None:
    """Known exact cases; None means no closed form."""
    # disjoint compact supports: plain point-point interaction by the shell theorem
    if d > 0.0 and d >= d1.tail_radius() + d2.tail_radius():
        if not isinstance(d1, Gaussian) and not isinstance(d2, Gaussian):
            return 1.0 / d
    if (isinstance(d1, SphericalShell) and isinstance(d2, SphericalShell)
            and d <= abs(d1.radius - d2.radius)):  # one shell inside the other
        return 1.0 / max(d1.radius, d2.radius)
    # uniform balls: spheres and smeared points, whose tail radius is the ball's
    balls = [shape.tail_radius() for shape in (d1, d2)
             if isinstance(shape, (UniformSphere, PointMass)) and shape.tail_radius() > 0.0]
    if len(balls) == 2:
        r1, r2 = balls
        if d <= abs(r1 - r2):  # one ball fully inside the other
            big, small = max(r1, r2), min(r1, r2)
            return (3.0 * big**2 - d**2 - 0.6 * small**2) / (2.0 * big**3)
        if r1 == r2:
            eta = d / r1
            return (1.2 - eta**2 / 2.0 + 3.0 * eta**3 / 16.0 - eta**5 / 160.0) / r1
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
    return _unit_mutual_quadrature(d1, d2, d, rel_tol)


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
    """Self energy of the branch difference density: U[a] + U[b] - mutual(a, b).

    Nonnegative by positive-definiteness of the 1/|x-y| kernel; exactly zero
    for identical branches.
    """
    a, b = spec.branch_a, spec.branch_b
    if a.delta_radius() == 0.0 or b.delta_radius() == 0.0:
        raise DivergentSelfEnergy(
            "e_delta requires nonsingular branches; set smearing_length > 0 on point masses"
        )
    if a == b:
        return 0.0
    selves = self_energy(a, constants, method, rel_tol) + self_energy(b, constants, method, rel_tol)
    value = selves - mutual_energy(a, b, constants, method, rel_tol)
    if value < 0.0:
        # kernel positivity guarantees >= 0; tiny negatives are quadrature roundoff
        if abs(value) > 1e-6 * selves:
            raise CancellationError(f"e_delta came out negative beyond roundoff: {value!r}")
        value = 0.0
    return value


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
