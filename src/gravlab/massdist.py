"""Mass-distribution shapes and the gravitational self/mutual/difference energies.

All shapes are spherically symmetric about their own center, so every double
integral over the 1/|x-y| kernel reduces to radial integrals through the
shell theorem.  Energies follow the convention

    U[rho]   = (G/2) * int rho(x) rho(y) / |x-y|      (self energy, >= 0)
    mutual   =  G    * int rho1(x) rho2(y) / |x-y|
    e_delta  = U[rho_a - rho_b] = U[rho_a] + U[rho_b] - mutual(rho_a, rho_b)

Every self energy, closed-form, quadrature or Monte Carlo, is half the
mutual energy of a shape with itself at zero separation.  Mutual energies go
through one dispatch: the closed form where the shape pair has one (unless
method="quadrature"), else the Gauss-law engine, built on each shape's
enclosed mass fraction F(r) and f(r) = F'(r)/r.  E_delta is never a
difference of near-equal energies (see ``e_delta``).

It needs numpy alone (a numpy PCHIP, a vectorized adaptive Gauss-Legendre
rule), so no energy command loads scipy; ``tests/test_cli.py`` guards that.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

from . import np
from .errors import DivergentSelfEnergy, QuadratureWarning
from .persistence import json_digest
from .quantities import CODATA2018, PhysicalConstants

DEFAULT_REL_TOL = 1e-6
PANEL_CAP = 400  # panels of one adaptive integral: the limit quad (QUADPACK) uses
_BLOCK = 32_768  # points evaluated at once, so memory does not grow with the work

Center = tuple[float, float, float]
_ORIGIN: Center = (0.0, 0.0, 0.0)


def _as_center(c: Sequence[float]) -> Center:
    x, y, z = (float(v) for v in c)
    return (x, y, z)


def erf(x) -> np.ndarray:
    """``math.erf`` applied elementwise, so no caller needs ``scipy.special``."""
    return np.asarray(np.frompyfunc(math.erf, 1, 1)(x), dtype=float)


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


class MassDistribution:
    """Base interface of a spherically symmetric shape.

    The Gauss-law engine reads ``tail_radius``, ``weight_over_r`` (or
    ``delta_radius`` for a shell or point), ``enclosed_fraction`` and
    ``knots``; the field-energy Monte Carlo reads F and the knots.  A shape has
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
        # the radial mass CDF of an isotropic Gaussian is a chi(3) law, gammainc(3/2, x)
        x = np.asarray(r, dtype=float) ** 2 / (2.0 * self.width**2)
        return erf(np.sqrt(x)) - 2.0 * np.sqrt(x / math.pi) * np.exp(-x)

    def knots(self) -> np.ndarray:
        # half-sigma panels: 8-point Gauss-Legendre on each is exact to rounding
        return np.linspace(0.0, self.tail_radius(), 25)

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
        self._rho = _pchip(r_arr, rho_arr)

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

    def tail_radius(self) -> float:
        return self._r_max

    def weight_over_r(self, r):
        r = np.asarray(r, dtype=float)
        return 4.0 * math.pi * r * np.clip(self._rho(r), 0.0, None) / self._integral_total

    def enclosed_fraction(self, r):
        r = np.clip(np.asarray(r, dtype=float), 0.0, self._r_max)
        return np.asarray(self._cum_mass(r)) / self._integral_total

    def knots(self) -> np.ndarray:
        return self._rho.x

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


class _Piecewise:
    """``PPoly``'s layout: c[k, i] multiplies (r - x[i])**(K-1-k) on [x[i], x[i+1]]; 0 outside."""

    def __init__(self, c: np.ndarray, x: np.ndarray):
        self.c, self.x = c, x

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, self.x.size - 2)
        s, value, power = r - self.x[i], 0.0, 1.0
        for row in self.c[::-1]:  # PPoly's order, lowest degree first: its bits, not Horner's
            value, power = value + row[i] * power, power * s
        return np.where((r >= self.x[0]) & (r <= self.x[-1]), value, 0.0)


def _pchip(x: np.ndarray, y: np.ndarray) -> _Piecewise:
    """Monotone cubic Hermite interpolant (Fritsch & Carlson 1980) as scipy's ``PchipInterpolator``
    forms it: Fritsch-Butland slopes inside, Moler's one-sided slopes at the ends."""
    h, m = np.diff(x), np.diff(y) / np.diff(x)
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # only at flat knots
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    end = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(
        (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0)), 3.0 * m0, end))
    dy = np.concatenate((end[:1], inner, end[1:]))
    t = (dy[:-1] + dy[1:] - 2.0 * m) / h
    return _Piecewise(np.stack((t / h, (m - dy[:-1]) / h - t, dy[:-1], y[:-1])), x)


def _weighted_antiderivative(rho: _Piecewise) -> _Piecewise:
    """Exact antiderivative of 4 pi r^2 rho, zero at r = 0, as ``PPoly.antiderivative`` forms it."""
    start, c = rho.x[:-1], rho.c  # local variable x = r - start
    # r^2 = x^2 + 2*start*x + start^2
    anti = np.zeros((7, c.shape[1]))
    anti[:4] = c
    anti[1:5] += 2.0 * start * c
    anti[2:6] += start**2 * c
    anti[:6] = 4.0 * math.pi * anti[:6] / np.arange(6.0, 0.0, -1.0)[:, None]
    # each piece starts where the last ends: one sequential sum, in _Piecewise's order
    powers = np.cumprod(np.tile(np.diff(rho.x), (6, 1)), axis=0)  # h, h^2, ..., h^6
    anti[6, 1:] = np.add.accumulate((anti[5::-1] * powers).T.ravel())[5:-1:6]
    return _Piecewise(anti, rho.x)


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
    """Two mass configurations of the same body."""

    branch_a: MassDistribution
    branch_b: MassDistribution

    def __post_init__(self) -> None:
        ma, mb = self.branch_a.mass, self.branch_b.mass
        if abs(ma - mb) > 1e-9 * max(abs(ma), abs(mb)):
            raise ValueError(f"branches must share total mass within 1e-9 relative "
                             f"(got {ma!r}, {mb!r})")

    def to_dict(self) -> dict:
        return {"branch_a": self.branch_a.to_dict(), "branch_b": self.branch_b.to_dict()}

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


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, on first use: numpy.polynomial imports in 1.7 ms."""
    return np.polynomial.legendre.leggauss(n)


def _adaptive(func, lo: float, hi: float, rel_tol: float, breaks: set[float],
              noise: float = 0.0) -> float:
    """int_lo^hi func by adaptive Gauss-Legendre (after QUADPACK), first split at the breaks.

    Each pass calls the vectorized ``func`` once, on every new panel and its halves: the
    10-point rule minus the halves' is the error estimate.  Panels above their length's share
    of the tolerance max(rel_tol / 10 * |value|, noise) are halved until the estimates sum
    below it (rel_tol / 10: estimates miss the kinks of knots inside a panel; ``noise`` is
    the integral's rounding level), or until PANEL_CAP panels, with a QuadratureWarning."""
    nodes, weights = _gauss_legendre(10)
    nodes = np.concatenate((nodes, 0.5 * nodes - 0.5, 0.5 * nodes + 0.5))  # panel, halves
    epsrel = max(rel_tol / 10.0, 100.0 * sys.float_info.epsilon)
    cuts = np.array([lo, *sorted(p for p in breaks if lo < p < hi), hi])
    a, b, panels = cuts[:-1], cuts[1:], np.empty((0, 4))  # columns a, b, value, error
    while True:
        h = 0.5 * (b - a)
        f = func((0.5 * (a + b)[:, None] + h[:, None] * nodes).ravel()).reshape(a.size, -1)
        whole, halves = h * (f[:, :10] @ weights), 0.5 * h * ((f[:, 10:20] + f[:, 20:]) @ weights)
        panels = np.vstack((panels, np.column_stack((a, b, halves, np.abs(whole - halves)))))
        a, b, value, error = panels.T
        total = float(value.sum())
        tol = max(epsrel * abs(total), noise)
        if error.sum() <= tol:
            return total
        split = ~(error <= tol * (b - a) / (hi - lo))  # NaN splits too, up to the cap
        if len(panels) + np.count_nonzero(split) > PANEL_CAP:
            warnings.warn(f"adaptive quadrature stopped at {PANEL_CAP} panels: error estimate "
                          f"{error.sum():.3e} > tolerance {tol:.3e}", QuadratureWarning, 2)
            return total
        mid, panels = 0.5 * (a + b)[split], panels[~split]
        a, b = np.append(a[split], mid), np.append(mid, b[split])


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
    nodes, weights = _gauss_legendre(8)
    knots_a, knots_b = a.knots(), b.knots()

    def block(u: np.ndarray) -> np.ndarray:  # u: a column of outer nodes
        # the knots span [0, tail_radius()], so clipping puts both ends among the cuts
        cuts = np.concatenate((np.broadcast_to(knots_a, (u.size, knots_a.size)),
                               knots_b - u, (d - u) / 2.0), axis=1)
        edges = np.sort(np.clip(cuts, np.maximum(0.0, -u), np.minimum(sa, sb - u)), axis=1)
        row, j = np.nonzero(np.diff(edges, axis=1) > 0.0)
        half, u = 0.5 * (edges[row, j + 1] - edges[row, j])[:, None], u[row]
        s = edges[row, j][:, None] + half * (nodes + 1.0)
        w = half * weights * a.weight_over_r(s) * b.weight_over_r(s + u) * _kernel(s, u, d)
        return np.bincount(row, w.sum(axis=1), minlength=len(edges))

    step = max(1, _BLOCK // (nodes.size * (knots_a.size + knots_b.size)))  # u per block
    inner = lambda u: np.concatenate([block(u[i:i + step, None]) for i in range(0, u.size, step)])
    if ra is not None:  # a shell: f_a(s) ds = delta(s - ra) ds / ra
        inner = lambda u: b.weight_over_r(ra + u) / ra * _kernel(ra, u, d)

    # at u = d - 2 sa and 2 sb - d the kernel's switch s = (d - u)/2 meets a support edge
    breaks = {0.0, sa - sb, sb - sa, d - 2.0 * sa, 2.0 * sb - d}
    return _adaptive(inner, max(-d, -sa), min(d, sb), rel_tol, breaks)


def _concentric_integral(g, a: MassDistribution, b: MassDistribution, rel_tol: float,
                         lo: float = 0.0, noise: float = 0.0) -> float:
    """int_lo^inf g(r) / r^2 dr for g built from F_a and F_b, constant past their tails."""
    inner, outer = sorted((a.tail_radius(), b.tail_radius()))
    hi = max(outer, lo)
    return _adaptive(lambda r: g(r) / r**2, lo, hi, rel_tol, {inner}, noise) + float(g(hi)) / hi


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
        w = math.sqrt(2.0 * (d1.width**2 + d2.width**2))
        if d == 0.0:
            return 2.0 / (math.sqrt(math.pi) * w)
        return math.erf(d / w) / d
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
    product = lambda r: d1.enclosed_fraction(r) * d2.enclosed_fraction(r)
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

    Nonnegative, and zero for identical branches.  Unless method="quadrature",
    overlapping equal balls take a series in d/R and disjoint branches
    U[a] + U[b] - G m_a m_b / d; every other pair, and all under
    method="quadrature", the Gauss-law sum of two nonnegative terms.
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
        if _disjoint(a, b, d):
            # U >= G m^2 / (2 R) within radius R and (R_a + R_b)(1/R_a + 1/R_b) >= 4 (Cauchy-
            # Schwarz), so G m_a m_b / d is at most half of U_a + U_b: one bit is lost
            return (self_energy(a, constants, method, rel_tol)
                    + self_energy(b, constants, method, rel_tol)
                    - mutual_energy(a, b, constants, method, rel_tol))
    # F_a - F_b of near-equal shapes rounds at eps times the self-energy scale
    noise = sys.float_info.epsilon * (ma + mb) ** 2 / max(a.tail_radius(), b.tail_radius())
    concentric = 0.5 * _concentric_integral(
        lambda r: (ma * a.enclosed_fraction(r) - mb * b.enclosed_fraction(r)) ** 2,
        a, b, rel_tol, noise=noise)
    return constants.G * (concentric + ma * mb * _band_integral(a, b, d, rel_tol))


# ---------------------------------------------------------------------------
# Field-energy Monte Carlo cross-check
# ---------------------------------------------------------------------------
# Gauss's law gives each field per unit G from F: g = m F(r) rhat / r^2, and
# E_delta = (G/8pi) int |g_a - g_b|^2 d^3x (Penrose 1996).
# Strata of fixed counts round each center: a ball out to the shape's first knot
# holding 99% of its mass, a 1/r^4 tail past it and, for centers d > 0 apart, a layer
# |r - R| < d round each shell, where F jumps.  Mixture weights keep overlaps unbiased.


def _field_energy_mc(a: MassDistribution, b: MassDistribution | None, n: int, seed: int,
                     constants: PhysicalConstants) -> tuple[float, float]:
    """(G/8pi) int |g_a - g_b|^2 d^3x and its standard error, from the
    per-stratum variances; b = None takes g_b = 0, the self energy of a."""
    shapes = (a,) if b is None or a == b else (a, b)  # one field when a == b
    if any(s.delta_radius() == 0.0 for s in shapes):
        raise DivergentSelfEnergy("unsmeared point mass: set smearing_length > 0")
    d = math.dist(a.center, shapes[-1].center)
    reach = [s.knots()[np.argmax(s.enclosed_fraction(s.knots()) >= 0.99)] for s in shapes]
    r0 = float(max(reach))  # the unit of length of the points xi below
    centers = [np.subtract(s.center, a.center) / r0 for s in shapes]
    # (center index, inner radius, outer radius): balls and tails, then shell layers
    strata = [(k, lo, hi) for k, rk in enumerate(reach)
              for lo, hi in ((0.0, rk / r0), (rk / r0, math.inf))]
    strata += [(k, max(s.delta_radius() - d, 0.0) / r0, (s.delta_radius() + d) / r0)
               for k, s in enumerate(shapes) if d > 0.0 and s.delta_radius() is not None]
    layers = [n // 10] * (len(strata) - 2 * len(shapes))
    per_shape = (n - sum(layers)) // len(shapes)  # 3/4 in its ball, 1/4 in its tail
    counts = [per_shape - per_shape // 4, per_shape // 4] * len(shapes) + layers
    counts[0] += n - sum(counts)
    if min(counts) < 2:
        raise ValueError(f"n_samples = {n} leaves a stratum with fewer than 2 points")

    def density(rho, lo, hi):  # 4pi q of one stratum at distance rho from its center
        q = lo / np.maximum(rho, lo) ** 4 if hi == math.inf else 3.0 / (hi**3 - lo**3)
        return np.where((rho >= lo) & (rho <= hi), q, 0.0)

    rng = np.random.default_rng(seed)
    value = variance = 0.0
    for (k, lo, hi), count in zip(strata, counts):
        blocks = []  # (size, mean, squared deviations) of each block
        for start in range(0, count, _BLOCK):
            size = min(_BLOCK, count - start)
            u = 1.0 - rng.random(size)  # in (0, 1]: no point lands on a center
            rho = lo / u if hi == math.inf else np.cbrt(lo**3 + u * (hi**3 - lo**3))
            direction = rng.normal(size=(size, 3))
            xi = centers[k] + (rho / np.linalg.norm(direction, axis=1))[:, None] * direction
            r = [np.linalg.norm(xi - c, axis=1) for c in centers]
            g = [(s.mass * s.enclosed_fraction(r0 * rs) / rs**3)[:, None] * (xi - c)
                 for s, rs, c in zip(shapes, r, centers)]
            field = g[0] if b is None else g[0] - g[-1]
            y = count * (0.5 * constants.G * np.sum(field**2, axis=1)) / sum(
                m * density(r[j], inner, outer) for (j, inner, outer), m in zip(strata, counts))
            blocks.append((size, np.mean(y), np.sum((y - np.mean(y)) ** 2)))
        sizes, means, m2 = np.array(blocks).T  # pooled: no sum of squares is subtracted
        mean = float(sizes @ means) / count
        value += mean
        variance += float(m2.sum() + sizes @ (means - mean) ** 2) / (count - 1) / count
    return value / r0, math.sqrt(variance) / r0


def self_energy_mc(d: MassDistribution, n_samples: int = 200_000, seed: int = 0,
                   constants: PhysicalConstants = CODATA2018) -> tuple[float, float]:
    """Monte Carlo self energy (value, standard_error) in joules, from the field."""
    return _field_energy_mc(d, None, n_samples, seed, constants)


def e_delta_mc(spec: SuperpositionSpec, n_samples: int = 200_000, seed: int = 0,
               constants: PhysicalConstants = CODATA2018) -> tuple[float, float]:
    """Monte Carlo e_delta (value, standard_error) in joules, from the field difference."""
    return _field_energy_mc(spec.branch_a, spec.branch_b, n_samples, seed, constants)
