"""Wavefunction states, which are s-waves on a uniform radial grid, kernel
couplings, and the discrete radial formulas the solvers share: the amplitude
u = sqrt(4 pi) r psi, its kernel potential and the Dirichlet kinetic sum.

The self-interaction is a sum of kernel terms kappa_k * int |psi(x')|^2/|x-x'| d^3x'
with signed strengths in J*m: kappa = -G m^2 reproduces the gravitational
coupling, kappa = +e^2 the electrostatic objection, and both share one code
path because the kernel integral is identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import GridError, NormalizationError
from ..quantities import CODATA2018, PhysicalConstants, kernel_length

NORM_TOL = 1e-10
TAIL_TOL = 1e-8          # largest |psi(r_max)| / max|psi| a solved state may have
POINTS_PER_LENGTH = 32   # grid points required per kernel characteristic length


@dataclass(frozen=True)
class KernelTerm:
    """One self-interaction term: strength kappa in J*m (attractive when < 0)."""

    strength: float
    label: str = "custom"

    def __post_init__(self) -> None:
        if not math.isfinite(self.strength):
            raise ValueError(f"kernel strength must be finite, got {self.strength}")


def gravitational_kernel(mass: float, constants: PhysicalConstants = CODATA2018) -> KernelTerm:
    """kappa = -G m^2 (attractive)."""
    return KernelTerm(-constants.G * mass**2, "gravity")


def electrostatic_kernel(constants: PhysicalConstants = CODATA2018) -> KernelTerm:
    """kappa = +e^2/(4 pi eps0) for a unit charge (repulsive)."""
    return KernelTerm(constants.e2_coulomb, "electrostatic")


class RadialGrid:
    """Uniform radial grid r_i = i*dr, i = 1..n, with Dirichlet walls at 0 and r_max."""

    def __init__(self, r: np.ndarray):
        r = np.asarray(r, dtype=float)
        if r.ndim != 1 or r.size < 8:
            raise GridError("radial grid needs at least 8 points")
        steps = np.diff(r)
        if np.any(steps <= 0):
            raise GridError("radial grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise GridError("radial grid must be uniform")
        if not math.isclose(r[0], steps[0], rel_tol=1e-9):
            raise GridError("radial grid must start at one spacing from the origin")
        self.r = r
        self.spacing = float(steps[0])

    @classmethod
    def uniform(cls, r_max: float, n: int) -> "RadialGrid":
        dr = r_max / (n + 1)
        return cls(dr * np.arange(1, n + 1))

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def r_max(self) -> float:
        return float(self.r[-1]) + self.spacing


def _norm_squared(grid: RadialGrid, psi: np.ndarray) -> float:
    """int |psi|^2 d^3x = int 4 pi r^2 |psi|^2 dr."""
    u2 = 4.0 * math.pi * grid.r**2 * np.abs(psi) ** 2
    # the [0, r_1] sliver integrates r^2*|psi|^2 ~ 0 at the origin
    return float(np.trapezoid(np.concatenate(([0.0], u2)), np.concatenate(([0.0], grid.r))))


@dataclass(frozen=True)
class WaveState:
    """A normalized wavefunction on a radial grid, with mass and coupling metadata.

    ``psi`` holds the full wavefunction value (no spherical-harmonic factor);
    the norm is int 4 pi r^2 |psi|^2 dr = 1.
    ``external_potential`` is sampled on the grid in joules (None means free).
    """

    grid: RadialGrid
    psi: np.ndarray
    mass: float
    self_coupling: tuple[KernelTerm, ...] = ()
    external_potential: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (self.grid.n,):
            raise ValueError("psi shape must match the grid")
        if not np.all(np.isfinite(psi.view(float))):
            raise NormalizationError("psi contains non-finite values")
        object.__setattr__(self, "psi", psi)
        if self.external_potential is not None:
            v = np.asarray(self.external_potential, dtype=float)
            if v.shape != (self.grid.n,):
                raise ValueError("external_potential shape must match the grid")
            object.__setattr__(self, "external_potential", v)
        norm = self.norm()
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(f"norm = {norm!r}, must be 1 within {NORM_TOL}")

    def norm(self) -> float:
        return _norm_squared(self.grid, self.psi)

    def amplitude(self) -> np.ndarray:
        """The radial amplitude u = sqrt(4 pi) r psi, which the solvers evolve."""
        return np.sqrt(4.0 * math.pi) * self.grid.r * self.psi

    @property
    def kappa_total(self) -> float:
        return sum(term.strength for term in self.self_coupling)

    @staticmethod
    def normalized(grid: RadialGrid, psi: np.ndarray, mass: float,
                   self_coupling: Sequence[KernelTerm] = (),
                   external_potential: np.ndarray | None = None) -> "WaveState":
        psi = np.asarray(psi, dtype=complex)
        n2 = _norm_squared(grid, psi)
        if not n2 > 0.0:
            raise NormalizationError("cannot normalize a zero wavefunction")
        return WaveState(grid, psi / math.sqrt(n2), mass, tuple(self_coupling),
                         external_potential)

    @staticmethod
    def gaussian_packet(grid: RadialGrid, sigma: float, mass: float,
                        self_coupling: Sequence[KernelTerm] = ()) -> "WaveState":
        """Packet whose position density has standard deviation sigma per axis."""
        psi = np.exp(-(grid.r**2) / (4.0 * sigma**2)).astype(complex)
        return WaveState.normalized(grid, psi, mass, self_coupling)


def kernel_integral(r: np.ndarray, density_weight: np.ndarray) -> np.ndarray:
    """S(r) = (1/r) int_0^r w dr' + int_r^inf (w/r') dr' for w = 4 pi r^2 |psi|^2.

    This is the shell-theorem reduction of int |psi(x')|^2 / |x - x'| d^3x';
    S is continuous and falls off as (total weight)/r outside the support.
    ``r`` must be ascending and strictly positive; the [0, r_1] sliver enters
    with w(0) = 0 (w ~ r^2 at the origin).
    """
    # cumulative trapezoids, in the operation order of scipy's cumulative trapezoid rule
    dr = np.diff(np.concatenate(([0.0], r)))
    w0 = np.concatenate(([0.0], density_weight))
    inner = np.cumsum(dr * (w0[1:] + w0[:-1]) / 2.0)   # int_0^{r_i} w dr', i = 1..n
    over_r = np.concatenate(([0.0], density_weight / r))
    ring = np.cumsum(dr * (over_r[1:] + over_r[:-1]) / 2.0)
    outer = ring[-1] - ring                          # int_{r_i}^{r_max} w/r' dr'
    return inner / r + outer


def radial_density(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """|u|^2 / (dr sum |u|^2): the radial probability density of amplitude u, in 1/m."""
    weight = np.abs(u) ** 2
    return weight / (grid.spacing * float(np.sum(weight)))


def kernel_potential(grid: RadialGrid, u: np.ndarray, kappa: float) -> np.ndarray:
    """kappa S(r) for the density of amplitude u, in joules; zero without coupling."""
    if kappa == 0.0:
        return np.zeros(u.size)
    return kappa * kernel_integral(grid.r, radial_density(grid, u))


def dirichlet_kinetic_sum(u: np.ndarray) -> float:
    """sum_i |u_{i+1} - u_i|^2 over the n + 1 grid edges, with u = 0 at both walls."""
    edges = np.concatenate(([u[0]], np.diff(u), [-u[-1]]))
    return float(np.sum(np.abs(edges) ** 2))


def self_potential(state: WaveState) -> np.ndarray:
    """Total self-interaction potential sum_k kappa_k S(r) on the grid, in joules."""
    return kernel_potential(state.grid, state.amplitude(), state.kappa_total)


def validate_grid_resolution(grid: RadialGrid, mass: float,
                             couplings: Sequence[KernelTerm],
                             constants: PhysicalConstants = CODATA2018) -> None:
    """Require >= POINTS_PER_LENGTH grid points per kernel's characteristic length
    hbar^2 / (m |kappa|) (the SN-natural length for gravity, Bohr-like otherwise)."""
    for term in couplings:
        if term.strength == 0.0:
            continue
        char = kernel_length(mass, term.strength, constants)
        if grid.spacing > char / POINTS_PER_LENGTH:
            raise GridError(
                f"grid spacing {grid.spacing:.3e} m does not resolve the "
                f"{term.label} kernel length {char:.3e} m "
                f"(need >= {POINTS_PER_LENGTH} points per length)"
            )


def validate_tail(psi: np.ndarray) -> None:
    """The domain is certified a posteriori: |psi(r_max)| must be negligible."""
    peak = float(np.max(np.abs(psi)))
    edge = float(np.abs(psi[-1]))
    if edge > TAIL_TOL * peak:
        raise GridError(
            f"|psi(r_max)| / max|psi| = {edge / peak:.3e} exceeds {TAIL_TOL:.0e}; "
            "extend r_max"
        )


def load_state_csv(path, mass: float, self_coupling: Sequence[KernelTerm] = ()) -> WaveState:
    """Read (r, Re psi, Im psi) columns into a normalized radial WaveState."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] < 3:
        raise ValueError(f"{path}: expected three columns (r, Re psi, Im psi)")
    grid = RadialGrid(data[:, 0])
    return WaveState.normalized(grid, data[:, 1] + 1j * data[:, 2], mass, self_coupling)
