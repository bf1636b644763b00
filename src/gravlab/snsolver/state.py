"""Wavefunction state, grids, kernel couplings, and the self-interaction potential.

The self-interaction is a sum of kernel terms kappa_k * int |psi(x')|^2/|x-x'| d^3x'
with signed strengths in J*m: kappa = -G m^2 reproduces the gravitational
coupling, kappa = +e^2 the electrostatic objection, and both share one code
path because the kernel integral is identical.  Kernel terms are only defined
on radial grids (the integral is intrinsically three-dimensional); 1-D
Cartesian grids serve free/external-potential evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import GridError, NormalizationError
from ..quantities import CODATA2018, PhysicalConstants, kernel_length

NORM_TOL = 1e-10
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


def electrostatic_kernel(constants: PhysicalConstants = CODATA2018,
                         charge_factor: float = 1.0) -> KernelTerm:
    """kappa = +e^2/(4 pi eps0) for a unit charge (repulsive)."""
    return KernelTerm(constants.e2_coulomb * charge_factor**2, "electrostatic")


class RadialGrid:
    """Uniform radial grid r_i = i*dr, i = 1..n, with Dirichlet walls at 0 and r_max."""

    kind = "radial"

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


class CartesianGrid:
    """Uniform 1-D grid with Dirichlet walls one spacing beyond both ends."""

    kind = "cartesian"

    def __init__(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size < 8:
            raise GridError("cartesian grid needs at least 8 points")
        steps = np.diff(x)
        if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise GridError("cartesian grid must be uniform and increasing")
        self.x = x
        self.spacing = float(steps[0])

    @classmethod
    def centered(cls, half_width: float, n: int) -> "CartesianGrid":
        return cls(np.linspace(-half_width, half_width, n))

    @property
    def n(self) -> int:
        return self.x.size


Grid = RadialGrid | CartesianGrid


def _norm_squared(grid: Grid, psi: np.ndarray) -> float:
    """int |psi|^2 d^3x on a radial grid (4 pi r^2 measure), or int |psi|^2 dx in 1-D."""
    density = np.abs(psi) ** 2
    if grid.kind == "radial":
        u2 = 4.0 * math.pi * grid.r**2 * density
        # the [0, r_1] sliver integrates r^2*|psi|^2 ~ 0 at the origin
        return float(np.trapezoid(np.concatenate(([0.0], u2)), np.concatenate(([0.0], grid.r))))
    return float(np.trapezoid(density, grid.x))


@dataclass(frozen=True)
class WaveState:
    """A normalized wavefunction on a grid, with mass and coupling metadata.

    ``psi`` holds the full wavefunction value (no spherical-harmonic factor);
    on radial grids the norm is int 4 pi r^2 |psi|^2 dr = 1.
    ``external_potential`` is sampled on the grid in joules (None means free).
    """

    grid: Grid
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
        if self.self_coupling and self.grid.kind != "radial":
            raise GridError("self-interaction kernels require a radial grid")
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

    @property
    def kappa_total(self) -> float:
        return sum(term.strength for term in self.self_coupling)

    @staticmethod
    def normalized(grid: Grid, psi: np.ndarray, mass: float,
                   self_coupling: Sequence[KernelTerm] = (),
                   external_potential: np.ndarray | None = None) -> "WaveState":
        psi = np.asarray(psi, dtype=complex)
        n2 = _norm_squared(grid, psi)
        if not n2 > 0.0:
            raise NormalizationError("cannot normalize a zero wavefunction")
        return WaveState(grid, psi / math.sqrt(n2), mass, tuple(self_coupling),
                         external_potential)

    @staticmethod
    def gaussian_packet(grid: Grid, sigma: float, mass: float,
                        self_coupling: Sequence[KernelTerm] = (),
                        external_potential: np.ndarray | None = None,
                        center: float = 0.0) -> "WaveState":
        """Packet whose position density has standard deviation sigma per axis."""
        coord = grid.r if grid.kind == "radial" else grid.x
        psi = np.exp(-((coord - center) ** 2) / (4.0 * sigma**2)).astype(complex)
        return WaveState.normalized(grid, psi, mass, self_coupling, external_potential)


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


def self_potential(state: WaveState) -> np.ndarray:
    """Total self-interaction potential sum_k kappa_k S(r) on the grid, in joules."""
    norm = state.norm()
    if abs(norm - 1.0) > NORM_TOL:
        raise NormalizationError(f"self_potential needs a normalized state (norm={norm!r})")
    if state.grid.kind != "radial":
        raise GridError("self_potential is defined on radial grids")
    kappa = state.kappa_total
    if kappa == 0.0:
        return np.zeros(state.grid.n)
    weight = 4.0 * math.pi * state.grid.r**2 * np.abs(state.psi) ** 2
    return kappa * kernel_integral(state.grid.r, weight)


def validate_grid_resolution(grid: Grid, mass: float,
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


def validate_tail(grid: RadialGrid, psi: np.ndarray, threshold: float = 1e-8) -> None:
    """The domain is certified a posteriori: |psi(r_max)| must be negligible."""
    peak = float(np.max(np.abs(psi)))
    edge = float(np.abs(psi[-1]))
    if edge > threshold * peak:
        raise GridError(
            f"|psi(r_max)| / max|psi| = {edge / peak:.3e} exceeds {threshold:.0e}; "
            "extend r_max"
        )


def load_state_csv(path, mass: float, self_coupling: Sequence[KernelTerm] = (),
                   external_potential: np.ndarray | None = None) -> WaveState:
    """Read (r, Re psi, Im psi) columns into a normalized radial WaveState."""
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if data.shape[1] < 3:
        raise ValueError(f"{path}: expected three columns (r, Re psi, Im psi)")
    grid = RadialGrid(data[:, 0])
    return WaveState.normalized(grid, data[:, 1] + 1j * data[:, 2], mass,
                                self_coupling, external_potential)
