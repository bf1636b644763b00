"""Norm-preserving time evolution with a self-refreshing kernel potential.

Each step is a Crank-Nicolson solve (exactly unitary for the frozen midpoint
Hamiltonian); the kernel potential is refreshed with one predictor-corrector
pass per step, which keeps the scheme second order in dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalBlowup, StepSizeError
from ..quantities import CODATA2018, PhysicalConstants
from .state import Grid, WaveState, kernel_integral


@dataclass(frozen=True)
class EvolutionResult:
    """Per-step observables plus the final state.

    ``energy`` is the conserved functional kinetic + (1/2) self-interaction +
    external; the 1/2 compensates the kernel's double counting.
    """

    times: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    width: np.ndarray
    final_state: WaveState
    dt: float
    n_steps: int


def free_gaussian_width_squared(sigma0: float, mass: float, t: float,
                                constants: PhysicalConstants = CODATA2018) -> float:
    """Closed-form spreading of a free Gaussian packet: per-axis variance at time t."""
    return sigma0**2 * (1.0 + (constants.hbar * t / (2.0 * mass * sigma0**2)) ** 2)


def _amplitude(state: WaveState) -> tuple[np.ndarray, np.ndarray, float]:
    """The evolved amplitude: u = sqrt(4 pi) r psi on radial grids, psi itself in 1-D."""
    grid = state.grid
    if grid.kind == "radial":
        return np.sqrt(4.0 * math.pi) * grid.r * state.psi, grid.r, grid.spacing
    return state.psi.copy(), grid.x, grid.spacing


def _kernel_potential(state_grid: Grid, u: np.ndarray, kappa: float, dx: float) -> np.ndarray:
    """Self-interaction potential of amplitude u (J); zero without couplings."""
    if kappa == 0.0 or state_grid.kind != "radial":
        return np.zeros(u.size)
    weight = np.abs(u) ** 2
    norm = dx * float(np.sum(weight))
    return kappa * kernel_integral(state_grid.r, weight / norm)


def suggested_dt(state: WaveState, constants: PhysicalConstants = CODATA2018,
                 max_phase: float = 1.0) -> float:
    """Largest dt the stability validator accepts for this state and grid."""
    e_grid = constants.hbar**2 / (2.0 * state.mass * state.grid.spacing**2)
    if state.external_potential is not None:
        e_grid += float(np.max(np.abs(state.external_potential)))
    u, _, dx = _amplitude(state)
    e_grid += float(np.max(np.abs(_kernel_potential(state.grid, u, state.kappa_total, dx))))
    return max_phase * constants.hbar / e_grid


def validate_step_size(state: WaveState, dt: float,
                       constants: PhysicalConstants = CODATA2018,
                       max_phase: float = 1.0) -> None:
    """Reject steps rotating the fastest grid mode by more than ``max_phase`` rad.

    Crank-Nicolson is unconditionally stable, so this is an accuracy guard:
    phase errors grow as (E dt / hbar)^3 per step.
    """
    if not dt > 0.0:
        raise StepSizeError(f"dt must be positive, got {dt}")
    dt_max = suggested_dt(state, constants, max_phase)
    if dt > dt_max:
        raise StepSizeError(
            f"dt = {dt:.3e} s exceeds the accuracy bound {dt_max:.3e} s for this grid"
        )


def evolve(
    state: WaveState,
    dt: float,
    n_steps: int,
    *,
    constants: PhysicalConstants = CODATA2018,
    record_every: int = 1,
    max_phase: float = 1.0,
) -> EvolutionResult:
    """Advance the state n_steps of size dt, recording norm/energy/width.

    The potential used inside each step is the midpoint average of the kernel
    potential before and after a predictor step, so a stationary input state
    (whose density does not move) sees an effectively frozen Hamiltonian.
    """
    from scipy.linalg import solve_banded

    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    validate_step_size(state, dt, constants, max_phase)

    grid = state.grid
    u, coord, dx = _amplitude(state)
    kappa = state.kappa_total
    vext = state.external_potential
    if vext is None:
        vext = np.zeros(u.size)

    hbar = constants.hbar
    kin = hbar**2 / (2.0 * state.mass * dx**2)
    lam = 1j * dt / (2.0 * hbar)
    n = u.size
    off = np.full(n - 1, -kin)

    def cn_solve(u_in: np.ndarray, potential: np.ndarray) -> np.ndarray:
        diag = 2.0 * kin + potential
        rhs = (1.0 - lam * diag) * u_in
        rhs[:-1] -= lam * off * u_in[1:]
        rhs[1:] -= lam * off * u_in[:-1]
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = lam * off
        ab[1, :] = 1.0 + lam * diag
        ab[2, :-1] = lam * off
        return solve_banded((1, 1), ab, rhs)

    def observables(u_now: np.ndarray, phi_now: np.ndarray) -> tuple[float, float, float]:
        dens = np.abs(u_now) ** 2
        norm = dx * float(np.sum(dens))
        edges = np.concatenate(([u_now[0]], np.diff(u_now), [-u_now[-1]]))
        kinetic = kin * dx * float(np.sum(np.abs(edges) ** 2))
        potential = dx * float(np.sum((vext + 0.5 * phi_now) * dens))
        if grid.kind == "radial":
            second = dx * float(np.sum(coord**2 * dens))
        else:
            mean = dx * float(np.sum(coord * dens)) / norm
            second = dx * float(np.sum((coord - mean) ** 2 * dens))
        return norm, (kinetic + potential) / norm, math.sqrt(second / norm)

    n_records = n_steps // record_every + 2   # initial point + possibly ragged end
    times = np.empty(n_records)
    norms = np.empty(n_records)
    energies = np.empty(n_records)
    widths = np.empty(n_records)

    phi = _kernel_potential(grid, u, kappa, dx)
    times[0], (norms[0], energies[0], widths[0]) = 0.0, observables(u, phi)
    rec = 1
    for step in range(1, n_steps + 1):
        if kappa != 0.0:
            u_pred = cn_solve(u, vext + phi)
            phi_mid = 0.5 * (phi + _kernel_potential(grid, u_pred, kappa, dx))
            u = cn_solve(u, vext + phi_mid)
            phi = _kernel_potential(grid, u, kappa, dx)
        else:
            u = cn_solve(u, vext)
        if not np.all(np.isfinite(u.view(float))):
            raise NumericalBlowup(f"non-finite amplitudes after step {step}", step)
        if step % record_every == 0 or step == n_steps:
            times[rec] = step * dt
            norms[rec], energies[rec], widths[rec] = observables(u, phi)
            rec += 1

    if grid.kind == "radial":
        psi = u / (np.sqrt(4.0 * math.pi) * grid.r)
    else:
        psi = u
    final = WaveState.normalized(grid, psi, state.mass, state.self_coupling,
                                 state.external_potential)
    return EvolutionResult(times[:rec], norms[:rec], energies[:rec], widths[:rec],
                           final, dt, n_steps)
