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
from .state import WaveState, dirichlet_kinetic_sum, kernel_potential, self_potential

MAX_PHASE = 1.0   # rad: the largest rotation of the fastest grid mode per step


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


def suggested_dt(state: WaveState, constants: PhysicalConstants = CODATA2018) -> float:
    """Largest dt the stability validator accepts for this state and grid."""
    e_grid = constants.hbar**2 / (2.0 * state.mass * state.grid.spacing**2)
    if state.external_potential is not None:
        e_grid += float(np.max(np.abs(state.external_potential)))
    e_grid += float(np.max(np.abs(self_potential(state))))
    return MAX_PHASE * constants.hbar / e_grid


def validate_step_size(state: WaveState, dt: float,
                       constants: PhysicalConstants = CODATA2018) -> None:
    """Reject steps rotating the fastest grid mode by more than MAX_PHASE rad.

    Crank-Nicolson is unconditionally stable, so this is an accuracy guard:
    phase errors grow as (E dt / hbar)^3 per step.
    """
    if not dt > 0.0:
        raise StepSizeError(f"dt must be positive, got {dt}")
    dt_max = suggested_dt(state, constants)
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
) -> EvolutionResult:
    """Advance the state n_steps of size dt, recording norm/energy/width.

    The potential used inside each step is the midpoint average of the kernel
    potential before and after a predictor step, so a stationary input state
    (whose density does not move) sees an effectively frozen Hamiltonian.
    """
    from scipy.linalg import solve_banded

    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    validate_step_size(state, dt, constants)

    grid = state.grid
    u = state.amplitude()
    dx = grid.spacing
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
        kinetic = kin * dx * dirichlet_kinetic_sum(u_now)
        potential = dx * float(np.sum((vext + 0.5 * phi_now) * dens))
        second = dx * float(np.sum(grid.r**2 * dens))
        return norm, (kinetic + potential) / norm, math.sqrt(second / norm)

    n_records = n_steps // record_every + 2   # initial point + possibly ragged end
    times = np.empty(n_records)
    norms = np.empty(n_records)
    energies = np.empty(n_records)
    widths = np.empty(n_records)

    phi = kernel_potential(grid, u, kappa)
    times[0], (norms[0], energies[0], widths[0]) = 0.0, observables(u, phi)
    rec = 1
    for step in range(1, n_steps + 1):
        if kappa != 0.0:
            u_pred = cn_solve(u, vext + phi)
            phi_mid = 0.5 * (phi + kernel_potential(grid, u_pred, kappa))
            u = cn_solve(u, vext + phi_mid)
            phi = kernel_potential(grid, u, kappa)
        else:
            u = cn_solve(u, vext)
        if not np.all(np.isfinite(u.view(float))):
            raise NumericalBlowup(f"non-finite amplitudes after step {step}", step)
        if step % record_every == 0 or step == n_steps:
            times[rec] = step * dt
            norms[rec], energies[rec], widths[rec] = observables(u, phi)
            rec += 1

    psi = u / (np.sqrt(4.0 * math.pi) * grid.r)
    final = WaveState.normalized(grid, psi, state.mass, state.self_coupling,
                                 state.external_potential)
    return EvolutionResult(times[:rec], norms[:rec], energies[:rec], widths[:rec],
                           final, dt, n_steps)
