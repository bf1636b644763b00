"""Norm-preserving time evolution with a self-refreshing kernel potential.

Each step is a Strang split, second order in dt (Lubich, Math. Comp. 77, 2141
(2008)): half a step of the kernel potential as the phase exp(-i phi dt / 2 hbar),
one Crank-Nicolson step of the kinetic part, then the other half phase.  A phase
leaves |u|^2 as it is, so one kernel potential per step serves the two half
phases that meet between steps and the recorded energy.  The kinetic matrix is
factored once per call with LAPACK ``zgttrf`` (numpy's OpenBLAS, see ``_lapack``)
and each step is a ``zgttrs`` solve; without a kernel the phases are skipped.
``EvolutionResult.final_u`` lets a caller check the last state against the wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import np
from ..errors import NumericalBlowup, StepSizeError
from ..quantities import CODATA2018, PhysicalConstants
from .state import WaveState, dirichlet_kinetic_sum, kernel_potential

MAX_PHASE = 1.0   # rad: the largest rotation of the fastest grid mode per step
STEP_FRACTION = 0.9   # the step a run takes, as a fraction of suggested_dt


@dataclass(frozen=True)
class EvolutionResult:
    """Per-step observables and the amplitude u after the last step.

    ``energy`` is the conserved functional kinetic + (1/2) self-interaction;
    the 1/2 compensates the kernel's double counting.
    """

    times: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    width: np.ndarray
    final_u: np.ndarray


def free_gaussian_width_squared(sigma0: float, mass: float, t: float,
                                constants: PhysicalConstants = CODATA2018) -> float:
    """Closed-form spreading of a free Gaussian packet: per-axis variance at time t."""
    return sigma0**2 * (1.0 + (constants.hbar * t / (2.0 * mass * sigma0**2)) ** 2)


def suggested_dt(state: WaveState, kappa: float,
                 constants: PhysicalConstants = CODATA2018) -> float:
    """Largest dt the stability validator accepts for this state, coupling and grid."""
    e_grid = constants.hbar**2 / (2.0 * state.mass * state.grid.spacing**2)
    e_grid += float(np.max(np.abs(kernel_potential(state.grid, state.u, kappa))))
    return MAX_PHASE * constants.hbar / e_grid


def validate_step_size(state: WaveState, kappa: float, dt: float,
                       constants: PhysicalConstants = CODATA2018) -> None:
    """Reject steps rotating the fastest grid mode by more than MAX_PHASE rad.

    Crank-Nicolson is unconditionally stable, so this is an accuracy guard:
    phase errors grow as (E dt / hbar)^3 per step.
    """
    if not dt > 0.0:
        raise StepSizeError(f"dt must be positive, got {dt}")
    dt_max = suggested_dt(state, kappa, constants)
    if dt > dt_max:
        raise StepSizeError(
            f"dt = {dt:.3e} s exceeds the accuracy bound {dt_max:.3e} s for this grid"
        )


def evolve(
    state: WaveState,
    dt: float,
    n_steps: int,
    *,
    kappa: float,
    constants: PhysicalConstants = CODATA2018,
    record_every: int = 1,
) -> EvolutionResult:
    """Advance the state n_steps of size dt under the kernel of net strength
    kappa (J m; 0 for a free packet), recording norm/energy/width.

    Each half phase uses the potential of the density it acts on, so a
    stationary input state (whose density does not move) sees an effectively
    frozen Hamiltonian, and the bits of ``final_u`` do not depend on ``record_every``.
    """
    from ._lapack import gttrf, gttrs   # here, as in ``_eigensolve``

    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    validate_step_size(state, kappa, dt, constants)

    grid, u = state.grid, state.u
    dx = grid.spacing

    hbar = constants.hbar
    kin = hbar**2 / (2.0 * state.mass * dx**2)
    lam = 1j * dt / (2.0 * hbar)
    lam_diag = lam * (2.0 * kin)
    lam_off = lam * np.full(u.size - 1, -kin)
    factors = gttrf(lam_off, np.full(u.size, 1.0 + lam_diag), lam_off)

    def kinetic_step(u_in: np.ndarray) -> np.ndarray:
        rhs = (1.0 - lam_diag) * u_in
        rhs[:-1] -= lam_off * u_in[1:]
        rhs[1:] -= lam_off * u_in[:-1]
        return gttrs(factors, rhs)

    def observables(u_now: np.ndarray, phi_now: np.ndarray) -> tuple[float, float, float]:
        dens = np.abs(u_now) ** 2
        norm = dx * float(np.sum(dens))
        kinetic = kin * dx * dirichlet_kinetic_sum(u_now)
        potential = dx * float(np.sum(0.5 * phi_now * dens))
        second = dx * float(np.sum(grid.r**2 * dens))
        return norm, (kinetic + potential) / norm, math.sqrt(second / norm)

    n_records = n_steps // record_every + 2   # initial point + possibly ragged end
    times = np.empty(n_records)
    norms = np.empty(n_records)
    energies = np.empty(n_records)
    widths = np.empty(n_records)

    half_angle = -0.5j * dt / hbar
    phi = kernel_potential(grid, u, kappa)
    phase = np.exp(half_angle * phi)
    times[0], (norms[0], energies[0], widths[0]) = 0.0, observables(u, phi)
    rec = 1
    for step in range(1, n_steps + 1):
        if kappa != 0.0:
            u = kinetic_step(u * phase)
            phi = kernel_potential(grid, u, kappa)
            phase = np.exp(half_angle * phi)
            u *= phase
        else:
            u = kinetic_step(u)
        if not np.all(np.isfinite(u.view(float))):
            raise NumericalBlowup(f"non-finite amplitudes after step {step}", step)
        if step % record_every == 0 or step == n_steps:
            times[rec] = step * dt
            norms[rec], energies[rec], widths[rec] = observables(u, phi)
            rec += 1

    return EvolutionResult(times[:rec], norms[:rec], energies[:rec], widths[:rec], u)
