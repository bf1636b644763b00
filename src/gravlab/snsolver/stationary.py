"""Stationary states of the self-coupled radial eigenproblem.

Two independent routes are provided and cross-checked against each other:

* ``method="scf"``: self-consistent field iteration: solve the linear
  tridiagonal eigenproblem in a frozen potential, rebuild the kernel potential
  from the resulting density, Anderson-mix it with the last few iterates
  (Walker & Ni, SIAM J. Numer. Anal. 49, 1715 (2011)), repeat until the
  potential reproduces itself.
* ``method="shooting"``: integrate the coupled ODE pair (radial wave equation
  plus the radial equation for the kernel potential) outward and bisect on the
  eigenvalue until the solution has the requested node count and decays.  Each
  trial eigenvalue is integrated only until its node count is decided, and the
  profile is the lower bracket's column of the last bisection scan.  For
  a kernel coupling the scaling symmetry (psi, Phi, E) -> (l^2 psi(l x),
  l^2 Phi(l x), l^2 E) converts the arbitrary-amplitude solution into the
  unit-norm one.  A kernel together with an external potential breaks that
  symmetry and is solved by SCF only.

Everything is solved in dimensionless form: lengths in hbar^2/(m |kappa|)
(the natural kernel length), energies in m kappa^2 / hbar^2, which for the
gravitational coupling reproduces the standard self-gravitating units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ConvergenceError
from ..quantities import CODATA2018, PhysicalConstants, kernel_length
from .state import (
    KernelTerm,
    RadialGrid,
    WaveState,
    dirichlet_kinetic_sum,
    kernel_integral,
    self_potential,
    validate_grid_resolution,
    validate_tail,
)

DEFAULT_TOL = 1e-8
DAMPING = 0.5        # SCF potential mixing fraction
ANDERSON_DEPTH = 5   # SCF iterates whose defect differences the Anderson step combines


@dataclass(frozen=True)
class StationaryState:
    """Eigenpair of the self-consistent problem, labeled by radial node count."""

    state: WaveState
    eigenvalue: float        # J
    node_count: int
    residual: float          # dimensionless self-consistency defect
    method: str = "scf"
    iterations: int | None = None   # SCF eigensolves; None for shooting


def count_nodes(u: np.ndarray) -> int:
    """Sign changes of the radial profile, ignoring the tail below 1e-7 of its peak."""
    mag = np.abs(u)
    significant = u[mag > 1e-7 * float(mag.max())]
    return int(np.count_nonzero(significant[:-1] * significant[1:] < 0.0))


# ---------------------------------------------------------------------------
# Problem scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Scales:
    length: float   # m per dimensionless unit
    energy: float   # J per dimensionless unit
    kappa_sign: float  # -1, 0, or +1


def _make_scales(mass: float, kappa: float, grid: RadialGrid,
                 constants: PhysicalConstants) -> _Scales:
    if kappa != 0.0:
        length = kernel_length(mass, kappa, constants)
        energy = mass * kappa**2 / constants.hbar**2
        return _Scales(length, energy, math.copysign(1.0, kappa))
    # no kernel: any scale works; tie it to the grid for conditioning
    length = grid.r_max / 10.0
    energy = constants.hbar**2 / (mass * length**2)
    return _Scales(length, energy, 0.0)


# ---------------------------------------------------------------------------
# SCF route
# ---------------------------------------------------------------------------


def _eigensolve(x: np.ndarray, dx: float, potential: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    from scipy.linalg import eigh_tridiagonal

    diag = 1.0 / dx**2 + potential
    off = np.full(x.size - 1, -0.5 / dx**2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(k, k))
    u = vecs[:, 0]
    u = u / math.sqrt(dx * float(np.dot(u, u)))
    first = np.nonzero(np.abs(u) > 0.01 * np.abs(u).max())[0][0]
    if u[first] < 0:
        u = -u
    return float(vals[0]), u


def _gaussian_kernel_seed(x: np.ndarray, width: float) -> np.ndarray:
    # kernel integral of a unit-mass Gaussian cloud: erf(x / (sqrt(2) w)) / x
    from scipy.special import erf

    return erf(x / (math.sqrt(2.0) * width)) / x


def _scf_state(
    x: np.ndarray,
    dx: float,
    vext: np.ndarray | None,
    kappa_sign: float,
    k: int,
    tol: float,
    max_iter: int,
) -> tuple[float, np.ndarray, float, int]:
    vt = np.zeros_like(x) if vext is None else vext
    # without a kernel (kappa_sign 0) phi stays 0 and the first eigensolve has residual 0
    phi = kappa_sign * _gaussian_kernel_seed(x, 2.0) if vext is None else np.zeros_like(x)
    history: list[float] = []
    recent: list[tuple[np.ndarray, np.ndarray]] = []   # (phi, defect) of the last iterates
    for _ in range(max_iter):
        eps, u = _eigensolve(x, dx, vt + phi, k)
        phi_new = kappa_sign * kernel_integral(x, u * u)
        defect = phi_new - phi
        residual = float(np.abs(defect).max()) / (float(np.abs(phi_new).max()) + 1e-300)
        history.append(residual)
        if residual < tol:
            return eps, u, residual, len(history)
        recent = recent[-ANDERSON_DEPTH:] + [(phi, defect)]
        phi = phi + DAMPING * defect
        if len(recent) > 1:
            d_phi, d_defect = np.diff(recent, axis=0).transpose(1, 2, 0)
            gamma = np.linalg.lstsq(d_defect, defect, rcond=None)[0]
            phi = phi - (d_phi + DAMPING * d_defect) @ gamma
    raise ConvergenceError(
        f"SCF did not reach residual {tol:g} in {max_iter} iterations "
        f"(last residual {history[-1]:.3e})",
        residual_history=history,
    )


# ---------------------------------------------------------------------------
# Shooting route
# ---------------------------------------------------------------------------


def _integrate_batch(
    eps: np.ndarray,
    k: int,
    h: float,
    n_steps: int,
    kappa_sign: float,
    vfun: Callable[[float], float] | None,
    record: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """RK4 on u'' = 2(P + V - eps)u, (x S)'' = -4 pi u^2 / x, from u(0)=0, u'(0)=1.

    All eps candidates integrate in lockstep, each only until it is decided
    whether u crosses zero more than k times: at its (k+1)-th crossing, or
    when |u| reaches the clamp value, after which it would stay frozen.
    Decided columns leave the batch; the loop ends when none is left.  No
    column's arithmetic depends on the others, so each result matches a
    full-length integration bit for bit.  Returns whether each column has
    more than k crossings and, when ``record`` is set, the (u, q') history of
    every column, shape (2, n_steps + 1, m), held after the decision step at
    its value there (a clamped column's frozen value).
    """
    m = eps.shape[0]
    y = np.zeros((4, m))   # rows u, u', q, q' with q = x * (gauged kernel potential) / kappa_sign
    y[1] = 1.0
    crossings = np.zeros(m, dtype=int)
    above = np.zeros(m, dtype=bool)
    cols = np.arange(m)   # batch index of each live column
    clamp = 1e30
    has_kernel = kappa_sign != 0.0
    history = np.zeros((2, n_steps + 1, m)) if record else None

    def rhs(x: float, y: np.ndarray) -> np.ndarray:
        u, up, q, qp = y
        if x == 0.0:
            return np.array([up, np.zeros_like(u), qp, np.zeros_like(u)])
        # kappa_sign is +-1, so this rounds exactly like (kappa_sign * q) / x
        pot = q / (kappa_sign * x) if has_kernel else 0.0
        if vfun is not None:
            pot = pot + vfun(x)
        dqp = (-4.0 * math.pi) * u * u / x if has_kernel else np.zeros_like(u)
        return np.array([up, 2.0 * (pot - eps) * u, qp, dqp])

    x = 0.0
    for step in range(n_steps):
        k1 = rhs(x, y)
        k2 = rhs(x + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(x + h, y + h * k3)
        y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x += h

        crossings += y[0] * y_new[0] < 0.0
        y = np.minimum(np.maximum(y_new, -clamp), clamp)   # np.clip, minus its call overhead
        if record:
            history[:, step + 1, cols] = y[0::3]
        live = (np.abs(y_new[0]) < clamp) & (crossings <= k)
        if not live.all():
            gone = cols[~live]
            above[gone] = crossings[~live] > k
            if record:
                history[:, step + 2:, gone] = history[:, step + 1, gone][:, None]
            y, eps, crossings, cols = y[:, live], eps[live], crossings[live], cols[live]
            if cols.size == 0:
                break
    return above, history


def _bisect_eigenvalue(
    integrate: Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray | None]],
    k: int,
    lo: float,
    hi: float,
    stages: int = 8,
    batch: int = 33,
) -> tuple[float, float, np.ndarray]:
    """Narrow [lo, hi] around the k-node eigenvalue by repeated batched scans.

    ``integrate(eps, record)`` tells which eps have more than k crossings.
    Only the last scan is recorded; its lower-bracket column, integrated at
    exactly the returned lo, supplies the returned (u, q') history.
    """

    def too_high(e: float) -> bool:
        return bool(integrate(np.array([e]), False)[0][0])

    span = max(hi - lo, 1.0)
    for _ in range(80):
        if not too_high(lo):
            break
        lo -= span
        span *= 2.0
    else:
        raise ConvergenceError("could not bracket the eigenvalue from below")
    span = max(hi - lo, 1.0)
    for _ in range(80):
        if too_high(hi):
            break
        hi += span
        span *= 2.0
    else:
        raise ConvergenceError("could not bracket the eigenvalue from above")

    for stage in range(stages):
        eps = np.linspace(lo, hi, batch)
        above, history = integrate(eps, stage == stages - 1)
        above[0] = False   # endpoints are certified brackets
        above[-1] = True
        idx = int(np.argmax(above))
        lo, hi = float(eps[idx - 1]), float(eps[idx])
    return lo, hi, history[:, :, idx - 1]


def _shoot_state(
    x_out: np.ndarray,
    vfun: Callable[[float], float] | None,
    kappa_sign: float,
    k: int,
    h: float = 0.004,
) -> tuple[float, np.ndarray, float]:
    """Dimensionless eigenvalue and resampled profile for node count k.

    Takes a kernel (``kappa_sign`` != 0) or an external potential ``vfun``,
    not both.
    """
    has_kernel = kappa_sign != 0.0
    if has_kernel:
        x_max = 20.0 + 14.0 * k
    else:
        x_max = float(x_out[-1]) + (x_out[1] - x_out[0])
    n_steps = int(math.ceil(x_max / h))

    def integrate(eps: np.ndarray, record: bool):
        return _integrate_batch(eps, k, h, n_steps, kappa_sign, vfun, record)

    v_floor = 0.0
    if vfun is not None:
        v_floor = min(float(vfun(x)) for x in np.linspace(h, x_max, 64))
    lo = min(0.0, 1.05 * v_floor)
    lo, hi, (us, qps) = _bisect_eigenvalue(integrate, k, lo, max(1.0, abs(lo)))
    xs = np.cumsum(np.r_[0.0, np.full(n_steps, h)])   # x += h, as the integrator steps
    # walk back from the divergent end to the valley where decay turned around
    mag = np.abs(us)
    i_trunc = mag.size - 1
    while i_trunc > 1 and mag[i_trunc - 1] <= mag[i_trunc]:
        i_trunc -= 1
    if i_trunc <= 2 or mag[i_trunc] > 1e-2 * mag[:i_trunc].max():
        raise ConvergenceError("shooting solution has no decaying tail; extend x_max")
    xs, us = xs[: i_trunc + 1], us[: i_trunc + 1]

    eps_bound = 0.5 * (lo + hi)
    if has_kernel:
        # scaling symmetry: unit norm via psi -> l^2 psi(l x), E -> l^2 E
        eps_bound -= kappa_sign * float(qps[i_trunc])
        norm = 4.0 * math.pi * float(np.trapezoid(us**2, xs))
        lam = 1.0 / norm
        eps_out = eps_bound / norm**2
        u_out = lam * np.interp(lam * x_out, xs, us, right=0.0)
    else:
        eps_out = eps_bound
        u_out = np.interp(x_out, xs, us, right=0.0)

    dx = float(x_out[1] - x_out[0])
    u_out = u_out / math.sqrt(dx * float(np.dot(u_out, u_out)))
    # bracket width and eigenvalue in the same (integration) gauge; the ratio
    # is invariant under the norm rescaling
    residual = (hi - lo) / max(abs(eps_bound), 1e-300)
    return eps_out, u_out, residual


# ---------------------------------------------------------------------------
# Public driver
# ---------------------------------------------------------------------------


def stationary_states(
    mass: float,
    couplings: Sequence[KernelTerm],
    external_potential=None,
    n_states: int = 1,
    *,
    grid: RadialGrid,
    method: str = "scf",
    constants: PhysicalConstants = CODATA2018,
    tol: float = DEFAULT_TOL,
    max_iter: int = 500,
    validate_resolution: bool = True,
    validate_domain: bool = True,
) -> list[StationaryState]:
    """First ``n_states`` stationary states, ordered by node count 0..n_states-1.

    ``external_potential`` may be None, a callable V(r_meters) -> J, or an
    array sampled on the grid.  Each state is self-consistent with its own
    density (the kernel potential is rebuilt from the state it binds).
    Shooting interpolates an array potential linearly and clamps it below the
    first grid point, so pass a potential that is singular at r = 0 as a
    callable.  A kernel plus an external potential needs ``method="scf"``.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if method not in ("scf", "shooting"):
        raise ValueError(f"unknown method {method!r}")
    couplings = tuple(couplings)
    kappa = sum(term.strength for term in couplings)
    if method == "shooting" and kappa != 0.0 and external_potential is not None:
        raise ValueError("shooting takes a kernel or an external potential, not both; "
                         "use method='scf'")
    if validate_resolution:
        validate_grid_resolution(grid, mass, couplings, constants)

    scales = _make_scales(mass, kappa, grid, constants)
    x = grid.r / scales.length
    dx = grid.spacing / scales.length
    vext_grid = vfun = None
    if callable(external_potential):
        vext_grid = np.asarray(external_potential(grid.r), dtype=float) / scales.energy
        vfun = lambda xx: float(external_potential(xx * scales.length)) / scales.energy
    elif external_potential is not None:
        varr = np.asarray(external_potential, dtype=float)
        if varr.shape != grid.r.shape:
            raise ValueError("external_potential array must match the grid")
        vext_grid = varr / scales.energy
        vfun = lambda xx: float(np.interp(xx, x, vext_grid))

    states: list[StationaryState] = []
    for k in range(n_states):
        iterations = None
        if method == "scf":
            eps, u, residual, iterations = _scf_state(x, dx, vext_grid, scales.kappa_sign, k,
                                                      tol, max_iter)
        else:
            eps, u, residual = _shoot_state(x, vfun, scales.kappa_sign, k)

        nodes = count_nodes(u)
        if nodes != k:
            raise ConvergenceError(
                f"state targeted {k} nodes but converged with {nodes}; refine the grid"
            )
        if validate_domain:
            validate_tail(u / grid.r)

        ext_arr = None if vext_grid is None else vext_grid * scales.energy
        wave = WaveState.from_amplitude(grid, u, mass, couplings, ext_arr)
        states.append(StationaryState(wave, eps * scales.energy, nodes, residual, method,
                                      iterations))

    eigenvalues = [s.eigenvalue for s in states]
    if any(e2 <= e1 for e1, e2 in zip(eigenvalues, eigenvalues[1:])):
        raise ConvergenceError(f"eigenvalues not increasing with node count: {eigenvalues}")
    return states


def rayleigh_quotient(state: WaveState, constants: PhysicalConstants = CODATA2018) -> float:
    """<u|H[Phi[state]]|u> / <u|u> for the discrete radial Hamiltonian, in joules."""
    u = state.amplitude()
    potential = self_potential(state)
    if state.external_potential is not None:
        potential = potential + state.external_potential
    kin_scale = constants.hbar**2 / (2.0 * state.mass * state.grid.spacing**2)
    kinetic = kin_scale * dirichlet_kinetic_sum(u)
    pot = float(np.sum(potential * np.abs(u) ** 2))
    norm = float(np.sum(np.abs(u) ** 2))
    return (kinetic + pot) / norm
