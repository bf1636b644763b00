"""Self-bound stationary states of an attractive kernel.

Both routes need a negative net coupling (a zero or repulsive kernel binds no
state).  They are independent and cross-checked against each other:

* ``method="scf"``: self-consistent field iteration: solve the linear
  tridiagonal eigenproblem in a frozen potential, rebuild the kernel potential
  from the resulting density, Anderson-mix it with the last few iterates
  (Walker & Ni, SIAM J. Numer. Anal. 49, 1715 (2011)), repeat until the
  potential reproduces itself.  The first iterate's eigenpair comes from
  bisection and inverse iteration; each later one from Rayleigh-quotient
  iteration warm-started at the last profile, one tridiagonal solve a step,
  with the full eigensolve as fallback unless it lands on k nodes, and at
  every iterate once the residual stalls.  ``hydrogen.py`` runs the same core.
* ``method="shooting"``: integrate the coupled ODE pair (radial wave equation
  plus the radial equation for the kernel potential) outward by a plain RK4
  and bisect on the eigenvalue until the solution has the requested node
  count and decays.  The upper bracket is the first of 1, 2, 4, ... whose
  solution has too many nodes, all candidates tried in one batch.  Each trial
  eigenvalue is integrated only until its node count is decided: at its
  (k+1)-th crossing, when |u| reaches the 1e30 clamp, or, outside the
  recorded last scan, once it is past its classical turning point (P > eps)
  with |u| moving away from zero (u u' > 0).  That verdict is final:
  f = q - x q' has f(0) = 0 and f' = -x q'' = 4 pi u^2 >= 0, so P = -q/x,
  whose slope is f/x^2, never falls; P - eps stays positive, u'' = 2(P - eps)u
  has the sign of u, and |u| grows with no further crossing.  The recorded
  last scan keeps the clamp and x_max stop, so its (u, q') history is the
  full one.  The profile is the lower bracket's column of that scan; past the
  valley where it turns to diverge it continues as the decaying Whittaker
  solution of the far-field Coulomb-like equation.
  The scaling symmetry (psi, Phi, E) -> (l^2 psi(l x), l^2 Phi(l x), l^2 E)
  converts the arbitrary-amplitude solution into the unit-norm one.
  Each state is solved at RK4 steps h = 0.016 and 2h, bisected in one
  lockstep batch: each column keeps its own x, step and step count, so each
  solve keeps the bits it has alone, and the 2h columns ride along with the
  h ones at no extra cost per step.  eps_h + (eps_h - eps_2h)/15 cancels the
  h^4 error (Richardson, Phil. Trans. R. Soc. A 210, 307 (1911)) and the
  profile is the h solve's.  |eps_h - eps_2h|/15 is the error bar of eps_h;
  it overstates the error of the combined value: 9.4e-8 relative for the
  ground state, against 4.0e-10 from this integrator's h -> 0 limit
  -0.16276920783267 and 4.6e-10 from the independent -0.16276920784215 of a
  30-digit series solve.

Everything is solved in dimensionless form: lengths in hbar^2/(m |kappa|)
(the natural kernel length), energies in m kappa^2 / hbar^2, which for the
gravitational coupling reproduces the standard self-gravitating units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .. import np
from ..errors import ConvergenceError
from ..massdist import erf
from ..quantities import CODATA2018, PhysicalConstants, kernel_length
from .state import (
    KernelTerm,
    RadialGrid,
    WaveState,
    dirichlet_kinetic_sum,
    kernel_integral,
    kernel_potential,
    validate_grid_resolution,
    validate_tail,
)

DEFAULT_TOL = 1e-8
MAX_ITER = 500       # cap on SCF iterates per state
RQI_MAX_SOLVES = 6   # cap on the tridiagonal solves of a warm-started eigensolve
RQI_RESIDUAL = 1e-12  # |Hu - sigma u| / (|H| |u|) after which one more solve ends it
STALL_ITER = 10      # SCF iterates without a new lowest residual that end the warm starts
DAMPING = 0.5        # SCF potential mixing fraction
ANDERSON_DEPTH = 5   # SCF iterates whose defect differences the Anderson step combines
SHOOTING_STEP = 0.016   # RK4 step h of the shooting route, solved at h and 2h
SCANS = 8            # batched bisection scans per shooting solve
SCAN_COLUMNS = 33    # trial eigenvalues per scan


@dataclass(frozen=True)
class StationaryState:
    """Eigenpair of the self-consistent problem, labeled by radial node count."""

    state: WaveState
    eigenvalue: float        # J
    node_count: int
    residual: float          # dimensionless self-consistency defect
    method: str = "scf"
    iterations: int | None = None   # SCF iterates; None for shooting
    # J; shooting's |eps_h - eps_2h|/15, the bar of eps_h, which overstates the error of
    # the Richardson-combined ``eigenvalue`` (ground state: 9.4e-8 relative, against
    # 4.0e-10 from the h -> 0 limit and 4.6e-10 from an independent solve); None for SCF
    discretization_error: float | None = None
    full_eigensolves: int | None = None   # SCF: first iterate, fallbacks, iterates after a stall


def count_nodes(u: np.ndarray) -> int:
    """Sign changes of the radial profile, ignoring the tail below 1e-7 of its peak."""
    mag = np.abs(u)
    significant = u[mag > 1e-7 * float(mag.max())]
    return int(np.count_nonzero(significant[:-1] * significant[1:] < 0.0))


# ---------------------------------------------------------------------------
# SCF route
# ---------------------------------------------------------------------------


def _eigensolve(x: np.ndarray, dx: float, potential: np.ndarray, k: int,
                start: np.ndarray | None = None) -> tuple[float, np.ndarray, bool]:
    """Eigenvalue and unit-norm profile of the k-node state of -u''/2 + potential u, and
    whether the full eigensolve ran: without ``start``, or where RQI from it fails."""
    from ._lapack import eigenpair   # here, so that commands without an SN solve never load it

    diag = 1.0 / dx**2 + potential
    off = np.full(x.size - 1, -0.5 / dx**2)
    pair = None if start is None else _rayleigh_iteration(diag, off, start, k)
    eps, u = pair or eigenpair(diag, off, k)
    u = u / math.sqrt(dx * float(np.dot(u, u)))
    first = np.nonzero(np.abs(u) > 0.01 * np.abs(u).max())[0][0]
    if u[first] < 0:
        u = -u
    return eps, u, pair is None


def _rayleigh_iteration(diag: np.ndarray, off: np.ndarray, u: np.ndarray,
                        k: int) -> tuple[float, np.ndarray] | None:
    """The k-node eigenpair of the symmetric tridiagonal (diag, off) by Rayleigh-quotient
    iteration from ``u`` (Parlett, The Symmetric Eigenvalue Problem, ch. 4), or None.
    Each step solves (H - sigma) v = u, sigma the Rayleigh quotient of u; the solve after
    a residual |Hu - sigma u| below ``RQI_RESIDUAL`` |H| |u| ends it.  It fails after
    ``RQI_MAX_SOLVES`` solves, on a singular or overflowing solve, or on a vector without
    k nodes: inverse iteration can slide to a neighbouring state."""
    from ._lapack import gtsv

    bound = RQI_RESIDUAL * float(np.abs(diag).max() + 2.0 * np.abs(off).max())   # >= |H|
    u = u / np.linalg.norm(u)
    for _ in range(RQI_MAX_SOLVES):
        hu = diag * u
        hu[:-1] += off * u[1:]
        hu[1:] += off * u[:-1]
        sigma = float(np.dot(u, hu))
        converged = float(np.linalg.norm(hu - sigma * u)) < bound
        try:
            v = gtsv(off, diag - sigma, off, u.copy())   # it overwrites its right-hand side
        except np.linalg.LinAlgError:   # sigma is an eigenvalue to the last bit
            return None
        scale = float(np.linalg.norm(v))
        if not math.isfinite(scale):
            return None
        v = v / scale
        if converged:   # eps = v'Hv / v'v = sigma + v'u / v'v, as (H - sigma) v = u
            return (sigma + float(np.dot(v, u)) / scale, v) if count_nodes(v) == k else None
        u = v
    return None


def _gaussian_kernel_seed(x: np.ndarray, width: float) -> np.ndarray:
    # kernel integral of a unit-mass Gaussian cloud: erf(x / (sqrt(2) w)) / x
    return erf(x / (math.sqrt(2.0) * width)) / x


def _scf_state(
    x: np.ndarray,
    dx: float,
    well: np.ndarray,
    coupling: float,
    phi: np.ndarray,
    k: int,
    tol: float,
    max_iter: int,
) -> tuple[float, np.ndarray, float, int, int]:
    """Eigenvalue, unit-norm profile, residual, iteration count and full-eigensolve
    count of the k-node state of -u''/2 + (well + phi) u with phi = coupling S[u^2],
    iterated from ``phi``.  Each iterate after the first starts its eigensolve
    from the last one's profile, and keeps its eigenpair where the potential
    did not move by a bit.  After ``STALL_ITER`` iterates without a new lowest
    residual, as near the defect's rounding floor (tol ~1e-12), where warm-started
    profiles are ~2e-11 off in a way that depends on their start, every later
    iterate runs the full eigensolve, whose errors vary less between iterates."""
    history: list[float] = []
    recent: list[tuple[np.ndarray, np.ndarray]] = []   # (phi, defect) of the last iterates
    potential, u, full_solves, warm = None, None, 0, True
    for _ in range(max_iter):
        warm = warm and min(history[-STALL_ITER:], default=0) == min(history, default=0)
        if potential is None or not np.array_equal(well + phi, potential):
            potential = well + phi
            eps, u, full = _eigensolve(x, dx, potential, k, u if warm else None)
            full_solves += full
        phi_new = coupling * kernel_integral(x, u * u)
        defect = phi_new - phi
        residual = float(np.abs(defect).max()) / (float(np.abs(phi_new).max()) + 1e-300)
        history.append(residual)
        if residual < tol:
            return eps, u, residual, len(history), full_solves
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
    k: int | np.ndarray,
    h: float | np.ndarray,
    n_steps: int | np.ndarray,
    record: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """RK4 on u'' = 2(P - eps)u, q'' = -4 pi u^2 / x, P = -q/x, from u(0)=0, u'(0)=1.

    P is the attractive kernel potential gauged to P(0) = 0.  Node count k,
    step h and step count n_steps are given per column or once for all.  All
    eps candidates integrate in lockstep, each at its own x += h, and each
    only until it is decided whether u crosses zero more than k times: at its
    (k+1)-th crossing, or when |u| reaches the clamp value, after which it
    would stay frozen.  Without ``record``, a column is also decided at a step
    end past its classical turning point (P - eps > 0) where |u| moves away
    from zero (u u' > 0): f = q - x q' has f(0) = 0 and f' = 4 pi u^2 >= 0,
    so P, whose slope is f/x^2, never falls, u'' keeps the sign of u and no
    crossing follows.  A recorded batch keeps the clamp and n_steps stop, so
    its histories are the full ones.  Decided columns leave the batch, as do
    columns whose own steps run out; the loop ends when none is left.  No
    column's arithmetic depends on the others, so each history matches a
    full-length integration bit for bit, and so does each verdict.  Returns
    whether each column has more than k crossings and, when ``record`` is
    set, the (u, q') history of every column, shape (2, max(n_steps) + 1, m),
    held after the column leaves at its value there (a clamped column's
    frozen value).
    """
    m = eps.shape[0]
    k, h, n_steps = (np.broadcast_to(v, (m,)) for v in (k, h, n_steps))
    y = np.zeros((4, m))   # rows u, u', q, q'
    y[1] = 1.0
    slope0 = np.zeros((4, m))   # the right-hand side at x = 0, where u'' = q'' = 0
    slope0[0] = 1.0
    # -x, stepped as -x - h, which rounds to -(x + h) bit for bit
    neg_x = np.zeros(m)
    crossings = np.zeros(m, dtype=int)
    above = np.zeros(m, dtype=bool)
    cols = np.arange(m)   # batch index of each live column
    ends = set(np.unique(n_steps).tolist())
    history = np.zeros((2, max(ends) + 1, m)) if record else None
    half_h, sixth_h = 0.5 * h, h / 6.0
    # 0-d arrays, which numpy applies faster than Python floats;
    # 4 pi u^2 / -x is -4 pi u^2 / x bit for bit
    two, zero, four_pi, lo, clamp = map(np.array, (2.0, 0.0, 4.0 * math.pi, -1e30, 1e30))

    def rhs(neg_x: np.ndarray, y: np.ndarray) -> np.ndarray:
        u, up, q, qp = y
        return np.array([up, two * (q / neg_x - eps) * u, qp, four_pi * u * u / neg_x])

    for step in range(max(ends)):
        neg_mid, neg_end = neg_x - half_h, neg_x - h
        k1 = rhs(neg_x, y) if step else slope0
        k2 = rhs(neg_mid, y + half_h * k1)
        k3 = rhs(neg_mid, y + half_h * k2)
        k4 = rhs(neg_end, y + h * k3)
        y_new = y + sixth_h * (k1 + two * k2 + two * k3 + k4)
        neg_x = neg_end

        crossings += y[0] * y_new[0] < zero
        y = np.minimum(np.maximum(y_new, lo), clamp)   # np.clip, minus its call overhead
        if record:
            history[:, step + 1, cols] = y[0::3]
        live = (np.abs(y_new[0]) < clamp) & (crossings <= k)
        if not record:   # past the turning point (P > eps) with |u| growing: no crossing follows
            live &= (y[2] / neg_x <= eps) | (y[0] * y[1] <= zero)
        if step + 1 in ends:
            live &= n_steps > step + 1
        if np.count_nonzero(live) < live.size:
            gone = cols[~live]
            above[gone] = crossings[~live] > k[~live]
            if record:
                history[:, step + 2:, gone] = history[:, step + 1, gone][:, None]
            y, neg_x, eps, crossings, cols = (
                y[:, live], neg_x[live], eps[live], crossings[live], cols[live])
            k, h, half_h, sixth_h, n_steps = (
                k[live], h[live], half_h[live], sixth_h[live], n_steps[live])
            if cols.size == 0:
                break
    return above, history


def _n_steps(k: int, h: float) -> int:
    """RK4 steps of size h to x_max, far enough out for the k-node state to decay."""
    return int(math.ceil((20.0 + 14.0 * k) / h))


def _columns(problems: Sequence[tuple[int, float]], width: int) -> tuple[np.ndarray, ...]:
    """Per-column k, h and n_steps of a batch of ``width`` columns per (k, h) problem."""
    ks, hs = zip(*problems)
    return tuple(np.repeat(v, width) for v in (ks, hs, [_n_steps(k, h) for k, h in problems]))


def _bracket_from_above(problems: Sequence[tuple[int, float]]) -> list[float]:
    """Upper bracket of the eigenvalue of each (node count k, step h) problem.

    It is the first of eps = 1, 2, 4, ..., 2^79 whose solution crosses zero
    more than k times, the value a loop that doubles eps until one does stops
    at; every candidate of every problem is integrated in one batch.
    """
    candidates = np.ldexp(1.0, np.arange(80))
    above = _integrate_batch(np.tile(candidates, len(problems)),
                             *_columns(problems, candidates.size))[0]
    his = []
    for (k, h), row in zip(problems, above.reshape(len(problems), candidates.size)):
        if not row.any():
            raise ConvergenceError(
                f"could not bracket the {k}-node eigenvalue from above at RK4 step h = {h:g}")
        his.append(float(candidates[np.argmax(row)]))
    return his


def _bisect_eigenvalue(
    problems: Sequence[tuple[int, float]],
) -> list[tuple[float, float, np.ndarray]]:
    """Narrow a bracket around the eigenvalue of each (node count k, step h)
    problem by repeated batched scans, every problem's scan in one batch.

    eps = 0 is a certified lower bracket: q(0) = q'(0) = 0 and q'' <= 0 give
    P >= 0, so for eps <= 0 u'' >= 0 keeps u > 0.  Only the last scan is
    recorded; its lower-bracket column, integrated at exactly the returned
    lo, supplies the returned (u, q') history.  Each problem's (lo, hi,
    history) is bit for bit what it gives when bisected alone.
    """
    brackets = [(0.0, hi) for hi in _bracket_from_above(problems)]
    columns = _columns(problems, SCAN_COLUMNS)
    for scan in range(SCANS):
        eps = np.array([np.linspace(lo, hi, SCAN_COLUMNS) for lo, hi in brackets])
        above, history = _integrate_batch(eps.ravel(), *columns, scan == SCANS - 1)
        above = above.reshape(eps.shape)
        above[:, 0] = False   # endpoints are certified brackets
        above[:, -1] = True
        idx = np.argmax(above, axis=1)
        brackets = [(float(row[i - 1]), float(row[i])) for row, i in zip(eps, idx)]
    return [(lo, hi, history[:, : _n_steps(k, h) + 1, j * SCAN_COLUMNS + i - 1])
            for j, ((k, h), (lo, hi), i) in enumerate(zip(problems, brackets, idx))]


def _whittaker(x: np.ndarray, k: float, kappa: float) -> np.ndarray:
    """W_{k,1/2}(2 kappa x) from five terms of its asymptotic series (DLMF 13.19.3)."""
    z = 2.0 * kappa * x
    term = total = np.ones_like(z)
    for s in range(1, 5):
        term = term * ((s - k) * (s - 1 - k) / s) / -z
        total = total + term
    return np.exp(-0.5 * z) * z**k * total


def _shoot_at_step(x_out: np.ndarray, k: int, h: float,
                   bracket: tuple[float, float, np.ndarray] | None = None,
                   ) -> tuple[float, np.ndarray, float]:
    """Dimensionless eigenvalue, resampled profile and residual for node count k at
    step h, from the ``_bisect_eigenvalue`` result ``bracket`` (bisected here if None)."""
    lo, hi, (us, qps) = bracket or _bisect_eigenvalue([(k, h)])[0]
    xs = np.cumsum(np.r_[0.0, np.full(us.size - 1, h)])   # x += h, as the integrator steps
    # walk back from the divergent end to the valley where decay turned around
    mag = np.abs(us)
    i_trunc = mag.size - 1
    while i_trunc > 1 and mag[i_trunc - 1] <= mag[i_trunc]:
        i_trunc -= 1
    if i_trunc <= 2 or mag[i_trunc] > 1e-2 * mag[:i_trunc].max():
        raise ConvergenceError("shooting solution has no decaying tail; extend x_max")
    xs, us = xs[: i_trunc + 1], us[: i_trunc + 1]

    # scaling symmetry: unit norm via psi -> l^2 psi(l x), E -> l^2 E
    eps_bound = 0.5 * (lo + hi) + float(qps[i_trunc])
    norm = 4.0 * math.pi * float(np.trapezoid(us**2, xs))
    lam = 1.0 / norm
    eps_out = eps_bound / norm**2
    # far out u'' = 2(-norm/x - eps_bound)u, whose decaying solution is
    # W_{norm/kappa,1/2}(2 kappa x); it takes over 5/kappa before the valley,
    # where the growing mode is ~e^-10 of it
    kappa = math.sqrt(-2.0 * eps_bound)
    i_match = int(np.searchsorted(xs, xs[-1] - 5.0 / kappa))
    x_lam = lam * x_out
    u_out = np.interp(x_lam, xs[: i_match + 1], us[: i_match + 1])
    tail = x_lam > xs[i_match]
    u_out[tail] = (us[i_match] / _whittaker(xs[i_match], norm / kappa, kappa)
                   * _whittaker(x_lam[tail], norm / kappa, kappa))
    u_out = lam * u_out

    dx = float(x_out[1] - x_out[0])
    u_out = u_out / math.sqrt(dx * float(np.dot(u_out, u_out)))
    # bracket width and eigenvalue in the same (integration) gauge; the ratio
    # is invariant under the norm rescaling
    residual = (hi - lo) / max(abs(eps_bound), 1e-300)
    return eps_out, u_out, residual


def _shoot_state(x_out: np.ndarray, k: int) -> tuple[float, np.ndarray, float, float]:
    """Eigenvalue Richardson-combined from the solves at h and 2h, the h solve's
    profile, the larger bracket residual and |eps_h - eps_2h| / 15 (dimensionless).
    The two steps are bisected in one batch."""
    steps = (SHOOTING_STEP, 2.0 * SHOOTING_STEP)
    (eps_h, u_out, residual_h), (eps_2h, _, residual_2h) = (
        _shoot_at_step(x_out, k, h, bracket)
        for h, bracket in zip(steps, _bisect_eigenvalue([(k, h) for h in steps])))
    correction = (eps_h - eps_2h) / 15.0
    return eps_h + correction, u_out, max(residual_h, residual_2h), abs(correction)


# ---------------------------------------------------------------------------
# Public driver
# ---------------------------------------------------------------------------


def stationary_states(
    mass: float,
    couplings: Sequence[KernelTerm],
    n_states: int = 1,
    *,
    grid: RadialGrid,
    method: str = "scf",
    constants: PhysicalConstants = CODATA2018,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
) -> list[StationaryState]:
    """First ``n_states`` self-bound states, ordered by node count 0..n_states-1.

    The net coupling must be negative: a zero or repulsive kernel binds no
    state.  Each state is self-consistent with its own density (the kernel
    potential is rebuilt from the state it binds), resolved by the grid and
    negligible at r_max.
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if method not in ("scf", "shooting"):
        raise ValueError(f"unknown method {method!r}")
    couplings = tuple(couplings)
    kappa = sum(term.strength for term in couplings)
    if kappa >= 0.0:
        raise ValueError("a zero or repulsive net coupling binds no state")
    validate_grid_resolution(grid, mass, couplings, constants)

    length = kernel_length(mass, kappa, constants)
    energy = mass * kappa**2 / constants.hbar**2
    x = grid.r / length
    dx = grid.spacing / length

    states: list[StationaryState] = []
    for k in range(n_states):
        iterations = full_eigensolves = error = None
        if method == "scf":
            eps, u, residual, iterations, full_eigensolves = _scf_state(
                x, dx, np.zeros_like(x), -1.0, -_gaussian_kernel_seed(x, 2.0), k, tol, max_iter)
        else:
            eps, u, residual, error = _shoot_state(x, k)
            error *= energy

        nodes = count_nodes(u)
        if nodes != k:
            raise ConvergenceError(
                f"state targeted {k} nodes but converged with {nodes}; refine the grid"
            )
        validate_tail(u / grid.r)

        states.append(StationaryState(WaveState.normalized(grid, u, mass), eps * energy,
                                      nodes, residual, method, iterations, error,
                                      full_eigensolves))

    eigenvalues = [s.eigenvalue for s in states]
    if any(e2 <= e1 for e1, e2 in zip(eigenvalues, eigenvalues[1:])):
        raise ConvergenceError(f"eigenvalues not increasing with node count: {eigenvalues}")
    return states


def rayleigh_quotient(state: WaveState, kappa: float,
                      constants: PhysicalConstants = CODATA2018) -> float:
    """<u|H[Phi[state]]|u> / <u|u> for the discrete radial Hamiltonian, in joules.

    H is the kinetic term plus the kernel potential of net strength kappa
    (J m) that the state's own density sets up.
    """
    u, density = state.u, np.abs(state.u) ** 2
    kin_scale = constants.hbar**2 / (2.0 * state.mass * state.grid.spacing**2)
    kinetic = kin_scale * dirichlet_kinetic_sum(u)
    pot = float(np.sum(kernel_potential(state.grid, u, kappa) * density))
    return (kinetic + pot) / float(np.sum(density))
