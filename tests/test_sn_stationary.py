from __future__ import annotations

import math

import numpy as np
import pytest

from gravlab.errors import ConvergenceError
from gravlab.quantities import CODATA2018, ENERGY_SCALES, EV, kernel_length
from gravlab.snsolver import (
    KernelTerm,
    RadialGrid,
    count_nodes,
    electrostatic_kernel,
    gravitational_kernel,
    hydrogen_diagnostic,
    rayleigh_quotient,
    stationary_states,
)
from gravlab.snsolver import stationary
from gravlab.snsolver.state import kernel_integral
from gravlab.snsolver.stationary import (
    ANDERSON_DEPTH,
    DAMPING,
    DEFAULT_TOL,
    MAX_ITER,
    SCAN_COLUMNS,
    SCANS,
    SHOOTING_STEP,
    _bisect_eigenvalue,
    _bracket_from_above,
    _eigensolve,
    _gaussian_kernel_seed,
    _integrate_batch,
    _n_steps,
    _scf_state,
    _shoot_at_step,
)

C = CODATA2018
MASS = 1e-17  # kg; any value works, the problem is solved in natural units

# ground eigenvalue of the attractive-kernel problem in units G^2 m^5 / hbar^2,
# frozen after SCF and shooting agreed to ~5e-5 (grid-converged -0.1627692)
GROUND_EIGENVALUE = -0.16277


def natural_scales(mass: float = MASS) -> tuple[float, float]:
    return kernel_length(mass, C.G * mass**2, C), ENERGY_SCALES["sn-natural"](mass, C)


def ground_grid(mass: float = MASS, r_max: float = 50.0, n: int = 2000) -> RadialGrid:
    a, _ = natural_scales(mass)
    return RadialGrid.uniform(r_max * a, n)


def test_scf_ground_state_value():
    _, e_scale = natural_scales()
    states = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=1,
                               grid=ground_grid())
    eps = states[0].eigenvalue / e_scale
    assert eps == pytest.approx(GROUND_EIGENVALUE, abs=5e-4)
    assert states[0].node_count == 0
    assert states[0].residual <= 1e-8


def test_scf_and_shooting_agree_for_three_node_counts():
    a, e_scale = natural_scales()
    grid = RadialGrid.uniform(250.0 * a, 8000)
    kernel = [gravitational_kernel(MASS, C)]
    scf = stationary_states(MASS, kernel, n_states=3, grid=grid)
    shoot = stationary_states(MASS, kernel, n_states=3, grid=grid, method="shooting")
    for s1, s2 in zip(scf, shoot):
        assert s1.node_count == s2.node_count
        assert abs(s1.eigenvalue - s2.eigenvalue) / abs(s1.eigenvalue) < 1e-3
    # eigenvalues strictly increase with node count
    values = [s.eigenvalue / e_scale for s in scf]
    assert values[0] < values[1] < values[2] < 0.0
    assert values[0] == pytest.approx(GROUND_EIGENVALUE, abs=5e-4)


def test_anderson_scf_converges_in_few_iterations_to_the_tight_solve():
    a, _ = natural_scales()
    grid = RadialGrid.uniform(250.0 * a, 8000)
    kernel = [gravitational_kernel(MASS, C)]
    states = stationary_states(MASS, kernel, n_states=3, grid=grid)
    tight = stationary_states(MASS, kernel, n_states=3, grid=grid, tol=1e-12)
    for state, reference in zip(states, tight):
        assert state.iterations <= 25
        assert state.residual < 1e-8
        assert state.eigenvalue == pytest.approx(reference.eigenvalue, rel=2e-8, abs=0)


def test_five_node_state():
    # the 5-node state reaches r ~ 350 natural lengths, so r_max = 600
    a, e_scale = natural_scales()
    grid = RadialGrid.uniform(600.0 * a, 19200)
    state = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=6, grid=grid)[5]
    assert state.node_count == 5
    assert state.eigenvalue / e_scale == pytest.approx(-0.0028738563, rel=1e-7)


def test_rayleigh_quotient_consistency():
    states = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=1,
                               grid=ground_grid(), tol=1e-9)
    rq = rayleigh_quotient(states[0].state, gravitational_kernel(MASS, C).strength, C)
    assert abs(rq - states[0].eigenvalue) / abs(states[0].eigenvalue) < 1e-8


def test_harmonic_oscillator_reduction():
    # -u''/2 + x^2 u/2 in oscillator units: s-state eigenvalues 2 n_r + 3/2
    grid = RadialGrid.uniform(14.0, 1400)
    for n_r in range(3):
        eps = _eigensolve(grid.r, grid.spacing, 0.5 * grid.r**2, n_r)[0]
        assert eps == pytest.approx(2 * n_r + 1.5, rel=1e-4)


def scf(x: np.ndarray, dx: float, k: int, tol: float = DEFAULT_TOL) -> tuple:
    """``_scf_state`` of the k-node self-bound state, from the seed ``stationary_states`` uses."""
    return _scf_state(x, dx, np.zeros_like(x), -1.0, -_gaussian_kernel_seed(x, 2.0), k, tol,
                      MAX_ITER)


def reference_scf(x: np.ndarray, dx: float, k: int, tol: float) -> tuple[float, np.ndarray, int]:
    """``_scf_state`` with the full eigensolve at every iterate: the cold route
    that the warm-started eigensolves must reproduce.  Eigenvalue, profile and
    iteration count."""
    phi = -_gaussian_kernel_seed(x, 2.0)
    recent: list[tuple[np.ndarray, np.ndarray]] = []
    for iteration in range(1, MAX_ITER + 1):
        eps, u, _ = _eigensolve(x, dx, phi, k)
        phi_new = -kernel_integral(x, u * u)
        defect = phi_new - phi
        if float(np.abs(defect).max()) / (float(np.abs(phi_new).max()) + 1e-300) < tol:
            return eps, u, iteration
        recent = recent[-ANDERSON_DEPTH:] + [(phi, defect)]
        phi = phi + DAMPING * defect
        if len(recent) > 1:
            d_phi, d_defect = np.diff(recent, axis=0).transpose(1, 2, 0)
            gamma = np.linalg.lstsq(d_defect, defect, rcond=None)[0]
            phi = phi - (d_phi + DAMPING * d_defect) @ gamma
    raise AssertionError(f"the cold route did not converge to {tol:g}")


@pytest.mark.parametrize("k", [0, 1, 2])
def test_warm_started_scf_agrees_with_the_cold_route(k):
    # the README sn-spectrum grid; at tol 1e-12 a stop rule that accepts the
    # warm vector before its last solve leaves state 2 ~1e-8 off
    grid = RadialGrid.uniform(250.0, 8000)   # in natural kernel lengths
    x, dx = grid.r, grid.spacing
    eps, u, _, iterations, full = scf(x, dx, k)
    eps_cold, u_cold, iterations_cold = reference_scf(x, dx, k, DEFAULT_TOL)
    assert iterations == iterations_cold
    assert full < iterations
    assert abs(eps - eps_cold) <= 1e-10 * abs(eps_cold)
    assert np.abs(u - u_cold).max() <= 1e-9 * np.abs(u_cold).max()

    eps = scf(x, dx, k, 1e-12)[0]
    eps_cold = reference_scf(x, dx, k, 1e-12)[0]
    assert abs(eps - eps_cold) <= 1e-10 * abs(eps_cold)


@pytest.mark.parametrize("r_max, n, k", [(120.0, 8000, 2), (120.0, 4000, 2), (120.0, 10000, 1)])
def test_warm_started_scf_converges_at_tol_1e_12_where_the_cold_route_does(r_max, n, k):
    # grids set in metres, as the CLI sets them.  At 1e-12 the defect is near its
    # rounding floor; on (120, 8000) state 2 stalled at a residual of 2e-12 through
    # MAX_ITER iterates while only warm starts ran, and the cold route takes 26
    a, _ = natural_scales()
    grid = RadialGrid.uniform(r_max * a, n)
    x, dx = grid.r / a, grid.spacing / a
    eps, _, residual, _, _ = scf(x, dx, k, 1e-12)
    eps_cold = reference_scf(x, dx, k, 1e-12)[0]
    assert residual < 1e-12
    assert abs(eps - eps_cold) <= 1e-10 * abs(eps_cold)


def test_a_warm_start_on_a_neighbouring_state_falls_back_to_the_full_eigensolve():
    # Rayleigh-quotient iteration from the other state's eigenvector stays on
    # that state; only the node count tells the two apart
    grid = RadialGrid.uniform(120.0, 4000)
    x, dx = grid.r, grid.spacing
    profiles = [scf(x, dx, k)[1] for k in (0, 1)]
    for k, start in ((0, profiles[1]), (1, profiles[0])):
        potential = -kernel_integral(x, start * start)
        eps, u, full = _eigensolve(x, dx, potential, k, start)
        assert full
        assert count_nodes(u) == k
        eps_cold, u_cold, _ = _eigensolve(x, dx, potential, k)
        assert eps == eps_cold
        assert np.array_equal(u, u_cold)


def test_mass_scaling_of_the_spectrum():
    # eigenvalues scale as m^5: solve at m and 2m on distinct discretizations
    results = {}
    for mass, n in ((MASS, 2000), (2.0 * MASS, 2400)):
        grid = ground_grid(mass, 50.0, n)
        states = stationary_states(mass, [gravitational_kernel(mass, C)],
                                   n_states=1, grid=grid)
        results[mass] = states[0].eigenvalue
    ratio = results[2.0 * MASS] / results[MASS]
    assert ratio == pytest.approx(32.0, rel=1e-3)
    # in natural units the two spectra coincide
    _, e1 = natural_scales(MASS)
    _, e2 = natural_scales(2.0 * MASS)
    assert results[MASS] / e1 == pytest.approx(results[2.0 * MASS] / e2, rel=1e-3)


def test_grid_refinement_second_order():
    _, e_scale = natural_scales()
    values = []
    for n in (1600, 3200, 6400):
        grid = ground_grid(MASS, 50.0, n)
        states = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=1,
                                   grid=grid)
        values.append(states[0].eigenvalue / e_scale)
    d1 = abs(values[1] - values[0])
    d2 = abs(values[2] - values[1])
    # halving the spacing should shrink the change by ~4 (second order)
    assert 2.5 < d1 / d2 < 6.0


def test_scf_hydrogen_richardson_value_is_within_5e_9_hartree_and_inside_its_bar():
    # the bare solve hydrogen-shift runs; dx halves from n = 2001 to 4003
    e_2h, e_h = (hydrogen_diagnostic(False, False, r_max_bohr=30, n_points=n).e0_ev * EV
                 / C.hartree for n in (2001, 4003))
    richardson = (4.0 * e_h - e_2h) / 3.0
    error = abs(richardson + 0.5)
    assert error < 5e-9
    assert abs(e_h - e_2h) / 3.0 >= error


def test_shooting_results_are_pinned():
    # the bisection decides each trial eigenvalue by its node count; a wrong
    # decision moves the result by at least one bracket width, far past rel=1e-12.
    # Pinned from the Richardson-combined route: the ground value is 4.0e-10
    # relative from the h -> 0 limit -0.16276920783267 and 4.6e-10 from the
    # independent -0.16276920784215
    _, e_scale = natural_scales()
    ground = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=1,
                               grid=ground_grid(), method="shooting")[0]
    assert ground.eigenvalue / e_scale == pytest.approx(-0.16276920776760564, rel=1e-12, abs=0)
    assert ground.residual == pytest.approx(1.4825373224124275e-12, rel=1e-12, abs=0)


# the h -> 0 limit of the shooting eigenvalue for node counts 0, 1 and 2 (SN
# units), Richardson-combined from RK4 at h = 0.002 and 0.004
SHOOTING_LIMITS = (-0.16276920783267, -0.03079653748015, -0.01252610090697)


def single_step_shooting(mass, couplings, grid, h):
    """Eigenvalue (J) and residual of the shooting solve at the one step h,
    set up as ``stationary_states`` sets it up."""
    kappa = sum(term.strength for term in couplings)
    eps, _, residual = _shoot_at_step(grid.r / kernel_length(mass, kappa, C), 0, h)
    return eps * (mass * kappa**2 / C.hbar**2), residual


def test_single_step_shooting_keeps_the_integrators_arithmetic():
    # the values the shooting route gave when it ran at the single step h = 0.004
    _, e_scale = natural_scales()
    ground, residual = single_step_shooting(MASS, [gravitational_kernel(MASS, C)],
                                            ground_grid(), 0.004)
    assert ground / e_scale == pytest.approx(-0.16276920777870146, rel=1e-12, abs=0)
    assert residual == pytest.approx(1.4825373411267212e-12, rel=1e-12, abs=0)


def reference_integrate_batch(eps, k, h, n_steps, kappa_sign):
    """``_integrate_batch`` written with Python-float constants, ``np.clip`` and
    the kernel's sign as a parameter: the reference the integrator must match
    bit for bit."""
    m = eps.shape[0]
    y = np.zeros((4, m))   # rows u, u', q, q'
    y[1] = 1.0
    crossings = np.zeros(m, dtype=int)
    above = np.zeros(m, dtype=bool)
    cols = np.arange(m)
    history = np.zeros((2, n_steps + 1, m))

    def rhs(x, y):
        u, up, q, qp = y
        if x == 0.0:
            return np.array([up, np.zeros_like(u), qp, np.zeros_like(u)])
        pot = q / (kappa_sign * x)
        dqp = (-4.0 * math.pi) * u * u / x
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
        y = np.clip(y_new, -1e30, 1e30)
        history[:, step + 1, cols] = y[0::3]
        live = (np.abs(y_new[0]) < 1e30) & (crossings <= k)
        if not live.all():
            gone = cols[~live]
            above[gone] = crossings[~live] > k
            history[:, step + 2:, gone] = history[:, step + 1, gone][:, None]
            y, eps, crossings, cols = y[:, live], eps[live], crossings[live], cols[live]
            if cols.size == 0:
                break
    return above, history


def test_rk4_integrator_matches_the_reference_arithmetic():
    eps = np.linspace(0.0, 8.0, 9)   # kernel, in the u'(0) = 1 gauge
    above, history = _integrate_batch(eps, 1, 0.016, 2000, record=True)
    ref_above, ref_history = reference_integrate_batch(eps, 1, 0.016, 2000, -1.0)
    assert 0 < np.count_nonzero(above) < eps.size
    assert np.array_equal(above, ref_above)
    assert np.array_equal(history, ref_history)


def test_a_mixed_step_batch_matches_each_step_integrated_alone():
    # h and 2h columns interleaved, the 2h ones with too few steps to decide them all
    h, eps = SHOOTING_STEP, np.linspace(0.0, 8.0, 9)
    steps = np.tile([h, 2.0 * h], eps.size)
    n_steps = np.tile([2000, 200], eps.size)
    above, history = _integrate_batch(np.repeat(eps, 2), 1, steps, n_steps, record=True)
    for col, (step, n) in enumerate(((h, 2000), (2.0 * h, 200))):
        ref_above, ref_history = reference_integrate_batch(eps, 1, step, n, -1.0)
        assert np.array_equal(above[col::2], ref_above)
        assert np.array_equal(history[:, : n + 1, col::2], ref_history)
        # held at the value where the column left the batch
        assert (history[:, n:, col::2] == ref_history[:, n:]).all()
    # one 2h column is neither clamped nor decided when its steps run out
    left_undecided = ~above[1::2] & (np.abs(history[0, 200, 1::2]) < 1e30)
    assert np.count_nonzero(left_undecided) == 1


def reference_bracket(k, h, n_steps):
    """The upper bracket by the loop that doubles eps until its solution crosses
    zero more than k times, one integration at a time."""
    hi, span = 1.0, 1.0
    for _ in range(80):
        if reference_integrate_batch(np.array([hi]), k, h, n_steps, -1.0)[0][0]:
            return hi
        hi += span
        span *= 2.0
    raise AssertionError("no upper bracket")


def reference_bisection(k, h):
    """(lo, hi, history) of the one problem (k, h): the reference bracket, then
    ``SCANS`` scans through the reference integrator."""
    n_steps = int(math.ceil((20.0 + 14.0 * k) / h))
    lo, hi = 0.0, reference_bracket(k, h, n_steps)
    for _ in range(SCANS):
        eps = np.linspace(lo, hi, SCAN_COLUMNS)
        above, history = reference_integrate_batch(eps, k, h, n_steps, -1.0)
        above[0], above[-1] = False, True
        idx = int(np.argmax(above))
        lo, hi = float(eps[idx - 1]), float(eps[idx])
    return lo, hi, history[:, :, idx - 1]


def test_the_batched_bracket_search_stops_where_the_doubling_loop_does():
    # mixed node counts and steps; the 8-node problem needs eps = 8, the others 4
    problems = [(0, SHOOTING_STEP), (1, 2.0 * SHOOTING_STEP), (2, SHOOTING_STEP),
                (8, 2.0 * SHOOTING_STEP)]
    expected = [reference_bracket(k, h, _n_steps(k, h)) for k, h in problems]
    assert expected == [4.0, 4.0, 4.0, 8.0]
    assert _bracket_from_above(problems) == expected


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_lockstep_bisection_of_both_steps_matches_each_step_bisected_alone(k):
    steps = (SHOOTING_STEP, 2.0 * SHOOTING_STEP)
    lockstep = _bisect_eigenvalue([(k, h) for h in steps])
    for h, (lo, hi, history) in zip(steps, lockstep):
        for alone in (reference_bisection(k, h), _bisect_eigenvalue([(k, h)])[0]):
            assert (lo, hi) == alone[:2]
            assert np.array_equal(history, alone[2])


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_a_column_past_its_turning_point_leaves_with_the_verdict_of_a_full_integration(k):
    # unrecorded columns leave once P > eps and u u' > 0; scans of +-4/32^j around
    # the eigenvalue, down to the last scan's width, and the bracket candidates
    # must get the verdict of the reference, which has no such stop
    steps = (SHOOTING_STEP, 2.0 * SHOOTING_STEP)
    for h, (lo, _, _) in zip(steps, _bisect_eigenvalue([(k, h) for h in steps])):
        scans = [np.linspace(lo - w, lo + w, SCAN_COLUMNS) for w in 4.0 / 32.0 ** np.arange(SCANS)]
        n_steps = _n_steps(k, h)
        for eps in (np.concatenate(scans), np.ldexp(1.0, np.arange(80))):
            above = _integrate_batch(eps, k, h, n_steps)[0]
            assert np.array_equal(above, reference_integrate_batch(eps, k, h, n_steps, -1.0)[0])
            assert above.any() and not above.all()


def test_a_failed_bracket_names_its_node_count_and_step(monkeypatch):
    integrate = stationary._integrate_batch

    def never_above_at_2h(eps, k, h, n_steps, record=False):
        above, history = integrate(eps, k, h, n_steps, record)
        above[np.broadcast_to(h, eps.shape) == 2.0 * SHOOTING_STEP] = False
        return above, history

    monkeypatch.setattr(stationary, "_integrate_batch", never_above_at_2h)
    with pytest.raises(ConvergenceError, match=r"1-node eigenvalue from above at RK4 step "
                                               r"h = 0\.032$"):
        _bisect_eigenvalue([(1, SHOOTING_STEP), (1, 2.0 * SHOOTING_STEP)])


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("h", [SHOOTING_STEP, 2.0 * SHOOTING_STEP])
def test_eps_zero_is_a_lower_bracket(k, h):
    # the bisection starts from lo = 0 without testing it
    n_steps = int(math.ceil((20.0 + 14.0 * k) / h))
    above, _ = _integrate_batch(np.array([0.0]), k, h, n_steps)
    assert not above[0]


def test_shooting_tail_decays_like_scf():
    # past the shooting valley, at least 40 lengths from SCF's Dirichlet wall
    a, _ = natural_scales()
    grid = RadialGrid.uniform(250.0 * a, 8000)
    kernel = [gravitational_kernel(MASS, C)]
    scf = stationary_states(MASS, kernel, n_states=3, grid=grid)
    shoot = stationary_states(MASS, kernel, n_states=3, grid=grid, method="shooting")
    far = grid.r <= grid.r_max - 40.0 * a
    for s1, s2 in zip(scf, shoot):
        psi_scf, psi_shoot = np.real(s1.state.psi), np.real(s2.state.psi)
        small = np.abs(psi_scf) / np.abs(psi_scf).max()
        window = far & (small >= 1e-20) & (small <= 1e-6)
        assert np.count_nonzero(window) > 100
        assert np.abs(psi_shoot[window] / psi_scf[window] - 1.0).max() < 2e-3


def test_shooting_is_within_1e_9_of_the_step_limit_and_inside_its_bar():
    a, e_scale = natural_scales()
    grid = RadialGrid.uniform(250.0 * a, 8000)
    states = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=3, grid=grid,
                               method="shooting")
    for state, limit in zip(states, SHOOTING_LIMITS):
        error = abs(state.eigenvalue / e_scale - limit)
        assert error < 1e-9 * abs(limit)
        assert state.discretization_error / e_scale >= error
        assert state.discretization_error < 1e-7 * abs(state.eigenvalue)


def test_node_counting():
    x = np.linspace(0.01, 10.0, 500)
    assert count_nodes(np.exp(-x)) == 0
    assert count_nodes((1.0 - x) * np.exp(-x)) == 1
    assert count_nodes(np.sin(x) * np.exp(-0.2 * x)) == 3
    # sub-threshold tail wiggles are not nodes
    u = np.exp(-x)
    u[-50:] = 1e-12 * np.sin(x[-50:] * 40.0)
    assert count_nodes(u) == 0


def test_nonconvergence_raises_with_history():
    with pytest.raises(ConvergenceError) as excinfo:
        stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=1,
                          grid=ground_grid(), max_iter=3)
    assert len(excinfo.value.residual_history) == 3


@pytest.mark.parametrize("method", ["scf", "shooting"])
@pytest.mark.parametrize("couplings", [
    [],                          # no kernel at all
    [KernelTerm(0.0)],           # a zero net coupling
    [electrostatic_kernel(C)],   # a repulsive kernel
], ids=["free", "zero", "repulsive"])
def test_both_methods_reject_zero_and_repulsive_couplings(couplings, method):
    grid = RadialGrid.uniform(40.0 * C.bohr_radius, 2000)
    with pytest.raises(ValueError, match="zero or repulsive net coupling"):
        stationary_states(C.m_e, couplings, n_states=1, grid=grid, method=method)
