from __future__ import annotations

import math

import numpy as np
import pytest

from gravlab.errors import StepSizeError
from gravlab.quantities import CODATA2018, ENERGY_SCALES, kernel_length
from gravlab.snsolver import (
    RadialGrid,
    WaveState,
    evolve,
    free_gaussian_width_squared,
    gravitational_kernel,
    stationary_states,
    suggested_dt,
)
from gravlab.snsolver.state import dirichlet_kinetic_sum, kernel_potential

C = CODATA2018


def test_free_gaussian_spreading_follows_closed_form():
    # isotropic 3-D spreading: <r^2> = 3 sigma^2(t) for an s-wave Gaussian
    mass = 1e-20
    sigma0 = 1e-6
    t_final = 2.0 * mass * sigma0**2 / C.hbar   # doubles the variance
    grid = RadialGrid.uniform(14.0 * sigma0, 512)
    state = WaveState.gaussian_packet(grid, sigma0, mass)
    result = evolve(state, t_final / 1500, 1500, kappa=0.0, record_every=50)
    for i in range(1, result.times.size):
        expected = 3.0 * free_gaussian_width_squared(sigma0, mass, float(result.times[i]), C)
        assert result.width[i] ** 2 == pytest.approx(expected, rel=5e-3, abs=0)
    # the end point is the most stringent
    expected = 3.0 * free_gaussian_width_squared(sigma0, mass, float(result.times[-1]), C)
    assert result.width[-1] ** 2 == pytest.approx(expected, rel=1e-3, abs=0)


def test_norm_and_energy_conserved_over_1000_steps():
    mass = 1e-20
    sigma0 = 1e-6
    grid = RadialGrid.uniform(14.0 * sigma0, 512)
    state = WaveState.gaussian_packet(grid, sigma0, mass)
    dt = 0.9 * suggested_dt(state, 0.0, C)
    result = evolve(state, dt, 1000, kappa=0.0, record_every=100)
    assert abs(result.norm[-1] - 1.0) < 1e-8
    assert abs(result.energy[-1] / result.energy[0] - 1.0) < 1e-5


def test_stationary_state_is_a_fixed_point():
    mass = 1e-17
    grid = RadialGrid.uniform(50.0 * kernel_length(mass, C.G * mass**2, C), 2000)
    ground = stationary_states(mass, [gravitational_kernel(mass, C)], n_states=1,
                               grid=grid)[0]
    kappa = gravitational_kernel(mass, C).strength
    dt = 0.9 * suggested_dt(ground.state, kappa, C)
    result = evolve(ground.state, dt, 1000, kappa=kappa, record_every=100)
    assert abs(result.norm[-1] - result.norm[0]) < 1e-6
    assert abs(result.energy[-1] / result.energy[0] - 1.0) < 1e-6
    assert abs(result.width[-1] / result.width[0] - 1.0) < 1e-6


def test_gravitational_coupling_inhibits_spreading():
    mass = 1e-17
    a = kernel_length(mass, C.G * mass**2, C)
    grid = RadialGrid.uniform(80.0 * a, 2560)
    t_natural = C.hbar / ENERGY_SCALES["sn-natural"](mass, C)
    n_steps = 1200
    dt = 2.0 * t_natural / n_steps

    packet = WaveState.gaussian_packet(grid, 2.0 * a, mass)
    free = evolve(packet, dt, n_steps, kappa=0.0, record_every=n_steps)
    coupled = evolve(packet, dt, n_steps, kappa=gravitational_kernel(mass, C).strength,
                     record_every=n_steps)
    assert free.width[0] == pytest.approx(coupled.width[0], rel=1e-9, abs=0)
    assert free.width[-1] > free.width[0]           # the free packet spreads
    assert coupled.width[-1] < free.width[-1]       # gravity slows the spread


def test_evolution_measures_the_norm_the_state_was_normalized_to():
    # a packet cut by the wall: sigma0 = 30 natural lengths in a 60-length box
    mass = 1e-17
    a = kernel_length(mass, C.G * mass**2, C)
    state = WaveState.gaussian_packet(RadialGrid.uniform(60.0 * a, 2400), 30.0 * a, mass)
    kappa = gravitational_kernel(mass, C).strength
    result = evolve(state, suggested_dt(state, kappa, C), 1, kappa=kappa)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert result.norm[0] == pytest.approx(state.norm(), abs=1e-12)


def test_step_size_validator():
    grid = RadialGrid.uniform(1e-5, 256)
    state = WaveState.gaussian_packet(grid, 1e-6, 1e-20)
    bound = suggested_dt(state, 0.0, C)
    with pytest.raises(StepSizeError):
        evolve(state, 2.0 * bound, 10, kappa=0.0)
    with pytest.raises(StepSizeError):
        evolve(state, -1.0, 10, kappa=0.0)


def test_radial_free_packet_matches_closed_form_too():
    # isotropic 3-D spreading: <r^2> = 3 sigma^2(t) for an s-wave Gaussian
    mass = 1e-20
    sigma0 = 1e-6
    grid = RadialGrid.uniform(16.0 * sigma0, 420)
    state = WaveState.gaussian_packet(grid, sigma0, mass)
    t_final = 1.0 * mass * sigma0**2 / C.hbar
    result = evolve(state, t_final / 1000, 1000, kappa=0.0, record_every=1000)
    expected = 3.0 * free_gaussian_width_squared(sigma0, mass, float(result.times[-1]), C)
    assert result.width[-1] ** 2 == pytest.approx(expected, rel=5e-3, abs=0)


def test_final_step_recorded_with_ragged_stride():
    grid = RadialGrid.uniform(1e-5, 128)
    state = WaveState.gaussian_packet(grid, 1e-6, 1e-20)
    dt = 0.5 * suggested_dt(state, 0.0, C)
    result = evolve(state, dt, 10, kappa=0.0, record_every=7)
    assert result.times[-1] == pytest.approx(10 * dt, rel=1e-12)
    assert result.times.size == 3   # t = 0, 7 dt, 10 dt


def coupled_run(n_steps, *, steps_per_dt=1, record_every=None):
    """A self-gravitating packet on 600 points, n_steps of dt / steps_per_dt, where dt
    is 0.9 of the suggested step."""
    mass = 1e-17
    a = kernel_length(mass, C.G * mass**2, C)
    state = WaveState.gaussian_packet(RadialGrid.uniform(60.0 * a, 600), 2.0 * a, mass)
    kappa = gravitational_kernel(mass, C).strength
    dt = 0.9 * suggested_dt(state, kappa, C) / steps_per_dt
    return evolve(state, dt, n_steps, kappa=kappa, record_every=record_every or n_steps)


def test_coupled_strang_step_is_pinned():
    # values were computed by this code and pin it against silent changes; a run
    # with 16x the steps checks that the pin is the solution, not just a state
    result = coupled_run(200, record_every=50)
    assert result.width[-1] == pytest.approx(5.9112640456281e-07, rel=1e-12, abs=0)
    assert result.energy[-1] == pytest.approx(-1.8960681972757912e-39, rel=1e-12, abs=0)
    fine = coupled_run(16 * 200, steps_per_dt=16)
    assert result.width[-1] == pytest.approx(fine.width[-1], rel=1e-6, abs=0)
    assert result.energy[-1] == pytest.approx(fine.energy[-1], rel=1e-6, abs=0)


def test_coupled_final_state_does_not_depend_on_the_record_stride():
    runs = [coupled_run(60, record_every=every) for every in (1, 7, 60)]
    assert all(np.array_equal(run.final_u, runs[0].final_u) for run in runs[1:])
    assert [run.times.size for run in runs] == [61, 10, 2]


def test_coupled_step_is_second_order_in_dt():
    # the final width's error against a run with 64x the steps falls 4x per halving of dt
    reference = coupled_run(64 * 200, steps_per_dt=64).width[-1]
    errors = [abs(coupled_run(m * 200, steps_per_dt=m).width[-1] - reference) for m in (1, 2)]
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.3)


def test_one_kernel_integral_per_coupled_step(monkeypatch):
    from gravlab.snsolver import state as state_module

    calls = []
    counted = state_module.kernel_integral

    def counting(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(state_module, "kernel_integral", counting)
    counts = []
    for n_steps in (10, 30):
        calls.clear()
        coupled_run(n_steps)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 20


def reference_evolve(state, kappa, dt, n_steps, record_every):
    """``evolve``'s split step with each kinetic Crank-Nicolson step through
    ``solve_banded`` and a freshly filled banded matrix: the reference the
    LAPACK route must match bit for bit."""
    from scipy.linalg import solve_banded

    grid = state.grid
    u = state.u
    dx = grid.spacing
    kin = C.hbar**2 / (2.0 * state.mass * dx**2)
    lam = 1j * dt / (2.0 * C.hbar)
    n = u.size
    diag = np.full(n, 2.0 * kin)
    off = np.full(n - 1, -kin)

    def cn_solve(u_in):
        rhs = (1.0 - lam * diag) * u_in
        rhs[:-1] -= lam * off * u_in[1:]
        rhs[1:] -= lam * off * u_in[:-1]
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = lam * off
        ab[1, :] = 1.0 + lam * diag
        ab[2, :-1] = lam * off
        return solve_banded((1, 1), ab, rhs)

    def half_phase(potential):
        return np.exp(-0.5j * dt / C.hbar * potential)

    def observables(u_now, phi_now):
        dens = np.abs(u_now) ** 2
        norm = dx * float(np.sum(dens))
        kinetic = kin * dx * dirichlet_kinetic_sum(u_now)
        potential = dx * float(np.sum(0.5 * phi_now * dens))
        second = dx * float(np.sum(grid.r**2 * dens))
        return norm, (kinetic + potential) / norm, math.sqrt(second / norm)

    phi = kernel_potential(grid, u, kappa)
    rows = [(0.0, *observables(u, phi))]
    for step in range(1, n_steps + 1):
        if kappa != 0.0:
            u = cn_solve(u * half_phase(phi))
            phi = kernel_potential(grid, u, kappa)
            u = u * half_phase(phi)
        else:
            u = cn_solve(u)
        if step % record_every == 0 or step == n_steps:
            rows.append((step * dt, *observables(u, phi)))
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "kernel-free"])
def test_lapack_steps_match_the_banded_reference_bit_for_bit(coupled):
    # both runs reuse one ?gttrf factorization of the kinetic matrix; both must
    # give solve_banded's bits
    mass = 1e-17
    a = kernel_length(mass, C.G * mass**2, C)
    grid = RadialGrid.uniform(60.0 * a, 600)
    kappa = gravitational_kernel(mass, C).strength if coupled else 0.0
    state = WaveState.gaussian_packet(grid, 2.0 * a, mass)
    dt = 0.9 * suggested_dt(state, kappa, C)
    result = evolve(state, dt, 200, kappa=kappa, record_every=7)
    reference = reference_evolve(state, kappa, dt, 200, record_every=7)
    for name, expected in zip(("times", "norm", "energy", "width"), reference):
        assert np.array_equal(getattr(result, name), expected), name
