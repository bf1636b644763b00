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
        assert result.width[i] ** 2 == pytest.approx(expected, rel=5e-3)
    # the end point is the most stringent
    expected = 3.0 * free_gaussian_width_squared(sigma0, mass, float(result.times[-1]), C)
    assert result.width[-1] ** 2 == pytest.approx(expected, rel=1e-3)


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
    assert free.width[0] == pytest.approx(coupled.width[0], rel=1e-9)
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
    assert result.width[-1] ** 2 == pytest.approx(expected, rel=5e-3)


def test_final_step_recorded_with_ragged_stride():
    grid = RadialGrid.uniform(1e-5, 128)
    state = WaveState.gaussian_packet(grid, 1e-6, 1e-20)
    dt = 0.5 * suggested_dt(state, 0.0, C)
    result = evolve(state, dt, 10, kappa=0.0, record_every=7)
    assert result.times[-1] == pytest.approx(10 * dt, rel=1e-12)
    assert result.times.size == 3   # t = 0, 7 dt, 10 dt


def test_coupled_predictor_corrector_step_is_pinned():
    # a self-gravitating packet through the predictor-corrector step; values
    # were computed by this code and pin it against silent changes
    mass = 1e-17
    a = kernel_length(mass, C.G * mass**2, C)
    grid = RadialGrid.uniform(60.0 * a, 600)
    state = WaveState.gaussian_packet(grid, 2.0 * a, mass)
    kappa = gravitational_kernel(mass, C).strength
    dt = 0.9 * suggested_dt(state, kappa, C)
    result = evolve(state, dt, 200, kappa=kappa, record_every=50)
    assert result.width[-1] == pytest.approx(5.911264471621955e-07, rel=1e-12)
    assert result.energy[-1] == pytest.approx(-1.8960687932012198e-39, rel=1e-12)


def reference_evolve(state, kappa, dt, n_steps, record_every):
    """``evolve`` with each Crank-Nicolson step through ``solve_banded`` and a
    freshly filled banded matrix: the reference the LAPACK route must match
    bit for bit."""
    from scipy.linalg import solve_banded

    grid = state.grid
    u = state.u
    dx = grid.spacing
    kin = C.hbar**2 / (2.0 * state.mass * dx**2)
    lam = 1j * dt / (2.0 * C.hbar)
    n = u.size
    off = np.full(n - 1, -kin)

    def cn_solve(u_in, potential):
        diag = 2.0 * kin + potential
        rhs = (1.0 - lam * diag) * u_in
        rhs[:-1] -= lam * off * u_in[1:]
        rhs[1:] -= lam * off * u_in[:-1]
        ab = np.zeros((3, n), dtype=complex)
        ab[0, 1:] = lam * off
        ab[1, :] = 1.0 + lam * diag
        ab[2, :-1] = lam * off
        return solve_banded((1, 1), ab, rhs)

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
            u_pred = cn_solve(u, phi)
            phi_mid = 0.5 * (phi + kernel_potential(grid, u_pred, kappa))
            u = cn_solve(u, phi_mid)
            phi = kernel_potential(grid, u, kappa)
        else:
            u = cn_solve(u, phi)
        if step % record_every == 0 or step == n_steps:
            rows.append((step * dt, *observables(u, phi)))
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "kernel-free"])
def test_lapack_steps_match_the_banded_reference_bit_for_bit(coupled):
    # the coupled run solves with ?gtsv each step, the kernel-free run reuses
    # one ?gttrf factorization; both must give solve_banded's bits
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
