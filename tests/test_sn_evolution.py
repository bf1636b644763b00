from __future__ import annotations

import pytest

from gravlab.errors import StepSizeError
from gravlab.quantities import CODATA2018, ScaleSystem
from gravlab.snsolver import (
    RadialGrid,
    WaveState,
    evolve,
    free_gaussian_width_squared,
    gravitational_kernel,
    stationary_states,
    suggested_dt,
)

C = CODATA2018


def test_free_gaussian_spreading_follows_closed_form():
    # isotropic 3-D spreading: <r^2> = 3 sigma^2(t) for an s-wave Gaussian
    mass = 1e-20
    sigma0 = 1e-6
    t_final = 2.0 * mass * sigma0**2 / C.hbar   # doubles the variance
    grid = RadialGrid.uniform(14.0 * sigma0, 512)
    state = WaveState.gaussian_packet(grid, sigma0, mass)
    result = evolve(state, t_final / 1500, 1500, record_every=50)
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
    dt = 0.9 * suggested_dt(state, C)
    result = evolve(state, dt, 1000, record_every=100)
    assert abs(result.norm[-1] - 1.0) < 1e-8
    assert abs(result.energy[-1] / result.energy[0] - 1.0) < 1e-5


def test_stationary_state_is_a_fixed_point():
    mass = 1e-17
    system = ScaleSystem.sn_natural(mass, C)
    grid = RadialGrid.uniform(50.0 * system.length_scale, 2000)
    ground = stationary_states(mass, [gravitational_kernel(mass, C)], n_states=1,
                               grid=grid)[0]
    dt = 0.9 * suggested_dt(ground.state, C)
    result = evolve(ground.state, dt, 1000, record_every=100)
    assert abs(result.norm[-1] - result.norm[0]) < 1e-6
    assert abs(result.energy[-1] / result.energy[0] - 1.0) < 1e-6
    assert abs(result.width[-1] / result.width[0] - 1.0) < 1e-6


def test_gravitational_coupling_inhibits_spreading():
    mass = 1e-17
    system = ScaleSystem.sn_natural(mass, C)
    a = system.length_scale
    grid = RadialGrid.uniform(80.0 * a, 2560)
    t_natural = C.hbar / system.energy_scale
    n_steps = 1200
    dt = 2.0 * t_natural / n_steps

    free = evolve(WaveState.gaussian_packet(grid, 2.0 * a, mass), dt, n_steps,
                  record_every=n_steps)
    coupled = evolve(
        WaveState.gaussian_packet(grid, 2.0 * a, mass, [gravitational_kernel(mass, C)]),
        dt, n_steps, record_every=n_steps)
    assert free.width[0] == pytest.approx(coupled.width[0], rel=1e-9)
    assert free.width[-1] > free.width[0]           # the free packet spreads
    assert coupled.width[-1] < free.width[-1]       # gravity slows the spread


def test_step_size_validator():
    grid = RadialGrid.uniform(1e-5, 256)
    state = WaveState.gaussian_packet(grid, 1e-6, 1e-20)
    bound = suggested_dt(state, C)
    with pytest.raises(StepSizeError):
        evolve(state, 2.0 * bound, 10)
    with pytest.raises(StepSizeError):
        evolve(state, -1.0, 10)


def test_radial_free_packet_matches_closed_form_too():
    # isotropic 3-D spreading: <r^2> = 3 sigma^2(t) for an s-wave Gaussian
    mass = 1e-20
    sigma0 = 1e-6
    grid = RadialGrid.uniform(16.0 * sigma0, 420)
    state = WaveState.gaussian_packet(grid, sigma0, mass)
    t_final = 1.0 * mass * sigma0**2 / C.hbar
    result = evolve(state, t_final / 1000, 1000, record_every=1000)
    expected = 3.0 * free_gaussian_width_squared(sigma0, mass, float(result.times[-1]), C)
    assert result.width[-1] ** 2 == pytest.approx(expected, rel=5e-3)


def test_final_step_recorded_with_ragged_stride():
    grid = RadialGrid.uniform(1e-5, 128)
    state = WaveState.gaussian_packet(grid, 1e-6, 1e-20)
    dt = 0.5 * suggested_dt(state, C)
    result = evolve(state, dt, 10, record_every=7)
    assert result.times[-1] == pytest.approx(10 * dt, rel=1e-12)
    assert result.times.size == 3   # t = 0, 7 dt, 10 dt


def test_coupled_predictor_corrector_step_is_pinned():
    # a self-gravitating packet through the predictor-corrector step; values
    # were computed by this code and pin it against silent changes
    mass = 1e-17
    system = ScaleSystem.sn_natural(mass, C)
    a = system.length_scale
    grid = RadialGrid.uniform(60.0 * a, 600)
    state = WaveState.gaussian_packet(grid, 2.0 * a, mass, [gravitational_kernel(mass, C)])
    dt = 0.9 * suggested_dt(state, C)
    result = evolve(state, dt, 200, record_every=50)
    assert result.width[-1] == pytest.approx(5.911264471621955e-07, rel=1e-12)
    assert result.energy[-1] == pytest.approx(-1.8960687932012198e-39, rel=1e-12)
