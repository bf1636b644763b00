from __future__ import annotations

import math

import numpy as np
import pytest

from gravlab.errors import GridError, NormalizationError
from gravlab.quantities import CODATA2018
from gravlab.snsolver import (
    KernelTerm,
    RadialGrid,
    WaveState,
    electrostatic_kernel,
    gravitational_kernel,
    kernel_integral,
    load_state_csv,
    self_potential,
    validate_grid_resolution,
    validate_tail,
)


def thin_shell_state(a: float, width: float, grid: RadialGrid, mass: float,
                     couplings=()) -> WaveState:
    psi = np.exp(-((grid.r - a) ** 2) / (2.0 * width**2)) / grid.r
    return WaveState.normalized(grid, psi, mass, couplings)


def test_thin_shell_potential_matches_shell_theorem():
    # |psi|^2 concentrated at radius a: kappa/a inside, kappa/r outside
    grid = RadialGrid.uniform(20.0, 4000)
    kappa = -2.5
    state = thin_shell_state(5.0, 0.05, grid, mass=1.0,
                             couplings=[KernelTerm(kappa, "test")])
    phi = self_potential(state)
    inside = grid.r < 4.0
    outside = grid.r > 6.0
    assert np.allclose(phi[inside], kappa / 5.0, rtol=2e-3)
    assert np.allclose(phi[outside], kappa / grid.r[outside], rtol=2e-3)


def test_hydrogenic_self_interaction_energy():
    # <e^2 S> on the 1s orbital is (5/8) e^2/a0, five eighths of a Hartree
    c = CODATA2018
    a0 = c.bohr_radius
    grid = RadialGrid.uniform(30.0 * a0, 3000)
    psi = np.exp(-grid.r / a0)
    state = WaveState.normalized(grid, psi, c.m_e, [electrostatic_kernel(c)])
    phi = self_potential(state)
    weight = 4.0 * math.pi * grid.r**2 * np.abs(state.psi) ** 2
    expectation = float(np.trapezoid(phi * weight, grid.r))
    assert expectation == pytest.approx(0.625 * c.hartree, rel=1e-3)
    # finite at the innermost point, approaching e^2/a0
    assert phi[0] == pytest.approx(c.e2_coulomb / a0, rel=1e-2)


def test_zero_coupling_gives_zero_potential():
    grid = RadialGrid.uniform(10.0, 500)
    state = WaveState.gaussian_packet(grid, 1.0, 1e-20)
    assert np.all(self_potential(state) == 0.0)


def test_non_normalized_state_rejected():
    grid = RadialGrid.uniform(10.0, 100)
    with pytest.raises(NormalizationError):
        WaveState(grid, np.ones(100, dtype=complex), 1e-20)
    with pytest.raises(NormalizationError):
        WaveState.normalized(grid, np.zeros(100), 1e-20)


def test_grid_resolution_validator():
    c = CODATA2018
    mass = 1e-17
    natural = c.hbar**2 / (c.G * mass**3)
    coarse = RadialGrid.uniform(50.0 * natural, 100)   # ~2 points per length
    with pytest.raises(GridError, match="32 points"):
        validate_grid_resolution(coarse, mass, [gravitational_kernel(mass, c)], c)
    fine = RadialGrid.uniform(50.0 * natural, 3200)
    validate_grid_resolution(fine, mass, [gravitational_kernel(mass, c)], c)


def test_tail_validator():
    grid = RadialGrid.uniform(10.0, 200)
    psi = np.exp(-grid.r)
    with pytest.raises(GridError, match="extend r_max"):
        validate_tail(psi)
    validate_tail(np.exp(-5.0 * grid.r))


def test_gaussian_packet_width():
    # sigma per axis: <r^2> = 3 sigma^2
    grid = RadialGrid.uniform(12.0, 1024)
    state = WaveState.gaussian_packet(grid, 1.5, 1e-20)
    r = grid.r
    weight = 4.0 * math.pi * r**2 * np.abs(state.psi) ** 2
    second = float(np.trapezoid(r**2 * weight, r))
    assert second == pytest.approx(3.0 * 1.5**2, rel=1e-6)


def test_kernel_strength_signs():
    c = CODATA2018
    grav = gravitational_kernel(2e-10, c)
    assert grav.strength == pytest.approx(-c.G * 4e-20, rel=1e-12)
    assert grav.strength < 0.0
    es = electrostatic_kernel(c)
    assert es.strength == pytest.approx(c.e2_coulomb, rel=1e-12)
    assert es.strength > 0.0


def test_state_csv_round_trip(tmp_path):
    grid = RadialGrid.uniform(15.0, 300)
    psi = np.exp(-grid.r) * np.exp(0.5j * grid.r)
    state = WaveState.normalized(grid, psi, 1e-20)
    path = tmp_path / "state.csv"
    np.savetxt(path, np.column_stack([grid.r, state.psi.real, state.psi.imag]),
               delimiter=",")
    loaded = load_state_csv(path, mass=1e-20)
    assert loaded.norm() == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(loaded.psi, state.psi, rtol=1e-6)


def test_kernel_integral_matches_scipy_cumulative_trapezoid_bit_for_bit():
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(20131105)
    r = np.cumsum(rng.uniform(0.01, 1.0, size=500))
    w = rng.uniform(0.0, 3.0, size=r.size)
    r0 = np.concatenate(([0.0], r))
    inner = cumulative_trapezoid(np.concatenate(([0.0], w)), r0)
    ring = cumulative_trapezoid(np.concatenate(([0.0], w / r)), r0)
    assert np.array_equal(kernel_integral(r, w), inner / r + (ring[-1] - ring))
