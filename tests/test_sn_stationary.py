from __future__ import annotations

import math

import numpy as np
import pytest

from gravlab.errors import ConvergenceError
from gravlab.quantities import CODATA2018, ScaleSystem
from gravlab.snsolver import (
    RadialGrid,
    count_nodes,
    electrostatic_kernel,
    gravitational_kernel,
    rayleigh_quotient,
    stationary_states,
)

C = CODATA2018
MASS = 1e-17  # kg; any value works, the problem is solved in natural units

# ground eigenvalue of the attractive-kernel problem in units G^2 m^5 / hbar^2,
# frozen after SCF and shooting agreed to ~5e-5 (grid-converged -0.1627692)
GROUND_EIGENVALUE = -0.16277


def natural_scales(mass: float = MASS) -> tuple[float, float]:
    system = ScaleSystem.sn_natural(mass, C)
    return system.length_scale, system.energy_scale


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


def test_rayleigh_quotient_consistency():
    states = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=1,
                               grid=ground_grid(), tol=1e-9)
    rq = rayleigh_quotient(states[0].state, C)
    assert abs(rq - states[0].eigenvalue) / abs(states[0].eigenvalue) < 1e-8


def test_harmonic_oscillator_reduction():
    # kappa = 0 with V = m w^2 r^2 / 2: s-state eigenvalues (2 n_r + 3/2) hbar w
    omega = 1.0e3
    mass = 1e-20
    length = math.sqrt(C.hbar / (mass * omega))
    grid = RadialGrid.uniform(14.0 * length, 1400)
    states = stationary_states(mass, [], lambda r: 0.5 * mass * omega**2 * r**2,
                               n_states=3, grid=grid)
    for n_r, state in enumerate(states):
        assert state.eigenvalue / (C.hbar * omega) == pytest.approx(
            2 * n_r + 1.5, rel=1e-4
        )


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
    for n in (800, 1600, 3200):
        grid = ground_grid(MASS, 50.0, n)
        states = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=1,
                                   grid=grid, validate_resolution=False)
        values.append(states[0].eigenvalue / e_scale)
    d1 = abs(values[1] - values[0])
    d2 = abs(values[2] - values[1])
    # halving the spacing should shrink the change by ~4 (second order)
    assert 2.5 < d1 / d2 < 6.0


def test_shooting_handles_linear_problem():
    # hydrogen ground state by pure shooting: independent of the eigensolver path
    a0 = C.bohr_radius
    grid = RadialGrid.uniform(30.0 * a0, 1500)
    states = stationary_states(C.m_e, [], lambda r: -C.e2_coulomb / r, n_states=1,
                               grid=grid, method="shooting")
    assert states[0].eigenvalue / C.hartree == pytest.approx(-0.5, rel=1e-3)


def test_shooting_results_are_pinned():
    # the bisection decides each trial eigenvalue by its node count; a wrong
    # decision moves the result by at least one bracket width, far past rel=1e-12
    _, e_scale = natural_scales()
    ground = stationary_states(MASS, [gravitational_kernel(MASS, C)], n_states=1,
                               grid=ground_grid(), method="shooting")[0]
    assert ground.eigenvalue / e_scale == pytest.approx(-0.16276920777870146, rel=1e-12)
    assert ground.residual == pytest.approx(1.4825373411267212e-12, rel=1e-12)
    grid = RadialGrid.uniform(30.0 * C.bohr_radius, 1500)
    hydrogen = stationary_states(C.m_e, [], lambda r: -C.e2_coulomb / r, n_states=1,
                                 grid=grid, method="shooting")[0]
    assert hydrogen.eigenvalue == pytest.approx(-2.179872332535048e-18, rel=1e-12)


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


def test_repulsive_kernel_with_coulomb_well():
    # the electrostatic self-term weakens hydrogen binding dramatically
    a0 = C.bohr_radius
    grid = RadialGrid.uniform(40.0 * a0, 2000)
    coulomb = lambda r: -C.e2_coulomb / r
    bare = stationary_states(C.m_e, [], coulomb, n_states=1, grid=grid)[0]
    dressed = stationary_states(C.m_e, [electrostatic_kernel(C)], coulomb, n_states=1,
                                grid=grid, validate_resolution=False,
                                validate_domain=False)[0]
    assert bare.eigenvalue / C.hartree == pytest.approx(-0.5, rel=1e-3)
    # binding collapses by an order of magnitude but a weakly bound state remains
    assert bare.eigenvalue < dressed.eigenvalue < 0.0
    assert abs(dressed.eigenvalue) < 0.2 * abs(bare.eigenvalue)
