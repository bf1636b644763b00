"""The LAPACK binding of the SN solvers against scipy's wrappers of the same routines."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, zgttrf, zgttrs

from gravlab.quantities import CODATA2018 as C
from gravlab.quantities import kernel_length
from gravlab.snsolver import (RadialGrid, WaveState, evolve, gravitational_kernel,
                              stationary_states, suggested_dt)
from gravlab.snsolver import _lapack
from gravlab.snsolver.stationary import _gaussian_kernel_seed

# numpy wheels built against scipy-openblas ship the library that _lapack binds
needs_openblas = pytest.mark.skipif(
    np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas",
    reason="this numpy ships no scipy-openblas64 library")


def scf_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the SCF's first eigensolve on r_max = 250 lengths."""
    x = RadialGrid.uniform(250.0, n).r
    dx = float(x[1] - x[0])
    return 1.0 / dx**2 - _gaussian_kernel_seed(x, 2.0), np.full(n - 1, -0.5 / dx**2)


def random_tridiagonal(n: int, seed: int, real: bool = False) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    dl, d, du, b = (rng.normal(size=size) + (0.0 if real else 1j * rng.normal(size=size))
                    for size in (n - 1, n, n - 1, n))
    return [dl, d, du, b]


@needs_openblas
def test_the_library_of_numpys_wheel_is_bound():
    assert _lapack._openblas() is not None


@needs_openblas
@pytest.mark.parametrize("n", [2400, 8000])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_eigenpair_matches_eigh_tridiagonal_bit_for_bit(n, k):
    diag, off = scf_matrix(n)
    eps, u = _lapack.eigenpair(diag, off, k)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(k, k))
    assert eps == vals[0]
    assert np.array_equal(u, vecs[:, 0])


@needs_openblas
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tridiagonal_solves_match_scipys_bit_for_bit(seed):
    dl, d, du, b = random_tridiagonal(500, seed)
    *factors, info = zgttrf(dl, d, du)
    assert info == 0
    expected, info = zgttrs(*factors, b)
    assert info == 0
    assert np.array_equal(_lapack.gttrs(_lapack.gttrf(dl, d, du), b.copy()), expected)


@needs_openblas
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_tridiagonal_solves_match_scipys_dgtsv_bit_for_bit(seed):
    dl, d, du, b = random_tridiagonal(500, seed, real=True)
    *_, expected, info = dgtsv(dl, d, du, b)
    assert info == 0
    x = _lapack.gtsv(dl, d.copy(), du, b.copy())
    assert x.dtype == np.float64
    assert np.array_equal(x, expected)


def test_gtsv_leaves_the_off_diagonals_as_they_are():
    dl, d, du, b = random_tridiagonal(50, 3, real=True)
    kept = dl.copy(), du.copy()
    _lapack.gtsv(dl, d, du, b)
    assert np.array_equal(dl, kept[0]) and np.array_equal(du, kept[1])


@pytest.mark.parametrize("where", ["diag", "off"])
def test_a_non_finite_matrix_entry_raises_value_error(where):
    diag, off = scf_matrix(100)
    {"diag": diag, "off": off}[where][10] = np.nan
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _lapack.eigenpair(diag, off, 0)


def test_a_singular_system_raises_lin_alg_error():
    # scipy's LinAlgError is numpy's, so callers that catch either still catch it
    zero = [np.zeros(7), np.zeros(8), np.zeros(7)]
    with pytest.raises(LinAlgError, match="dgtsv failed with info = 1"):
        _lapack.gtsv(*zero, np.ones(8))
    with pytest.raises(LinAlgError, match="zgttrf failed with info = 1"):
        _lapack.gttrf(*zero)


MASS = 1e-17


def evolution_bits(coupled: bool) -> list[np.ndarray]:
    a = kernel_length(MASS, C.G * MASS**2, C)
    state = WaveState.gaussian_packet(RadialGrid.uniform(60.0 * a, 600), 2.0 * a, MASS)
    kappa = gravitational_kernel(MASS, C).strength if coupled else 0.0
    result = evolve(state, 0.9 * suggested_dt(state, kappa, C), 100, kappa=kappa, record_every=9)
    return [result.times, result.norm, result.energy, result.width, result.final_u]


@needs_openblas
def test_the_scipy_fallback_gives_the_ctypes_paths_bits(monkeypatch):
    # an SCF spectrum at the README's sn-spectrum size (stebz + stein, then
    # warm-started dgtsv steps) and the coupled and kernel-free evolutions
    # (gttrf + gttrs), with the library lookup finding nothing
    grid = RadialGrid.uniform(250.0 * kernel_length(MASS, C.G * MASS**2, C), 8000)

    def run() -> tuple[list, list]:
        states = stationary_states(MASS, [gravitational_kernel(MASS, C)], 3, grid=grid)
        return ([(s.eigenvalue, s.state.u, s.iterations, s.full_eigensolves) for s in states],
                [evolution_bits(coupled) for coupled in (True, False)])

    bound = run()
    monkeypatch.setattr(_lapack, "_library_paths", lambda: [])
    _lapack._openblas.cache_clear()
    try:
        assert _lapack._openblas() is None
        fallback = run()
    finally:
        _lapack._openblas.cache_clear()

    (states, runs), (states_fb, runs_fb) = bound, fallback
    for (eps, u, *counts), (eps_fb, u_fb, *counts_fb) in zip(states, states_fb):
        assert eps == eps_fb
        assert np.array_equal(u, u_fb)
        assert counts == counts_fb
    for bits, bits_fb in zip(runs, runs_fb):
        assert all(np.array_equal(a, b) for a, b in zip(bits, bits_fb))
