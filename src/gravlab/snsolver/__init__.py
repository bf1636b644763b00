"""Self-coupled wave equation: states, stationary solvers, evolution, hydrogen.

A ``WaveState`` is its radial amplitude u = sqrt(4 pi) r psi, of norm dr sum |u|^2 = 1.
``evolve``, ``suggested_dt``, ``validate_step_size`` and ``rayleigh_quotient``
take the net kernel strength kappa; a state carries no coupling.

The tridiagonal eigensolve, the SCF's ``dgtsv`` steps and ``evolve``'s kinetic
steps (one ``zgttrf`` per run, one ``zgttrs`` per step) call LAPACK in numpy's
bundled OpenBLAS through ``_lapack``, which the functions that call it import,
so no SN command loads scipy and importing this package does not load
``_lapack``; ``tests/test_cli.py`` guards the first.  Where numpy ships no such
library, ``_lapack`` takes the same routines from ``scipy.linalg`` on first use.
"""

from .evolution import (
    EvolutionResult,
    evolve,
    free_gaussian_width_squared,
    suggested_dt,
    validate_step_size,
)
from .hydrogen import HydrogenReport, SelfTermEntry, hydrogen_diagnostic
from .state import (
    KernelTerm,
    RadialGrid,
    WaveState,
    electrostatic_kernel,
    gravitational_kernel,
    kernel_integral,
    load_state_csv,
    validate_grid_resolution,
    validate_tail,
)
from .stationary import StationaryState, count_nodes, rayleigh_quotient, stationary_states

__all__ = [
    "EvolutionResult",
    "HydrogenReport",
    "KernelTerm",
    "RadialGrid",
    "SelfTermEntry",
    "StationaryState",
    "WaveState",
    "count_nodes",
    "electrostatic_kernel",
    "evolve",
    "free_gaussian_width_squared",
    "gravitational_kernel",
    "hydrogen_diagnostic",
    "kernel_integral",
    "load_state_csv",
    "rayleigh_quotient",
    "stationary_states",
    "suggested_dt",
    "validate_grid_resolution",
    "validate_step_size",
    "validate_tail",
]
