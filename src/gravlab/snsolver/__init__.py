"""Self-coupled wave equation: states, stationary solvers, evolution, hydrogen.

scipy is imported inside the functions that call it (the tridiagonal
eigensolve, the Crank-Nicolson banded solve), so importing this package
does not load it; ``tests/test_cli.py`` guards that.
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
    self_potential,
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
    "self_potential",
    "stationary_states",
    "suggested_dt",
    "validate_grid_resolution",
    "validate_step_size",
    "validate_tail",
]
