"""Hydrogen ground state with optional electrostatic/gravitational self-terms.

The point of this diagnostic: for a charged particle the kernel coupling also
exists with strength +e^2, and on the hydrogen 1s orbital its first-order
expectation value is (5/8) e^2/a0 -- five eighths of the nuclear Coulomb
expectation, i.e. the same order, which is what rules the coupling out
spectroscopically.  The gravitational analogue for the electron is ~40 orders
of magnitude down.

The bare state is one eigensolve and each self-term one SCF solve of the
``stationary.py`` core, in atomic units: lengths in a0, energies in E_h, the
nuclear well -1/x and the self-term coupling kappa / e^2 (+1 for the
electrostatic term).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import np
from ..errors import ConvergenceError
from ..quantities import CODATA2018, EV, PhysicalConstants
from .state import (
    KernelTerm,
    RadialGrid,
    electrostatic_kernel,
    gravitational_kernel,
    kernel_integral,
    radial_density,
    validate_grid_resolution,
    validate_tail,
)
from .stationary import DEFAULT_TOL, MAX_ITER, _eigensolve, _scf_state


@dataclass(frozen=True)
class SelfTermEntry:
    """One kernel term's contribution to the hydrogen report."""

    label: str
    strength: float            # J m
    first_order_ev: float      # <kappa S> on the unperturbed 1s orbital
    ratio_to_coulomb: float    # first order / |<V_Coulomb>|
    scf_energy_ev: float | None
    scf_error: str | None = None


@dataclass(frozen=True)
class HydrogenReport:
    e0_ev: float                       # ground state without self-terms
    coulomb_expectation_ev: float      # <V_Coulomb> on that state (negative)
    terms: tuple[SelfTermEntry, ...]
    grid_points: int
    r_max_bohr: float

    def to_dict(self) -> dict:
        return {
            "e0_eV": self.e0_ev,
            "coulomb_expectation_eV": self.coulomb_expectation_ev,
            "grid_points": self.grid_points,
            "r_max_bohr": self.r_max_bohr,
            "self_terms": [
                {
                    "label": t.label,
                    "strength_J_m": t.strength,
                    "first_order_eV": t.first_order_ev,
                    "ratio_to_coulomb": t.ratio_to_coulomb,
                    "scf_energy_eV": t.scf_energy_ev,
                    "scf_error": t.scf_error,
                }
                for t in self.terms
            ],
        }


def hydrogen_diagnostic(
    include_electrostatic_self: bool,
    include_gravitational_self: bool,
    *,
    r_max_bohr: float = 40.0,
    n_points: int = 2000,
    constants: PhysicalConstants = CODATA2018,
    scf_tol: float = DEFAULT_TOL,
) -> HydrogenReport:
    """Ground-state energies with and without kernel self-terms, in eV."""
    a0, hartree = constants.bohr_radius, constants.hartree
    grid = RadialGrid.uniform(r_max_bohr * a0, n_points)
    # the Coulomb well's kernel length is a0: ask for POINTS_PER_LENGTH per a0
    validate_grid_resolution(grid, constants.m_e,
                             [KernelTerm(-constants.e2_coulomb, "Coulomb well")], constants)
    dr = grid.spacing
    coulomb = -constants.e2_coulomb / grid.r   # J
    x, dx, well = grid.r / a0, dr / a0, coulomb / hartree

    eps0, u, _ = _eigensolve(x, dx, well, 0)
    validate_tail(u / grid.r)
    e0_ev = eps0 * hartree / EV

    # expectation values on the unperturbed orbital
    weight = radial_density(grid, u)
    coulomb_exp = dr * float(np.sum(coulomb * weight))
    # <S> with S the unit-strength kernel integral; (5/8)/a0 on the exact 1s
    kernel_exp = dr * float(np.sum(kernel_integral(grid.r, weight) * weight))

    requested: list[KernelTerm] = []
    if include_electrostatic_self:
        requested.append(electrostatic_kernel(constants))
    if include_gravitational_self:
        requested.append(gravitational_kernel(constants.m_e, constants))

    entries: list[SelfTermEntry] = []
    for term in requested:
        first_order = term.strength * kernel_exp
        scf_energy = scf_error = None
        try:
            # each term is examined alone, against the bare Coulomb problem
            eps = _scf_state(x, dx, well, term.strength / constants.e2_coulomb,
                             np.zeros_like(x), 0, scf_tol, MAX_ITER)[0]
            scf_energy = eps * hartree / EV
        except ConvergenceError as exc:
            scf_error = str(exc)
        entries.append(
            SelfTermEntry(
                label=term.label,
                strength=term.strength,
                first_order_ev=first_order / EV,
                ratio_to_coulomb=first_order / abs(coulomb_exp),
                scf_energy_ev=scf_energy,
                scf_error=scf_error,
            )
        )

    return HydrogenReport(
        e0_ev=e0_ev,
        coulomb_expectation_ev=coulomb_exp / EV,
        terms=tuple(entries),
        grid_points=n_points,
        r_max_bohr=r_max_bohr,
    )
