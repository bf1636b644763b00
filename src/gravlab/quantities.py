"""Physical constants and the energy scales eigenvalues are reported in.

Every solver module consumes these: constants are CODATA 2018 by default and
immutable.  ENERGY_SCALES gives the joules per unit energy of each scale
system that ``--scale`` names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

# Exact SI defining constants (2019 redefinition) used to derive defaults.
_PLANCK_H = 6.62607015e-34        # J s, exact
_E_CHARGE = 1.602176634e-19       # C, exact
_EPSILON_0 = 8.8541878128e-12     # F/m, CODATA 2018

#: Joules per electronvolt.
EV = _E_CHARGE * 1.0


@dataclass(frozen=True)
class PhysicalConstants:
    """Immutable bundle of the constants this package needs (SI values).

    Defaults are CODATA 2018; override individual values only through
    :meth:`with_overrides` (used by the run-manifest machinery).
    """

    hbar: float = _PLANCK_H / (2.0 * math.pi)   # J s
    G: float = 6.67430e-11                      # m^3 kg^-1 s^-2
    c: float = 299792458.0                      # m/s, exact
    e2_coulomb: float = _E_CHARGE**2 / (4.0 * math.pi * _EPSILON_0)  # J m
    m_e: float = 9.1093837015e-31               # kg

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"constant {field.name} must be strictly positive, got {value!r}")

    def with_overrides(self, **overrides: float) -> "PhysicalConstants":
        unknown = set(overrides) - {field.name for field in fields(self)}
        if unknown:
            raise ValueError(f"unknown constants: {sorted(unknown)}")
        return replace(self, **overrides)

    @property
    def bohr_radius(self) -> float:
        """a0 = hbar^2 / (m_e e^2), meters."""
        return kernel_length(self.m_e, self.e2_coulomb, self)

    @property
    def hartree(self) -> float:
        """E_h = m_e e^4 / hbar^2, joules."""
        return self.m_e * self.e2_coulomb**2 / self.hbar**2


#: Module-wide default constants instance.
CODATA2018 = PhysicalConstants()


def kernel_length(mass: float, kappa: float,
                  constants: PhysicalConstants = CODATA2018) -> float:
    """Characteristic length hbar^2 / (m |kappa|) of a kernel of strength kappa:
    the SN-natural length for gravity, the Bohr radius for the Coulomb kernel."""
    return constants.hbar**2 / (mass * abs(kappa))


#: Joules per unit energy of each scale system the CLI reports eigenvalues in,
#: from the reference mass and the constants.  SN-natural units, energy
#: G^2 m^5 / hbar^2 and length hbar^2 / (G m^3), make the self-gravitating
#: problem parameter-free; atomic units are Hartree units.
ENERGY_SCALES = {
    "si": lambda mass, constants: 1.0,
    "sn-natural": lambda mass, constants: constants.G**2 * mass**5 / constants.hbar**2,
    "atomic": lambda mass, constants: constants.hartree,
}
