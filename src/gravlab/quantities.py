"""Physical constants and unit scale systems.

Every solver module consumes these: constants are CODATA 2018 by default and
immutable; a ScaleSystem gives the SI length, time, energy and reference mass
of one system unit.  The SN-NATURAL system makes the self-gravitating
wavefunction problem parameter-free; ATOMIC is the usual Bohr/Hartree system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        for name in ("hbar", "G", "c", "e2_coulomb", "m_e"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"constant {name} must be strictly positive, got {value!r}")

    def with_overrides(self, **overrides: float) -> "PhysicalConstants":
        unknown = set(overrides) - {"hbar", "G", "c", "e2_coulomb", "m_e"}
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


@dataclass(frozen=True)
class ScaleSystem:
    """Mapping from a unit system's base scales to SI.

    One system unit of length equals ``length_scale`` meters, and so on.
    """

    length_scale: float
    time_scale: float
    energy_scale: float
    mass_reference: float
    label: str

    @staticmethod
    def si() -> "ScaleSystem":
        return ScaleSystem(1.0, 1.0, 1.0, 1.0, "SI")

    @staticmethod
    def sn_natural(mass: float, constants: PhysicalConstants = CODATA2018) -> "ScaleSystem":
        """Natural units of the self-gravitating problem for reference mass ``mass``.

        length = hbar^2/(G m^3), energy = G^2 m^5 / hbar^2, time = hbar/energy,
        so the dimensionless gravitational problem carries no free parameter.
        """
        if not mass > 0.0:
            raise ValueError(f"mass_reference must be positive, got {mass}")
        energy = constants.G**2 * mass**5 / constants.hbar**2
        return ScaleSystem(
            length_scale=kernel_length(mass, constants.G * mass**2, constants),
            time_scale=constants.hbar / energy,
            energy_scale=energy,
            mass_reference=mass,
            label="SN-NATURAL",
        )

    @staticmethod
    def atomic(constants: PhysicalConstants = CODATA2018) -> "ScaleSystem":
        """Bohr radius / Hartree units with the electron as reference mass."""
        hartree = constants.hartree
        return ScaleSystem(
            length_scale=constants.bohr_radius,
            time_scale=constants.hbar / hartree,
            energy_scale=hartree,
            mass_reference=constants.m_e,
            label="ATOMIC",
        )


def scale_system_from_label(
    label: str, mass_reference: float | None = None, constants: PhysicalConstants = CODATA2018
) -> ScaleSystem:
    """Build the named system; ``mass_reference`` is required for sn-natural."""
    key = label.strip().lower()
    if key == "si":
        return ScaleSystem.si()
    if key == "atomic":
        return ScaleSystem.atomic(constants)
    if key == "sn-natural":
        if mass_reference is None:
            raise ValueError("sn-natural scale system needs a reference mass")
        return ScaleSystem.sn_natural(mass_reference, constants)
    raise ValueError(f"unknown scale system {label!r}; expected si, sn-natural, or atomic")
