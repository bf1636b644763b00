from __future__ import annotations

import pytest

from gravlab.quantities import (
    CODATA2018,
    ENERGY_SCALES,
    EV,
    PhysicalConstants,
    kernel_length,
)


def test_defaults_are_codata2018():
    c = CODATA2018
    assert c.hbar == pytest.approx(1.054571817e-34, rel=1e-9, abs=0)
    assert c.G == 6.67430e-11
    assert c.c == 299792458.0
    assert c.e2_coulomb == pytest.approx(2.307077552e-28, rel=1e-9, abs=0)
    assert c.m_e == 9.1093837015e-31


def test_constants_immutable_and_positive():
    with pytest.raises(Exception):
        CODATA2018.G = 1.0  # type: ignore[misc]
    with pytest.raises(ValueError):
        PhysicalConstants(G=-1.0)
    with pytest.raises(ValueError):
        CODATA2018.with_overrides(G=0.0)
    assert CODATA2018.with_overrides(G=1e-10).G == 1e-10


def test_sn_natural_definitions():
    m = 1e-17
    c = CODATA2018
    energy = ENERGY_SCALES["sn-natural"](m, c)
    assert energy == pytest.approx(c.G**2 * m**5 / c.hbar**2, rel=1e-14, abs=0)
    assert kernel_length(m, c.G * m**2, c) == pytest.approx(c.hbar**2 / (c.G * m**3),
                                                            rel=1e-14, abs=0)


def test_hartree_value():
    # E_h = m_e e^4 / hbar^2 evaluates to 27.211386... eV from CODATA constants
    hartree = ENERGY_SCALES["atomic"](None, CODATA2018)
    assert hartree / EV == pytest.approx(27.211386, rel=1e-6)
    assert 27.211386245988 * EV / hartree == pytest.approx(1.0, rel=1e-7)
