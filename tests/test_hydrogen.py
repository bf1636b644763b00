from __future__ import annotations

import pytest

from gravlab.quantities import CODATA2018
from gravlab.snsolver import hydrogen_diagnostic

C = CODATA2018
HARTREE_EV = C.hartree / 1.602176634e-19   # 27.2114 eV


def report():
    return hydrogen_diagnostic(include_electrostatic_self=True,
                               include_gravitational_self=True)


@pytest.fixture(scope="module")
def rep():
    return report()


def test_ground_state_without_self_terms(rep):
    assert rep.e0_ev == pytest.approx(-0.5 * HARTREE_EV, rel=1e-3)
    assert rep.e0_ev == pytest.approx(-13.606, rel=1e-3)


def test_coulomb_expectation(rep):
    assert rep.coulomb_expectation_ev == pytest.approx(-HARTREE_EV, rel=1e-3)


def test_electrostatic_first_order_is_five_eighths(rep):
    es = next(t for t in rep.terms if t.label == "electrostatic")
    # analytic Hartree integral on the 1s orbital: (5/8) e^2/a0 ~ +17.0 eV
    assert es.first_order_ev == pytest.approx(0.625 * HARTREE_EV, rel=1e-2)
    assert es.ratio_to_coulomb == pytest.approx(0.625, rel=1e-2)
    # self-consistency keeps a state, but binding shrinks by an order of magnitude
    assert es.scf_error is None
    assert -0.2 * HARTREE_EV < es.scf_energy_ev < 0.0


def test_gravitational_term_is_negligible(rep):
    grav = next(t for t in rep.terms if t.label == "gravity")
    expected = -C.G * C.m_e**2 * 0.625 / C.bohr_radius / 1.602176634e-19
    assert grav.first_order_ev == pytest.approx(expected, rel=1e-2, abs=0)
    assert abs(grav.first_order_ev) == pytest.approx(4.1e-42, rel=0.5, abs=0)
    es = next(t for t in rep.terms if t.label == "electrostatic")
    # at least 40 orders of magnitude below the electrostatic term
    assert abs(es.first_order_ev / grav.first_order_ev) > 1e40
    # its coupling kappa/e^2 ~ -2.4e-43 is below one ulp of the atomic-unit well,
    # so the self-consistent energy is the bare one to the bit
    assert grav.scf_energy_ev == rep.e0_ev


def test_flags_control_terms():
    only_es = hydrogen_diagnostic(include_electrostatic_self=True,
                                  include_gravitational_self=False,
                                  r_max_bohr=30.0, n_points=1200)
    assert [t.label for t in only_es.terms] == ["electrostatic"]
    neither = hydrogen_diagnostic(include_electrostatic_self=False,
                                  include_gravitational_self=False,
                                  r_max_bohr=30.0, n_points=1200)
    assert neither.terms == ()
    assert neither.e0_ev == pytest.approx(-13.606, rel=1e-3)


def test_report_serializes(rep):
    payload = rep.to_dict()
    assert payload["e0_eV"] == rep.e0_ev
    assert len(payload["self_terms"]) == 2
