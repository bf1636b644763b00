"""Every manifest ends in one of three ways: exit 0 with a bundle, exit 1 with
a bundle that names a typed error, or exit 2 with the offending field named on
stderr and nothing written.  Never a traceback."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravlab.cli import RunManifest, main
from gravlab.errors import ManifestError
from gravlab.massdist import _ball_overlap
from gravlab.quantities import CODATA2018

G = CODATA2018.G
SPHERE = {"kind": "uniform_sphere", "mass_kg": 1.0, "radius_m": 1.0}
SPHERE_AT_4 = dict(SPHERE, center_m=[4.0, 0.0, 0.0])
SN_GRID = {"points": 200, "r_max": 30.0, "units": "natural"}

# one valid, cheap manifest per command; at 200 points the Schrodinger-Newton
# grids are too coarse for the resolution check, so those end in exit 1
BASE = {
    "feynman-scale": {},
    "selfenergy": {"shape": {"kind": "gaussian", "mass_kg": 1.0, "width_m": 1.0},
                   "method": "auto", "monte_carlo": True, "mc_samples": 500},
    "e-delta": {"shape_a": SPHERE, "shape_b": SPHERE_AT_4, "amp_a": [0.6, 0.0],
                "amp_b": [0.8, 0.0], "method": "auto", "monte_carlo": True,
                "mc_samples": 500},
    "collapse-time": {"shape_a": SPHERE, "shape_b": SPHERE_AT_4, "prefactor": 2.0},
    "lifetime-sweep": {"shape": SPHERE, "prefactor": 1.0,
                       "sweep": {"kind": "mass-scale", "values": [1.0, 2.0],
                                 "separation_m": 3.0}},
    "sn-ground": {"mass_kg": 1e-17, "couplings": ["gravity"], "method": "scf",
                  "n_states": 1, "grid": SN_GRID},
    "sn-spectrum": {"mass_kg": 1e-17, "method": "scf", "n_states": 1, "grid": SN_GRID},
    "sn-evolve": {"mass_kg": 1e-17, "couplings": ["gravity"], "n_steps": 10,
                  "record_every": 5, "sigma0_natural": 2.0, "dt_fraction": 0.9,
                  "compare_free": True, "grid": {"points": 200, "r_max": 6.0}},
    "hydrogen-shift": {"electrostatic": True, "gravitational": True, "points": 200,
                       "r_max_bohr": 30.0},
    "collapse-sim": {"n": 1000, "rate_per_s": 1.0, "weights": [0.36, 0.64],
                     "branch_energies_J": [1.0, 2.0], "interference_energy_J": 0.1},
}


def run_manifest(tmp_path: Path, payload: dict) -> tuple[int, Path]:
    source = tmp_path / "input.json"
    source.write_text(json.dumps(payload))
    outdir = tmp_path / "out"
    code = main([payload["command"], "--manifest", str(source), "--output-dir", str(outdir)])
    return code, outdir


def manifest(command: str, **changes) -> dict:
    """BASE[command] with top-level ``parameters`` entries replaced or added."""
    return {"command": command, "parameters": {**copy.deepcopy(BASE[command]), **changes}}


NEAR_CONCENTRIC = {
    "shape_a": {"kind": "uniform_sphere", "mass_kg": 1.0, "radius_m": 11.0,
                "center_m": [0.0, 0.0, 1e-14]},
    "shape_b": {"kind": "spherical_shell", "mass_kg": 1.0, "radius_m": 9.0},
}

REJECTED = [
    (manifest("selfenergy", method="bogus"), "parameters.method"),
    (manifest("sn-ground", grid={"points": "abc"}), "parameters.grid.points"),
    (manifest("sn-ground", method="bogus"), "parameters.method"),
    (manifest("hydrogen-shift", points="x"), "parameters.points"),
    (manifest("sn-evolve", dt_fraction="x"), "parameters.dt_fraction"),
    (manifest("sn-ground", couplings=[{"strength_J_m": "x"}]),
     "parameters.couplings[0].strength_J_m"),
    (manifest("lifetime-sweep", sweep={"kind": "separation", "values": ["x"]}),
     "parameters.sweep.values[0]"),
    (manifest("lifetime-sweep", prefactor=-1), "parameters.prefactor"),
    (manifest("collapse-sim", weights=[1.0]), "parameters.weights"),
    (manifest("e-delta", amp_a=[1]), "parameters.amp_a"),
    ({**manifest("feynman-scale"), "seed": "abc"}, "seed"),
    ({**manifest("feynman-scale"), "parameters": [1]}, "parameters"),
    (manifest("collapse-sim", n=1000.7), "parameters.n"),
    (manifest("selfenergy", mc_samples=0), "parameters.mc_samples"),
    (manifest("collapse-sim", samples=10), "parameters.samples"),
    (manifest("collapse-sim", weights=[1.5, -0.5]), "parameters.weights"),
    (manifest("lifetime-sweep", sweep={"kind": "mass-scale", "values": [1.0]}),
     "parameters.sweep.separation_m"),
    (manifest("lifetime-sweep", sweep={"kind": "mass-scale", "values": [-1.0],
                                       "separation_m": 3.0}), "parameters.sweep.values"),
    (manifest("hydrogen-shift", electrostatic=1), "parameters.electrostatic"),
    (manifest("selfenergy", shape={"kind": "gaussian", "mass_kg": True, "width_m": 1.0}),
     "parameters.shape.mass_kg"),
    (manifest("collapse-time", shape_b=dict(SPHERE, center_m=["4", 0, 0])),
     "parameters.shape_b.center_m[0]"),
    (manifest("collapse-time", shape_b=dict(SPHERE, centre_m=[4, 0, 0])),
     "parameters.shape_b.centre_m"),
]


@pytest.mark.parametrize("payload, field", REJECTED,
                         ids=[f"{payload['command']}:{field}" for payload, field in REJECTED])
def test_malformed_values_exit_2_naming_the_field(tmp_path, capsys, payload, field):
    code, outdir = run_manifest(tmp_path, payload)
    assert code == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not outdir.exists()


FAILED = [
    pytest.param(manifest("e-delta", shape_a={"kind": "gaussian", "mass_kg": 1.0, "width_m": 1.0},
                          method="analytic"), "NoClosedForm", id="NoClosedForm"),
    # finite, in-range inputs whose numerics overflow or divide by zero
    pytest.param(manifest("selfenergy", shape={"kind": "gaussian", "mass_kg": 1.0,
                                               "width_m": 1e300}),
                 "OverflowError", id="selfenergy:width_m=1e300"),
    pytest.param(manifest("e-delta", shape_a=dict(SPHERE, radius_m=1e-300)),
                 "ZeroDivisionError", id="e-delta:radius_m=1e-300"),
    pytest.param(manifest("sn-ground", mass_kg=1e300), "OverflowError",
                 id="sn-ground:mass_kg=1e300"),
    pytest.param(manifest("sn-evolve", sigma0_natural=1e300), "OverflowError",
                 id="sn-evolve:sigma0_natural=1e300"),
    pytest.param(manifest("hydrogen-shift", r_max_bohr=1e-300), "ZeroDivisionError",
                 id="hydrogen-shift:r_max_bohr=1e-300"),
]


@pytest.mark.parametrize("payload, error_type", FAILED)
def test_compute_errors_exit_1_with_a_bundle(tmp_path, payload, error_type):
    code, outdir = run_manifest(tmp_path, payload)
    assert code == 1
    bundle = json.loads((outdir / "result_bundle.json").read_text())
    assert bundle["error"]["type"] == error_type
    assert [f["name"] for f in bundle["files"]] == ["manifest.json"]


def test_near_concentric_e_delta_exits_0_with_the_concentric_value(tmp_path):
    # d = 1e-14 m adds O(d^2) to E_delta(0) = U[ball] + U[shell] - mutual(d = 0)
    code, outdir = run_manifest(tmp_path, manifest("e-delta", **NEAR_CONCENTRIC,
                                                   monte_carlo=False))
    assert code == 0
    summary = json.loads((outdir / "e_delta.json").read_text())
    expected = G * (0.6 / 11.0 + 0.5 / 9.0 - 282.0 / 2662.0)
    assert summary["e_delta_J"] == pytest.approx(expected, rel=1e-9)


def test_profile_sweep_is_accurate_at_small_separation(tmp_path):
    # a uniform ball sampled as a radial profile takes the Gauss-law engine
    rho = 3.0 / (4.0 * math.pi)
    profile = {"kind": "radial_profile", "r_m": [i / 15 for i in range(16)],
               "rho_kg_m3": [rho] * 16, "mass_kg": 1.0}
    code, outdir = run_manifest(tmp_path, manifest(
        "lifetime-sweep", shape=profile, sweep={"kind": "separation", "values": [1e-6, 2.0]}))
    assert code == 0
    summary = json.loads((outdir / "lifetime_sweep.json").read_text())
    assert summary["errors"] == 0
    assert summary["rows"][0]["E_delta_J"] == pytest.approx(G * _ball_overlap(1e-6), rel=1e-6)
    assert summary["rows"][1]["E_delta_J"] > 0.0


def test_sweep_records_divergent_rows_and_exits_0(tmp_path):
    code, outdir = run_manifest(tmp_path, manifest(
        "lifetime-sweep", shape={"kind": "point_mass", "mass_kg": 1.0},
        sweep={"kind": "separation", "values": [1.0, 2.0]}))
    assert code == 0
    summary = json.loads((outdir / "lifetime_sweep.json").read_text())
    assert summary["errors"] == 2
    assert [row["parameter"] for row in summary["rows"]] == [1.0, 2.0]
    assert all("smearing_length" in row["error"] for row in summary["rows"])


@pytest.mark.parametrize("changes, field", [
    ({"seed": "abc"}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"parameters": [1]}, "parameters"),
    ({"tolerances": "tight"}, "tolerances"),
    ({"constant_overrides": []}, "constant_overrides"),
    ({"output_dir": 3}, "output_dir"),
    ({"scale_system": "imperial"}, "scale_system"),
    ({"colour": "blue"}, "colour"),
    ({"command": ["feynman-scale"]}, "command"),
])
def test_from_dict_checks_its_own_fields(changes, field):
    with pytest.raises(ManifestError) as info:
        RunManifest.from_dict({"command": "feynman-scale", **changes})
    assert info.value.field == field


def _paths(node: dict, at: tuple = ()):
    for key, value in node.items():
        yield at + (key,)
        if isinstance(value, dict):
            yield from _paths(value, at + (key,))


def _wrong_type(value):
    if isinstance(value, str):
        return 7
    return [1] if isinstance(value, dict) else "x"


MUTATIONS = {
    "wrong type": _wrong_type,
    "bool": lambda value: True,
    "fraction": lambda value: 2.5,
    "zero": lambda value: 0,
    "negative": lambda value: -1,
    "unknown choice": lambda value: "bogus",
}


@st.composite
def mutated_manifests(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    payload = {"command": command, "parameters": copy.deepcopy(BASE[command]), "seed": 3,
               "scale_system": "si", "tolerances": {}, "constant_overrides": {}}
    *parents, key = draw(st.sampled_from(list(_paths(payload))))
    node = payload
    for name in parents:
        node = node[name]
    mutation = draw(st.sampled_from(sorted(MUTATIONS) + ["unknown key", "missing"]))
    if mutation == "missing":
        del node[key]
    elif mutation == "unknown key":
        node[key + "_typo"] = 1
    else:
        node[key] = MUTATIONS[mutation](node[key])
    return command, payload


@settings(max_examples=60, deadline=None)
@given(case=mutated_manifests())
def test_fuzzed_manifests_end_in_exit_0_1_or_2(tmp_path_factory, case):
    command, payload = case
    tmp_path = tmp_path_factory.mktemp("fuzz")
    source = tmp_path / "input.json"
    source.write_text(json.dumps(payload))
    outdir = tmp_path / "out"
    code = main([command, "--manifest", str(source), "--output-dir", str(outdir)])
    assert code in (0, 1, 2)
    if code == 2:
        assert not outdir.exists()
    else:
        assert (outdir / "result_bundle.json").exists()
