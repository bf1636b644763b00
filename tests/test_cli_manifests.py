"""Every manifest ends in one of three ways: exit 0 with a bundle, exit 1 with
a bundle that names a typed error, or exit 2 with the offending field named on
stderr and nothing written.  Never a traceback."""

from __future__ import annotations

import copy
import json
import math
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravlab.cli import COMMANDS, RunManifest, main
from gravlab.collapsesim import CollapseModel
from gravlab.errors import ManifestError
from gravlab.massdist import SuperpositionSpec, _ball_overlap, shape_from_dict
from gravlab.quantities import CODATA2018

G = CODATA2018.G
SPHERE = {"kind": "uniform_sphere", "mass_kg": 1.0, "radius_m": 1.0}
SPHERE_AT_4 = dict(SPHERE, center_m=[4.0, 0.0, 0.0])
GAUSSIAN = {"kind": "gaussian", "mass_kg": 1.0, "width_m": 1.0}
SN_GRID = {"points": 200, "r_max": 30.0, "units": "natural"}
SI_GRID = {"points": 200, "r_max": 1e-3, "units": "si"}

# one valid, cheap manifest per command; at 200 points the Schrodinger-Newton
# grids are too coarse for the resolution check, so those end in exit 1
BASE = {
    "feynman-scale": {},
    "selfenergy": {"shape": {"kind": "gaussian", "mass_kg": 1.0, "width_m": 1.0},
                   "method": "auto", "monte_carlo": True, "mc_samples": 500,
                   "tolerance": 1e-6},
    "e-delta": {"shape_a": SPHERE, "shape_b": SPHERE_AT_4, "method": "auto",
                "monte_carlo": True, "mc_samples": 500, "tolerance": 1e-6},
    "collapse-time": {"shape_a": SPHERE, "shape_b": SPHERE_AT_4, "prefactor": 2.0,
                      "tolerance": 1e-6},
    "lifetime-sweep": {"shape": SPHERE, "prefactor": 1.0, "tolerance": 1e-6,
                       "sweep": {"kind": "mass-scale", "values": [1.0, 2.0],
                                 "separation_m": 3.0}},
    "sn-ground": {"mass_kg": 1e-17, "couplings": ["gravity"], "method": "scf",
                  "grid": SN_GRID, "tolerance": 1e-8, "scale_system": "si"},
    "sn-spectrum": {"mass_kg": 1e-17, "method": "scf", "n_states": 1, "grid": SN_GRID,
                    "tolerance": 1e-8, "scale_system": "si"},
    "sn-evolve": {"mass_kg": 1e-17, "couplings": ["gravity"], "n_steps": 10,
                  "sigma0": 2.0, "compare_free": True, "grid": {"points": 600, "r_max": 18.0}},
    "hydrogen-shift": {"electrostatic": True, "gravitational": True, "points": 800,
                       "r_max_bohr": 24.0, "tolerance": 1e-8},
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


def without(payload: dict, *keys: str) -> dict:
    """``payload`` with the top-level ``parameters`` entries ``keys`` removed."""
    for key in keys:
        del payload["parameters"][key]
    return payload


def shapes_sim(**changes) -> dict:
    """BASE's collapse-sim with its rate from two branch shapes and default weights."""
    payload = without(manifest("collapse-sim", shape_a=SPHERE, shape_b=SPHERE_AT_4),
                      "rate_per_s", "weights")
    payload["parameters"].update(changes)
    return payload


NEAR_CONCENTRIC = {
    "shape_a": {"kind": "uniform_sphere", "mass_kg": 1.0, "radius_m": 11.0,
                "center_m": [0.0, 0.0, 1e-14]},
    "shape_b": {"kind": "spherical_shell", "mass_kg": 1.0, "radius_m": 9.0},
}

# a setting that its command's route does not read, or that the route needs and
# lacks: one case for each Param row with a `when`
ROUTED = [
    pytest.param(manifest("selfenergy", monte_carlo=False), "parameters.mc_samples",
                 id="selfenergy:parameters.mc_samples:no-monte-carlo"),
    pytest.param(manifest("e-delta", monte_carlo=False), "parameters.mc_samples",
                 id="e-delta:parameters.mc_samples:no-monte-carlo"),
    pytest.param(manifest("lifetime-sweep", sweep={"kind": "mass-scale", "values": [1.0]}),
                 "parameters.sweep.separation_m",
                 id="lifetime-sweep:parameters.sweep.separation_m"),
    pytest.param(manifest("lifetime-sweep", sweep={"kind": "separation", "values": [2.0],
                                                   "separation_m": 5.0}),
                 "parameters.sweep.separation_m",
                 id="lifetime-sweep:parameters.sweep.separation_m:separation-sweep"),
    pytest.param(manifest("sn-ground", method="shooting"), "parameters.tolerance",
                 id="sn-ground:parameters.tolerance:shooting"),
    pytest.param(manifest("sn-spectrum", method="shooting"), "parameters.tolerance",
                 id="sn-spectrum:parameters.tolerance:shooting"),
    pytest.param(manifest("sn-evolve", initial_state_csv="state.csv"), "parameters.sigma0",
                 id="sn-evolve:parameters.sigma0:initial_state_csv"),
    *[pytest.param(without(manifest("sn-evolve", initial_state_csv="state.csv",
                                    grid={key: value}), "sigma0"),
                   f"parameters.grid.{key}",
                   id=f"sn-evolve:parameters.grid.{key}:initial_state_csv")
      for key, value in [("r_max", 18.0), ("points", 600), ("units", "si")]],
    # a collapse rate comes from rate_per_s or from the two branch shapes, not both
    pytest.param(without(manifest("collapse-sim"), "rate_per_s"), "parameters.shape_a",
                 id="collapse-sim:parameters.shape_a:no-source"),
    pytest.param(manifest("collapse-sim", shape_a=SPHERE, shape_b=SPHERE_AT_4, prefactor=5.0),
                 "parameters.shape_a", id="collapse-sim:parameters.shape_a:rate"),
    pytest.param(manifest("collapse-sim", shape_b=SPHERE_AT_4), "parameters.shape_b",
                 id="collapse-sim:parameters.shape_b:rate"),
    pytest.param(manifest("collapse-sim", prefactor=5.0), "parameters.prefactor",
                 id="collapse-sim:parameters.prefactor:rate"),
    pytest.param(manifest("collapse-sim", tolerance=1e-3), "parameters.tolerance",
                 id="collapse-sim:parameters.tolerance:rate"),
]

# each case names its own id, so adding a case renames no other test
REJECTED = [
    *ROUTED,
    pytest.param(manifest("selfenergy", method="bogus"), "parameters.method",
                 id="selfenergy:parameters.method"),
    # auto takes the closed forms, so there is no separate closed-form method
    pytest.param(manifest("e-delta", method="analytic"), "parameters.method",
                 id="e-delta:parameters.method:analytic"),
    pytest.param(manifest("sn-ground", grid={"points": "abc"}), "parameters.grid.points",
                 id="sn-ground:parameters.grid.points"),
    pytest.param(manifest("sn-ground", method="bogus"), "parameters.method",
                 id="sn-ground:parameters.method"),
    pytest.param(manifest("hydrogen-shift", points="x"), "parameters.points",
                 id="hydrogen-shift:parameters.points"),
    pytest.param(manifest("sn-evolve", sigma0="x"), "parameters.sigma0",
                 id="sn-evolve:parameters.sigma0"),
    pytest.param(manifest("sn-ground", couplings=[{"strength_J_m": "x"}]),
                 "parameters.couplings[0].strength_J_m",
                 id="sn-ground:parameters.couplings[0].strength_J_m"),
    pytest.param(manifest("lifetime-sweep", sweep={"kind": "separation", "values": ["x"]}),
                 "parameters.sweep.values[0]", id="lifetime-sweep:parameters.sweep.values[0]"),
    pytest.param(manifest("lifetime-sweep", prefactor=-1), "parameters.prefactor",
                 id="lifetime-sweep:parameters.prefactor"),
    pytest.param(manifest("collapse-sim", weights=[1.0]), "parameters.weights",
                 id="collapse-sim:parameters.weights:one-branch"),
    pytest.param({**manifest("feynman-scale"), "seed": "abc"}, "seed",
                 id="feynman-scale:seed"),
    pytest.param({**manifest("feynman-scale"), "parameters": [1]}, "parameters",
                 id="feynman-scale:parameters"),
    pytest.param(manifest("collapse-sim", n=1000.7), "parameters.n",
                 id="collapse-sim:parameters.n"),
    pytest.param(manifest("selfenergy", mc_samples=0), "parameters.mc_samples",
                 id="selfenergy:parameters.mc_samples"),
    pytest.param(manifest("collapse-sim", samples=10), "parameters.samples",
                 id="collapse-sim:parameters.samples"),
    pytest.param(manifest("collapse-sim", weights=[1.5, -0.5]), "parameters.weights",
                 id="collapse-sim:parameters.weights:negative"),
    pytest.param(shapes_sim(weights=[1.5, -0.5]), "parameters.weights",
                 id="collapse-sim:parameters.weights:negative-shapes"),
    pytest.param(manifest("lifetime-sweep", sweep={"kind": "mass-scale", "values": [-1.0],
                                                   "separation_m": 3.0}),
                 "parameters.sweep.values", id="lifetime-sweep:parameters.sweep.values"),
    pytest.param(manifest("hydrogen-shift", electrostatic=1), "parameters.electrostatic",
                 id="hydrogen-shift:parameters.electrostatic"),
    pytest.param(manifest("selfenergy",
                          shape={"kind": "gaussian", "mass_kg": True, "width_m": 1.0}),
                 "parameters.shape.mass_kg", id="selfenergy:parameters.shape.mass_kg"),
    pytest.param(manifest("collapse-time", shape_b=dict(SPHERE, center_m=["4", 0, 0])),
                 "parameters.shape_b.center_m[0]",
                 id="collapse-time:parameters.shape_b.center_m[0]"),
    pytest.param(manifest("collapse-time", shape_b=dict(SPHERE, centre_m=[4, 0, 0])),
                 "parameters.shape_b.centre_m", id="collapse-time:parameters.shape_b.centre_m"),
    # a kernel-free problem has no self-bound state, on an SI grid as on a natural one
    pytest.param(manifest("sn-ground", couplings=[], grid=SI_GRID), "parameters.couplings",
                 id="sn-ground:parameters.couplings:kernel-free"),
    pytest.param(manifest("sn-ground", couplings=[]), "parameters.couplings",
                 id="sn-ground:parameters.couplings:kernel-free-natural"),
    pytest.param(manifest("sn-spectrum", couplings=[{"strength_J_m": 0}], method="both",
                          grid=SI_GRID),
                 "parameters.couplings", id="sn-spectrum:parameters.couplings"),
    # nor does a repulsive one
    pytest.param(manifest("sn-ground", couplings=["electrostatic"]), "parameters.couplings",
                 id="sn-ground:parameters.couplings:repulsive"),
    # a tolerance is a positive number, and only the commands that read one take it
    pytest.param(manifest("e-delta", tolerance="nonsense"), "parameters.tolerance",
                 id="e-delta:parameters.tolerance:wrong-type"),
    pytest.param(manifest("e-delta", tolerance=0), "parameters.tolerance",
                 id="e-delta:parameters.tolerance:zero"),
    pytest.param(manifest("sn-ground", tolerance="x"), "parameters.tolerance",
                 id="sn-ground:parameters.tolerance:wrong-type"),
    pytest.param(manifest("hydrogen-shift", tolerance=True), "parameters.tolerance",
                 id="hydrogen-shift:parameters.tolerance:bool"),
    pytest.param(manifest("feynman-scale", tolerance=-1), "parameters.tolerance",
                 id="feynman-scale:parameters.tolerance"),
    pytest.param(manifest("sn-evolve", tolerance=1e-9), "parameters.tolerance",
                 id="sn-evolve:parameters.tolerance"),
    # an SCF residual below the defect's rounding floor never converges
    pytest.param(manifest("sn-spectrum", tolerance=1e-14), "parameters.tolerance",
                 id="sn-spectrum:parameters.tolerance:below-floor"),
    # the energy scale is a parameter of the two commands that report eigenvalues
    pytest.param(manifest("sn-ground", scale_system="imperial"), "parameters.scale_system",
                 id="sn-ground:parameters.scale_system"),
    pytest.param(manifest("e-delta", scale_system="atomic"), "parameters.scale_system",
                 id="e-delta:parameters.scale_system"),
    # the top-level keys these replaced
    pytest.param({**manifest("e-delta"), "tolerances": {"quadrature_rel": 1e-6}},
                 "tolerances", id="e-delta:tolerances"),
    pytest.param({**manifest("sn-ground"), "scale_system": "si"}, "scale_system",
                 id="sn-ground:scale_system"),
    # sn-evolve's width is sigma0 in the grid's units and its step is worked out;
    # sn-ground solves the ground state alone (sn-spectrum takes n_states)
    *[pytest.param(manifest("sn-evolve", **{key: 1.0}), f"parameters.{key}",
                   id=f"sn-evolve:parameters.{key}")
      for key in ("sigma0_m", "sigma0_natural", "dt_s", "dt_fraction")],
    pytest.param(manifest("sn-ground", n_states=1), "parameters.n_states",
                 id="sn-ground:parameters.n_states"),
    # the two branches of one body share its mass
    pytest.param(manifest("e-delta", shape_b=dict(SPHERE_AT_4, mass_kg=2.0)),
                 "parameters.shape_b", id="e-delta:parameters.shape_b:unequal-mass"),
    # a natural grid's length unit comes from the coupling
    pytest.param(manifest("sn-evolve", couplings=[]), "parameters.grid.units",
                 id="sn-evolve:parameters.grid.units:kernel-free-natural"),
]


@pytest.mark.parametrize("payload, field", REJECTED)
def test_malformed_values_exit_2_naming_the_field(tmp_path, capsys, payload, field):
    code, outdir = run_manifest(tmp_path, payload)
    assert code == 2
    assert f"{field}:" in capsys.readouterr().err
    assert not outdir.exists()


def test_every_row_read_on_one_route_has_a_routed_case():
    rows = {(name, f"parameters.{row.path}") for name, command in COMMANDS.items()
            for row in command.params if row.when}
    assert {(case.values[0]["command"], case.values[1]) for case in ROUTED} == rows


# keys no command reads any more: the branch amplitudes (no e-delta or
# collapse-time number depends on them, and collapse-sim's outcome weights are
# its `weights`) and sn-evolve's record_every (it records n_steps // 200 apart)
REMOVED = [
    *[pytest.param(make(**{key: [1.0, 0.0]}), key, id=f"{command}:{key}")
      for key in ("amp_a", "amp_b")
      for command, make in [("e-delta", partial(manifest, "e-delta")),
                            ("collapse-time", partial(manifest, "collapse-time")),
                            ("collapse-sim", shapes_sim)]],
    pytest.param(manifest("sn-evolve", record_every=5), "record_every",
                 id="sn-evolve:record_every"),
]


@pytest.mark.parametrize("payload, key", REMOVED)
def test_removed_keys_exit_2_as_unknown_keys(tmp_path, capsys, payload, key):
    code, outdir = run_manifest(tmp_path, payload)
    assert code == 2
    assert f"parameters.{key}: unknown key" in capsys.readouterr().err
    assert not outdir.exists()


FAILED = [
    # finite, in-range inputs whose numerics overflow or divide by zero; the
    # message keeps the Python exception's type
    pytest.param(manifest("selfenergy", shape={"kind": "gaussian", "mass_kg": 1.0,
                                               "width_m": 1e300}),
                 "FloatRangeError: OverflowError", id="selfenergy:width_m=1e300"),
    pytest.param(manifest("e-delta", shape_a=dict(SPHERE, radius_m=1e-300)),
                 "FloatRangeError: ZeroDivisionError", id="e-delta:radius_m=1e-300"),
    # e-delta --shape gaussian --mass 1e300 --width 1e-300 --separation 1
    pytest.param({"command": "e-delta", "parameters": {
        "shape_a": dict(GAUSSIAN, mass_kg=1e300, width_m=1e-300),
        "shape_b": dict(GAUSSIAN, mass_kg=1e300, width_m=1e-300, center_m=[1.0, 0.0, 0.0])}},
                 "FloatRangeError: OverflowError", id="e-delta:gaussian_mass_kg=1e300"),
    pytest.param(manifest("sn-ground", mass_kg=1e300), "FloatRangeError: OverflowError",
                 id="sn-ground:mass_kg=1e300"),
    pytest.param(manifest("sn-evolve", sigma0=1e300), "FloatRangeError: OverflowError",
                 id="sn-evolve:sigma0=1e300"),
    pytest.param(manifest("hydrogen-shift", r_max_bohr=1e-300),
                 "FloatRangeError: ZeroDivisionError", id="hydrogen-shift:r_max_bohr=1e-300"),
]


@pytest.mark.parametrize("payload, error", FAILED)
def test_compute_errors_exit_1_with_a_bundle(tmp_path, payload, error):
    code, outdir = run_manifest(tmp_path, payload)
    assert code == 1
    bundle = json.loads((outdir / "result_bundle.json").read_text())
    error_type, _, cause = error.partition(": ")
    assert bundle["error"]["type"] == error_type
    assert bundle["error"]["message"].startswith(cause)
    assert [f["name"] for f in bundle["files"]] == ["manifest.json"]


def test_near_concentric_e_delta_exits_0_with_the_concentric_value(tmp_path):
    # d = 1e-14 m adds O(d^2) to E_delta(0) = U[ball] + U[shell] - mutual(d = 0)
    code, outdir = run_manifest(tmp_path, without(
        manifest("e-delta", **NEAR_CONCENTRIC, monte_carlo=False), "mc_samples"))
    assert code == 0
    summary = json.loads((outdir / "e_delta.json").read_text())
    expected = G * (0.6 / 11.0 + 0.5 / 9.0 - 282.0 / 2662.0)
    assert summary["e_delta_J"] == pytest.approx(expected, rel=1e-9, abs=0)


def test_a_shapes_route_collapse_sim_draws_outcomes_with_its_weights(tmp_path):
    n = 20_000
    code, outdir = run_manifest(tmp_path, shapes_sim(n=n, weights=[0.9, 0.1]))
    assert code == 0
    summary = json.loads((outdir / "collapse_sim.json").read_text())
    weights = summary["model"]["outcome_weights"]
    frequencies = summary["ensemble"]["outcome_frequencies"]
    assert weights == [0.9, 0.1]
    for frequency, expected in zip(frequencies, weights):
        assert abs(frequency - expected) <= 3.0 * math.sqrt(expected * (1.0 - expected) / n)


def test_shapes_route_weights_at_the_edge_of_their_sum_tolerance_run(tmp_path):
    # they sum to 1 + 1.0e-12, the edge of check_weights' tolerance
    weights = [0.5442292252959519, 0.45577077470504807]
    code, outdir = run_manifest(tmp_path, shapes_sim(weights=weights))
    assert code == 0
    model = json.loads((outdir / "collapse_sim.json").read_text())["model"]
    assert model["outcome_weights"] == weights


def test_a_shapes_route_collapse_sim_keeps_the_default_weights_and_the_library_model(tmp_path):
    code, outdir = run_manifest(tmp_path, shapes_sim())
    assert code == 0
    summary = json.loads((outdir / "collapse_sim.json").read_text())
    assert summary["model"]["outcome_weights"] == [0.5, 0.5]
    spec = SuperpositionSpec(shape_from_dict(SPHERE), shape_from_dict(SPHERE_AT_4))
    model = CollapseModel.from_superposition(spec, (1.0, 2.0), 0.1, rel_tol=1e-6)
    assert summary["ensemble"]["model_digest"] == model.content_digest()


def test_an_energy_flag_overrides_one_branch_of_the_manifest_energies(tmp_path):
    source = tmp_path / "input.json"
    source.write_text(json.dumps(manifest("collapse-sim")))
    outdir = tmp_path / "out"
    assert main(["collapse-sim", "--manifest", str(source), "--energy-a", "5",
                 "--output-dir", str(outdir)]) == 0
    summary = json.loads((outdir / "collapse_sim.json").read_text())
    assert summary["model"]["branch_energies_J"] == [5.0, 2.0]


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
    assert summary["rows"][0]["E_delta_J"] == pytest.approx(G * _ball_overlap(1e-6),
                                                            rel=1e-6, abs=0)
    assert summary["rows"][1]["E_delta_J"] > 0.0


def test_a_mass_scale_sweep_rescales_a_radial_profile(tmp_path):
    # E_delta goes as the mass squared, and powers of 2 rescale without rounding
    rho = 3.0 / (4.0 * math.pi)
    profile = {"kind": "radial_profile", "r_m": [i / 15 for i in range(16)],
               "rho_kg_m3": [rho] * 16, "mass_kg": 1.0}
    code, outdir = run_manifest(tmp_path, manifest(
        "lifetime-sweep", shape=profile,
        sweep={"kind": "mass-scale", "values": [1.0, 2.0, 4.0], "separation_m": 0.5}))
    assert code == 0
    e1, e2, e4 = (row["E_delta_J"] for row in json.loads(
        (outdir / "lifetime_sweep.json").read_text())["rows"])
    assert (e2, e4) == (4.0 * e1, 16.0 * e1)


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
               "constant_overrides": {}}
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


SIZES = [("collapse-sim", "n"), ("selfenergy", "mc_samples"), ("e-delta", "mc_samples"),
         ("hydrogen-shift", "points"), ("sn-evolve", "n_steps"), ("sn-ground", "grid.points"),
         ("sn-spectrum", "grid.points"), ("sn-evolve", "grid.points")]


@pytest.mark.parametrize("command, path", SIZES, ids=[f"{c}:{p}" for c, p in SIZES])
def test_sizes_numpy_cannot_allocate_exit_2(tmp_path, capsys, command, path):
    payload = manifest(command)
    *groups, name = path.split(".")
    node = payload["parameters"]
    for key in groups:
        node = node[key]
    node[name] = 1e300
    code, outdir = run_manifest(tmp_path, payload)
    assert code == 2
    assert f"parameters.{path}:" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("seed", [2**63, 2**63 + 5, 2**64 - 1, 2**64])
def test_seeds_past_the_philox_key_exit_2(tmp_path, capsys, seed):
    # Philox(key=[seed, 0]) needs an int64: from 2**63 on seeds alias each other
    # (2**64 - 1 becomes seed 0's stream) and 2**64 overflows
    code, outdir = run_manifest(tmp_path, {**manifest("collapse-sim"), "seed": seed})
    assert code == 2
    assert "seed:" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("rate", [1e-308, 1e-320])
def test_a_rate_too_small_to_represent_exits_2(tmp_path, capsys, rate):
    # its collapse times and survival horizon would overflow to inf
    code, outdir = run_manifest(tmp_path, manifest("collapse-sim", rate_per_s=rate))
    assert code == 2
    assert "parameters.rate_per_s:" in capsys.readouterr().err
    assert not outdir.exists()


def test_the_largest_seed_runs(tmp_path):
    code, outdir = run_manifest(tmp_path, {**manifest("collapse-sim"), "seed": 2**63 - 1})
    assert code == 0
    assert json.loads((outdir / "manifest.json").read_text())["seed"] == 2**63 - 1


@pytest.mark.parametrize("samples", [2, 19])
def test_too_few_mc_samples_for_every_stratum_exit_2(tmp_path, capsys, samples):
    # two displaced shells make six strata, two of n // 10; each needs at least 2 samples
    code, outdir = run_manifest(tmp_path, manifest("selfenergy", mc_samples=samples))
    assert code == 2
    assert "parameters.mc_samples:" in capsys.readouterr().err
    assert not outdir.exists()


def test_the_fewest_mc_samples_run_on_two_displaced_shells(tmp_path):
    shell = {"kind": "spherical_shell", "mass_kg": 1.0, "radius_m": 1.0}
    payload = manifest("e-delta", shape_a=shell, shape_b=dict(shell, center_m=[0.1, 0.0, 0.0]),
                       mc_samples=20)
    code, outdir = run_manifest(tmp_path, payload)  # any warning fails this test
    assert code == 0
    summary = json.loads((outdir / "e_delta.json").read_text())
    assert math.isfinite(summary["monte_carlo_J"]) and summary["monte_carlo_stderr_J"] > 0.0
