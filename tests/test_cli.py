from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import gravlab
from gravlab.cli import RunManifest, build_parser, main, run
from gravlab.errors import ManifestError
from gravlab.persistence import format_number


def manifest_for(command: str, parameters: dict, outdir: Path, **extra) -> RunManifest:
    return RunManifest.from_dict({
        "command": command,
        "parameters": parameters,
        "output_dir": str(outdir),
        **extra,
    })


def hashes(outdir: Path) -> dict[str, str]:
    bundle = json.loads((outdir / "result_bundle.json").read_text())
    return {f["name"]: f["sha256"] for f in bundle["files"]}


SPHERE = {"kind": "uniform_sphere", "mass_kg": 1.0, "radius_m": 1.0}
SPHERE_AT_4 = {"kind": "uniform_sphere", "mass_kg": 1.0, "radius_m": 1.0,
               "center_m": [4.0, 0.0, 0.0]}


def test_feynman_scale_summary(tmp_path):
    bundle = run(manifest_for("feynman-scale", {}, tmp_path / "out"))
    assert bundle.error is None
    assert bundle.summary["mass_g"] == pytest.approx(2.176e-5, rel=1e-3)
    assert "2.176" in bundle.summary_text


def test_collapse_time_identical_branches_is_a_valid_query(tmp_path, capsys):
    code = main([
        "collapse-time", "--shape", "uniform-sphere", "--mass", "1", "--radius", "1",
        "--separation", "0", "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "collapse_time.json").read_text())
    assert payload["infinite_lifetime"] is True
    assert payload["collapse_time_s"] is None
    assert "infinite" in capsys.readouterr().out


def test_malformed_manifest_names_field_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "command": "e-delta",
        "parameters": {"shape_a": {"kind": "uniform_sphere", "mass_kg": -1.0,
                                   "radius_m": 1.0},
                       "shape_b": SPHERE_AT_4},
    }))
    code = main(["e-delta", "--manifest", str(bad), "--output-dir", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "parameters.shape_a" in err


def test_singular_point_mass_is_a_computational_error(tmp_path):
    bundle = run(manifest_for("e-delta", {
        "shape_a": {"kind": "point_mass", "mass_kg": 1.0},
        "shape_b": {"kind": "point_mass", "mass_kg": 1.0, "center_m": [1.0, 0.0, 0.0]},
    }, tmp_path / "out"))
    assert bundle.error is not None
    assert bundle.error["type"] == "DivergentSelfEnergy"
    code = main(["e-delta", "--manifest", str(tmp_path / "out" / "manifest.json"),
                 "--output-dir", str(tmp_path / "out2")])
    assert code == 1


def test_rerunning_persisted_manifest_reproduces_hashes(tmp_path):
    params = {"shape_a": SPHERE, "shape_b": SPHERE_AT_4, "monte_carlo": True,
              "mc_samples": 20_000}
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    run(manifest_for("e-delta", params, first, seed=42))
    persisted = json.loads((first / "manifest.json").read_text())
    persisted["output_dir"] = str(second)
    run(RunManifest.from_dict(persisted))
    assert hashes(first) == hashes(second)


def test_sweep_csv_format_and_plot_script(tmp_path):
    outdir = tmp_path / "sweep"
    bundle = run(manifest_for("lifetime-sweep", {
        "shape": SPHERE,
        "sweep": {"kind": "separation", "values": [2.0, 4.0, 8.0]},
    }, outdir))
    assert bundle.error is None
    raw = (outdir / "lifetime_sweep.csv").read_bytes()
    assert raw.count(b"\r\n") == 4          # header + 3 rows, RFC-4180 endings
    text = raw.decode()
    assert text.splitlines()[0] == "parameter,E_delta_J,T_s"
    # >= 9 significant digits in scientific notation
    first_value = text.splitlines()[1].split(",")[1]
    mantissa = first_value.split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) >= 9
    script = (outdir / "lifetime_sweep.gnuplot").read_text()
    assert "lifetime_sweep.csv" in script and "plot" in script
    # T decreasing with separation
    rows = bundle.summary["rows"]
    assert rows[0]["T_s"] > rows[1]["T_s"] > rows[2]["T_s"]


def test_sweep_rows_record_errors_without_aborting(tmp_path):
    outdir = tmp_path / "sweep-err"
    bundle = run(manifest_for("lifetime-sweep", {
        "shape": {"kind": "point_mass", "mass_kg": 1.0},
        "sweep": {"kind": "separation", "values": [1.0, 2.0]},
    }, outdir))
    assert bundle.error is None
    assert bundle.summary["errors"] == 2
    assert all(r["error"] for r in bundle.summary["rows"])


def test_flags_override_manifest_values(tmp_path):
    base = tmp_path / "m.json"
    base.write_text(json.dumps({
        "command": "collapse-sim",
        "parameters": {"n": 1000, "rate_per_s": 1.0},
        "seed": 1,
    }))
    out = tmp_path / "out"
    code = main(["collapse-sim", "--manifest", str(base), "--n", "2000",
                 "--output-dir", str(out)])
    assert code == 0
    persisted = json.loads((out / "manifest.json").read_text())
    assert persisted["parameters"]["n"] == 2000          # flag wins
    assert persisted["parameters"]["rate_per_s"] == 1.0  # file value kept


def test_constant_overrides_flow_through(tmp_path):
    bundle = run(manifest_for("feynman-scale", {}, tmp_path / "o",
                              constant_overrides={"G": 4.0 * 6.67430e-11}))
    default = run(manifest_for("feynman-scale", {}, tmp_path / "o2"))
    assert bundle.summary["mass_kg"] == pytest.approx(
        default.summary["mass_kg"] / 2.0, rel=1e-12)
    with pytest.raises(ManifestError, match="constant_overrides"):
        run(manifest_for("feynman-scale", {}, tmp_path / "o3",
                         constant_overrides={"G": -1.0}))


def test_unknown_command_and_scale_rejected(tmp_path):
    with pytest.raises(ManifestError, match="command"):
        RunManifest.from_dict({"command": "frobnicate"})
    with pytest.raises(ManifestError, match="scale_system"):
        run(manifest_for("feynman-scale", {}, tmp_path / "o", scale_system="imperial"))


def test_selfenergy_with_monte_carlo_cross_check(tmp_path):
    bundle = run(manifest_for("selfenergy", {
        "shape": {"kind": "gaussian", "mass_kg": 1.0, "width_m": 1.0},
        "monte_carlo": True, "mc_samples": 30_000,
    }, tmp_path / "out", seed=5))
    value = bundle.summary["self_energy_J"]
    assert value == pytest.approx(6.67430e-11 / (2.0 * math.sqrt(math.pi)), rel=1e-9)
    assert abs(bundle.summary["monte_carlo_J"] - value) < \
        4.0 * bundle.summary["monte_carlo_stderr_J"]


def test_collapse_sim_bundle_contents(tmp_path):
    outdir = tmp_path / "cs"
    bundle = run(manifest_for("collapse-sim", {
        "n": 5000, "rate_per_s": 2.0, "weights": [0.36, 0.64],
        "branch_energies_J": [1.0, 2.0], "interference_energy_J": 0.1,
    }, outdir, seed=8))
    assert bundle.error is None
    names = {f["name"] for f in bundle.files}
    assert {"manifest.json", "collapse_sim.json", "survival.csv",
            "survival.gnuplot"} <= names
    ledger = bundle.summary["energy_ledger"]
    assert ledger["expected_residual_J"] == -0.1
    assert ledger["within_three_sigma"] is True


def test_sn_ground_scaled_output(tmp_path):
    bundle = run(manifest_for("sn-ground", {
        "mass_kg": 1e-17,
        "grid": {"r_max": 50.0, "points": 1600, "units": "natural"},
    }, tmp_path / "sng", scale_system="sn-natural"))
    assert bundle.error is None
    state = bundle.summary["states"][0]
    assert state["eigenvalue"]["scaled"] == pytest.approx(-0.16277, abs=5e-4)
    assert (tmp_path / "sng" / "sn_ground_profiles.csv").exists()


def test_sn_ground_both_methods_cross_check_and_rerun(tmp_path):
    first, second = tmp_path / "run1", tmp_path / "run2"
    code = main(["sn-ground", "--mass", "1e-17", "--method", "both", "--scale", "sn-natural",
                 "--output-dir", str(first)])
    assert code == 0
    rows = json.loads((first / "sn_ground.json").read_text())["cross_check"]
    assert len(rows) == 1
    assert rows[0]["node_count"] == 0
    assert rows[0]["relative_difference"] < 1e-3
    code = main(["sn-ground", "--manifest", str(first / "manifest.json"),
                 "--output-dir", str(second)])
    assert code == 0
    assert hashes(first) == hashes(second)


def test_parser_covers_all_commands():
    parser = build_parser()
    for command in ("selfenergy", "e-delta", "collapse-time", "feynman-scale",
                    "lifetime-sweep", "sn-ground", "sn-spectrum", "sn-evolve",
                    "hydrogen-shift", "collapse-sim"):
        args = parser.parse_args([command] if command != "collapse-sim"
                                 else [command, "--rate", "1"])
        assert args.command == command


def test_format_number_contract():
    assert format_number(math.inf) == "inf"
    assert format_number(1.0) == "1.000000000e+00"
    assert format_number(None) == ""
    assert format_number(12345) == "12345"


def test_env_var_sets_default_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAVLAB_OUTPUT_DIR", str(tmp_path / "env-out"))
    code = main(["feynman-scale"])
    assert code == 0
    assert (tmp_path / "env-out" / "feynman-scale" / "feynman_scale.json").exists()


def test_sn_evolve_accepts_initial_state_csv(tmp_path):
    import numpy as np

    r = np.linspace(1e-9, 400e-9, 400)
    psi = np.exp(-((r - 1e-7) ** 2) / (2.0 * (4e-8) ** 2))
    csv_path = tmp_path / "initial.csv"
    np.savetxt(csv_path, np.column_stack([r, psi, np.zeros_like(r)]), delimiter=",")
    bundle = run(manifest_for("sn-evolve", {
        "mass_kg": 1e-17,
        "initial_state_csv": str(csv_path),
        "couplings": [],
        "n_steps": 50,
    }, tmp_path / "out"))
    assert bundle.error is None
    assert bundle.summary["norm_drift"] < 1e-10
    assert bundle.summary["sigma0_m"] is None   # width comes from the CSV state


def test_sn_evolve_compares_a_loaded_state_with_its_free_evolution(tmp_path):
    import numpy as np

    r = np.linspace(1e-9, 400e-9, 400)
    psi = np.exp(-((r - 1e-7) ** 2) / (2.0 * (4e-8) ** 2))
    csv_path = tmp_path / "initial.csv"
    np.savetxt(csv_path, np.column_stack([r, psi, np.zeros_like(r)]), delimiter=",")
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"command": "sn-evolve", "parameters": {
        "mass_kg": 1e-17, "initial_state_csv": str(csv_path), "couplings": ["gravity"],
        "n_steps": 50, "compare_free": True}}))
    outdir = tmp_path / "out"
    assert main(["sn-evolve", "--manifest", str(source), "--output-dir", str(outdir)]) == 0
    summary = json.loads((outdir / "sn_evolve.json").read_text())
    assert summary["final_free_width_m"] > 0.0
    rows = np.loadtxt(outdir / "sn_evolve.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows[0, 4] == rows[0, 3]   # the free run starts from the loaded state


# Runs in a fresh interpreter, since pytest's own process has scipy loaded:
# imports the CLI, runs each argv in turn and reports the scipy modules loaded
# after each step.
SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import gravlab.cli
report = [["import gravlab.cli", 0, scipy_modules()]]
for argv in json.loads(sys.argv[2]):
    try:
        code = gravlab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    report.append([argv[0], code, scipy_modules()])
print(json.dumps(report))
"""


def test_closed_form_commands_start_without_scipy(tmp_path):
    sphere = ["--shape", "uniform-sphere", "--mass", "1", "--radius", "1"]
    commands = [
        ["feynman-scale"],
        ["e-delta", *sphere, "--separation", "4"],
        ["collapse-time", *sphere, "--separation", "4"],
        ["lifetime-sweep", *sphere, "--sweep-kind", "separation", "--values", "2,3,4,6,10"],
        ["collapse-sim", "--n", "1000", "--rate", "1.0", "--energy-a", "1",
         "--energy-b", "2", "--interference", "0.25", "--seed", "7"],
    ]
    argvs = [["--help"]] + [argv + ["--output-dir", str(tmp_path / argv[0])] for argv in commands]
    src = str(Path(gravlab.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, src, json.dumps(argvs)],
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    steps = ["import gravlab.cli"] + [argv[0] for argv in argvs]
    assert report == [[step, 0, []] for step in steps]


def test_selfenergy_analytic_on_a_profile_is_no_closed_form(tmp_path):
    csv = tmp_path / "profile.csv"
    csv.write_text("".join(f"{0.25 * i!r},1.0\n" for i in range(9)))
    outdir = tmp_path / "out"
    code = main(["selfenergy", "--profile-csv", str(csv), "--method", "analytic",
                 "--output-dir", str(outdir)])
    assert code == 1
    bundle = json.loads((outdir / "result_bundle.json").read_text())
    assert bundle["error"]["type"] == "NoClosedForm"


def test_collapse_sim_rate_from_shapes_honours_the_tolerance(tmp_path):
    r = [i / 39 for i in range(40)]
    rho = [math.exp(-4.0 * x * x) for x in r]
    shapes = {f"shape_{b}": {"kind": "radial_profile", "r_m": r, "rho_kg_m3": rho,
                             "center_m": [x, 0.0, 0.0]} for b, x in (("a", 0.0), ("b", 0.3))}
    rates = []
    for tol in (1e-2, 1e-9):
        tolerances = {"tolerances": {"quadrature_rel": tol}}
        sim = run(manifest_for("collapse-sim", {"n": 100, **shapes}, tmp_path / f"s{tol}",
                               **tolerances))
        lifetime = run(manifest_for("collapse-time", shapes, tmp_path / f"t{tol}", **tolerances))
        assert sim.error is None and lifetime.error is None
        rate = sim.summary["model"]["rate_per_s"]
        assert rate == pytest.approx(1.0 / lifetime.summary["collapse_time_s"], rel=1e-14)
        rates.append(rate)
    assert rates[0] != rates[1]
