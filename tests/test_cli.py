from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gravlab
from gravlab.cli import COMMANDS, RunManifest, build_parser, main, run
from gravlab.errors import ManifestError
from gravlab.persistence import format_number, write_csv
from gravlab.quantities import CODATA2018
from gravlab.snsolver import free_gaussian_width_squared


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
README = Path(__file__).resolve().parents[1] / "README.md"


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
        default.summary["mass_kg"] / 2.0, rel=1e-12, abs=0)
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
    assert value == pytest.approx(6.67430e-11 / (2.0 * math.sqrt(math.pi)), rel=1e-9, abs=0)
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


def test_collapse_sim_without_interference_expects_a_positive_zero(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = main(["collapse-sim", "--n", "1000", "--rate", "1", "--output-dir", str(outdir)])
    assert code == 0
    ledger = json.loads((outdir / "collapse_sim.json").read_text())["energy_ledger"]
    assert math.copysign(1.0, ledger["expected_residual_J"]) == 1.0
    assert "(expected 0.000000000e+00 J)" in capsys.readouterr().out


def test_collapse_sim_at_rate_0_has_an_infinite_lifetime_and_no_table(tmp_path):
    outdir = tmp_path / "out"
    assert main(["collapse-sim", "--n", "1000", "--rate", "0", "--output-dir", str(outdir)]) == 0
    ensemble = json.loads((outdir / "collapse_sim.json").read_text())["ensemble"]
    assert ensemble["infinite_lifetime"] is True
    assert ensemble["mean_collapse_time_s"] is None
    bundle = json.loads((outdir / "result_bundle.json").read_text())
    assert [f["name"] for f in bundle["files"]] == ["manifest.json", "collapse_sim.json"]


def test_sn_ground_scaled_output(tmp_path):
    bundle = run(manifest_for("sn-ground", {
        "mass_kg": 1e-17,
        "grid": {"r_max": 50.0, "points": 1600, "units": "natural"},
        "scale_system": "sn-natural",
    }, tmp_path / "sng"))
    assert bundle.error is None
    state = bundle.summary["states"][0]
    assert state["eigenvalue"]["scaled"] == pytest.approx(-0.16277, abs=5e-4)
    assert (tmp_path / "sng" / "sn_ground_profiles.csv").exists()


@pytest.mark.parametrize("scale_system", ["si", "sn-natural", "atomic"])
def test_sn_ground_reports_the_eigenvalue_in_the_chosen_scale(tmp_path, scale_system):
    mass, c = 1e-17, CODATA2018
    energy_scale = {"si": 1.0, "sn-natural": c.G**2 * mass**5 / c.hbar**2,
                    "atomic": c.hartree}[scale_system]
    run(manifest_for("sn-ground", {
        "mass_kg": mass,
        "grid": {"r_max": 50.0, "points": 1600, "units": "natural"},
        "scale_system": scale_system,
    }, tmp_path))
    eigenvalue = json.loads((tmp_path / "sn_ground.json").read_text())["states"][0]["eigenvalue"]
    assert eigenvalue["scale_system"] == scale_system.upper()
    assert eigenvalue["scaled"] == eigenvalue["J"] / energy_scale


def test_sn_states_record_the_scf_iteration_count(tmp_path):
    counts, full_counts = {}, {}
    for method in ("scf", "shooting"):
        run(manifest_for("sn-ground", {
            "mass_kg": 1e-17, "method": method,
            "grid": {"r_max": 50.0, "points": 1600, "units": "natural"},
        }, tmp_path / method))
        summary = json.loads((tmp_path / method / "sn_ground.json").read_text())
        counts[method] = summary["states"][0]["iterations"]
        full_counts[method] = summary["states"][0]["full_eigensolves"]
    assert isinstance(counts["scf"], int) and 1 < counts["scf"] <= 25
    assert isinstance(full_counts["scf"], int) and 1 <= full_counts["scf"] < counts["scf"]
    assert counts["shooting"] is None and full_counts["shooting"] is None


def test_sn_spectrum_needs_at_most_three_full_eigensolves_per_state(tmp_path):
    # the README arguments: the first iterate and at most two warm-start fallbacks
    assert main(["sn-spectrum", "--mass", "1e-17", "--n-states", "3", "--r-max", "250",
                 "--points", "8000", "--output-dir", str(tmp_path)]) == 0
    states = json.loads((tmp_path / "sn_spectrum.json").read_text())["states"]
    assert [state["node_count"] for state in states] == [0, 1, 2]
    assert all(1 <= state["full_eigensolves"] <= 3 for state in states)


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


def test_sn_states_record_the_shooting_discretization_error(tmp_path):
    summaries = {}
    for method in ("both", "shooting"):
        run(manifest_for("sn-ground", {
            "mass_kg": 1e-17, "method": method,
            "grid": {"r_max": 50.0, "points": 1600, "units": "natural"},
        }, tmp_path / method))
        summaries[method] = json.loads((tmp_path / method / "sn_ground.json").read_text())
    # under "both" the listed states are SCF's, which carry no bar yet
    assert summaries["both"]["states"][0]["discretization_error"] is None
    row = summaries["both"]["cross_check"][0]
    shooting = summaries["shooting"]["states"][0]
    assert row["shooting_J"] == shooting["eigenvalue"]["J"]
    assert row["shooting_discretization_error_J"] == shooting["discretization_error"]
    assert 0.0 < shooting["discretization_error"] < 1e-7 * abs(row["shooting_J"])


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
    assert format_number(-math.inf) == "-inf"
    assert format_number(math.nan) == "nan"
    assert format_number(1.0) == "1.000000000e+00"
    assert format_number(None) == ""
    assert format_number(12345) == "12345"


def test_write_csv_writes_float_rows_as_the_csv_module_does(tmp_path):
    values = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1.0, -1.0 / 3.0, 1e300]
    rows = [(np.float64(a), b) for a, b in zip(values, reversed(values))]
    mixed = [(1, "a,b", None, np.float32(0.5), True), (2, 3.5)]
    path = write_csv(tmp_path / "t.csv", ["x", "y"], rows + mixed)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["x", "y"])
    for row in rows + mixed:
        writer.writerow([v if isinstance(v, str) else format_number(v) for v in row])
    assert path.read_bytes() == buffer.getvalue().encode("utf-8")


def test_write_csv_formats_a_float_row_as_format_number_does(tmp_path):
    values = [-0.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300, 0.1, 6.02214076e23]
    rows = [tuple(values), tuple(map(np.float64, values)),
            tuple(v if i % 2 else np.float64(v) for i, v in enumerate(values)),
            (1e-300, -0.0)]   # narrower than the header: the csv module writes it
    header = [f"c{i}" for i in range(len(values))]
    path = write_csv(tmp_path / "t.csv", header, rows)
    expected = [",".join(header)] + [",".join(format_number(v) for v in row) for row in rows]
    assert path.read_bytes() == "".join(line + "\r\n" for line in expected).encode("utf-8")


@pytest.mark.parametrize("target", ["a-file", "a-file/sub"])
def test_an_output_dir_that_cannot_be_a_directory_exits_2_before_the_compute(
        tmp_path, capsys, target):
    (tmp_path / "a-file").write_text("kept\n")
    assert main(["feynman-scale", "--output-dir", str(tmp_path / target)]) == 2
    assert capsys.readouterr().err.startswith("manifest error: output_dir: ")
    assert [p.name for p in tmp_path.iterdir()] == ["a-file"]
    assert (tmp_path / "a-file").read_text() == "kept\n"


def test_an_output_file_that_is_a_directory_exits_1_naming_it(tmp_path, capsys):
    outdir = tmp_path / "out"
    (outdir / "feynman_scale.json").mkdir(parents=True)
    assert main(["feynman-scale", "--output-dir", str(outdir)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"output error: cannot write the outputs in {outdir}: ")
    assert "feynman_scale.json" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_env_var_sets_default_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAVLAB_OUTPUT_DIR", str(tmp_path / "env-out"))
    code = main(["feynman-scale"])
    assert code == 0
    assert (tmp_path / "env-out" / "feynman-scale" / "feynman_scale.json").exists()


def test_sn_evolve_accepts_initial_state_csv(tmp_path):
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
    assert bundle.summary["closed_form_free_width_m"] is None


def test_sn_evolve_free_width_meets_its_closed_form_at_readme_arguments(tmp_path):
    outdir = tmp_path / "out"
    assert main(["sn-evolve", "--mass", "1e-17", "--sigma0", "2", "--compare-free",
                 "--output-dir", str(outdir)]) == 0
    summary = json.loads((outdir / "sn_evolve.json").read_text())
    t_end = summary["n_steps"] * summary["dt_s"]
    assert summary["closed_form_free_width_m"] == math.sqrt(
        3.0 * free_gaussian_width_squared(summary["sigma0_m"], 1e-17, t_end))
    # 2,400 points leave the free width 6.3e-7 below the closed form
    assert summary["final_free_width_m"] == pytest.approx(
        summary["closed_form_free_width_m"], rel=1e-6, abs=0)


def test_sn_evolve_runs_a_kernel_free_gaussian_on_an_si_grid(tmp_path):
    # with no coupling there is no natural length: sigma0 and r_max are in metres
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"command": "sn-evolve", "parameters": {
        "mass_kg": 1e-17, "couplings": [], "sigma0": 3.3e-7,
        "grid": {"units": "si", "r_max": 1e-5, "points": 2400}}}))
    outdir = tmp_path / "out"
    assert main(["sn-evolve", "--manifest", str(source), "--output-dir", str(outdir)]) == 0
    summary = json.loads((outdir / "sn_evolve.json").read_text())
    assert summary["sigma0_m"] == 3.3e-7
    assert summary["final_width_m"] == pytest.approx(summary["closed_form_free_width_m"],
                                                     rel=1e-6, abs=0)


def test_sn_evolve_compares_a_kernel_free_gaussian_with_itself(tmp_path):
    source = tmp_path / "input.json"
    source.write_text(json.dumps({"command": "sn-evolve", "parameters": {
        "mass_kg": 1e-17, "couplings": [], "sigma0": 3.3e-7, "compare_free": True,
        "grid": {"units": "si", "r_max": 1e-5, "points": 2400}}}))
    outdir = tmp_path / "out"
    assert main(["sn-evolve", "--manifest", str(source), "--output-dir", str(outdir)]) == 0
    summary = json.loads((outdir / "sn_evolve.json").read_text())
    assert summary["final_free_width_m"] == summary["final_width_m"]
    assert summary["inhibited"] is False


def test_sn_evolve_compares_a_loaded_state_with_its_free_evolution(tmp_path):
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


# sn-evolve keeps the stationary solver's grid contract on its initial and final states
@pytest.mark.parametrize("argv, message", [
    # the packet is cut by the wall at r_max = 60 lengths: tail ratio 0.368
    (["--sigma0", "30", "--compare-free"], "extend r_max"),
    # the packet fills the box: tail ratio 0.978
    (["--sigma0", "200"], "extend r_max"),
    # 9.9e-8 m spacing against a 1.67e-7 m kernel length
    (["--sigma0", "2", "--compare-free", "--points", "100"], "does not resolve the gravity"),
    # starts inside the box and spreads to the wall: final tail ratio 9.4e-3; this
    # printed a free width 45% below its closed form, and inhibited true, with exit 0
    (["--sigma0", "1", "--r-max", "10", "--points", "320", "--n-steps", "8000",
      "--compare-free"], "extend r_max"),
    # sigma0 spans 0.4 grid spacings: this started 1.44 times too wide and printed
    # a free width 74.8% below its closed form, and inhibited false, with exit 0
    (["--sigma0", "0.01", "--compare-free"], "does not resolve sigma0"),
    # this ended in a RuntimeWarning from the packet's exponent
    (["--sigma0", "1e-300"], "does not resolve sigma0"),
], ids=["cut-by-the-wall", "fills-the-box", "unresolved-kernel", "reaches-the-wall-late",
        "unresolved-packet", "vanishing-packet"])
def test_sn_evolve_rejects_a_grid_whose_answer_belongs_to_the_box(tmp_path, argv, message):
    outdir = tmp_path / "out"
    assert main(["sn-evolve", "--mass", "1e-17", *argv, "--output-dir", str(outdir)]) == 1
    bundle = json.loads((outdir / "result_bundle.json").read_text())
    assert bundle["error"]["type"] == "GridError"
    assert message in bundle["error"]["message"]
    assert [f["name"] for f in bundle["files"]] == ["manifest.json"]


# fewer than 32 points per a0, the Coulomb well's kernel length; these printed
# -13.1103 eV (3.6% off) and -0.0027 eV with exit 0
@pytest.mark.parametrize("r_max_bohr", ["40", "1e6"])
def test_hydrogen_shift_rejects_a_grid_that_does_not_resolve_a0(tmp_path, r_max_bohr):
    outdir = tmp_path / "out"
    assert main(["hydrogen-shift", "--r-max-bohr", r_max_bohr, "--points", "100",
                 "--output-dir", str(outdir)]) == 1
    bundle = json.loads((outdir / "result_bundle.json").read_text())
    assert bundle["error"]["type"] == "GridError"
    assert "Coulomb well" in bundle["error"]["message"]
    assert [f["name"] for f in bundle["files"]] == ["manifest.json"]


# Runs in a fresh interpreter, since pytest's own process has numpy and scipy
# loaded: imports the CLI, runs each argv in turn and reports the modules of
# one package loaded after each step.
MODULES_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
package = sys.argv[3]

def modules():
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

import gravlab.cli
report = [["import gravlab.cli", 0, modules()]]
for argv in json.loads(sys.argv[2]):
    try:
        code = gravlab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    report.append([argv[0], code, modules()])
print(json.dumps(report))
"""
SRC = str(Path(gravlab.__file__).parents[1])


def _modules_loaded(tmp_path, commands, package="scipy", expected=()):
    """(step, exit code, modules of ``package`` loaded) after --help and each
    command, and the same steps with exit code 0 and ``expected`` loaded."""
    argvs = [["--help"]] + [argv + ["--output-dir", str(tmp_path / str(i))]
                            for i, argv in enumerate(commands)]
    proc = subprocess.run([sys.executable, "-c", MODULES_PROBE, SRC, json.dumps(argvs), package],
                          capture_output=True, text=True, check=True)
    steps = ["import gravlab.cli"] + [argv[0] for argv in argvs]
    return json.loads(proc.stdout.splitlines()[-1]), [[step, 0, list(expected)] for step in steps]


def test_closed_form_commands_start_without_scipy(tmp_path):
    sphere = ["--shape", "uniform-sphere", "--mass", "1", "--radius", "1"]
    commands = [
        ["feynman-scale"],
        ["e-delta", *sphere, "--separation", "4"],
        ["e-delta", *sphere, "--separation", "4", "--monte-carlo"],
        ["selfenergy", *sphere, "--monte-carlo"],
        ["selfenergy", "--shape", "gaussian", "--mass", "1", "--width", "1"],
        ["collapse-time", *sphere, "--separation", "4"],
        ["lifetime-sweep", *sphere, "--sweep-kind", "separation", "--values", "2,3,4,6,10"],
        ["collapse-sim", "--n", "1000", "--rate", "1.0", "--energy-a", "1",
         "--energy-b", "2", "--interference", "0.25", "--seed", "7"],
    ]
    report, expected = _modules_loaded(tmp_path, commands)
    assert report == expected


def test_closed_form_commands_start_without_numpy(tmp_path):
    sphere = ["--shape", "uniform-sphere", "--mass", "1", "--radius", "1"]
    commands = [
        ["feynman-scale"],
        ["e-delta", *sphere, "--separation", "4"],
        ["collapse-time", *sphere, "--separation", "4"],
        ["lifetime-sweep", *sphere, "--sweep-kind", "separation", "--values", "2,3,4,6,10"],
    ]
    # "numpy" is gravlab's lazy module; executing it would import numpy._core and more
    report, expected = _modules_loaded(tmp_path, commands, "numpy", ["numpy"])
    assert report == expected


def test_numpy_commands_give_the_bits_of_an_eager_numpy_import(tmp_path):
    commands = [
        ["collapse-sim", "--n", "1000", "--rate", "1.0", "--energy-a", "1", "--energy-b", "2",
         "--interference", "0.25", "--seed", "7"],
        ["selfenergy", "--shape", "gaussian", "--mass", "1", "--width", "1", "--monte-carlo"],
    ]
    for i, argv in enumerate(commands):
        runs = {}
        for start in ("", "import numpy; "):   # lazy numpy, then the real module imported first
            outdir = tmp_path / f"{i}{bool(start)}"
            code = (f"import sys; sys.path.insert(0, sys.argv[1]); {start}"
                    "from gravlab.cli import main; sys.exit(main(sys.argv[2:]))")
            subprocess.run([sys.executable, "-c", code, SRC, *argv, "--output-dir", str(outdir)],
                           capture_output=True, check=True)
            runs[start] = hashes(outdir)
        assert runs[""] == runs["import numpy; "]


def test_profile_and_gaussian_monte_carlo_commands_start_without_scipy(tmp_path):
    csv = tmp_path / "profile.csv"
    csv.write_text("".join(f"{i / 15!r},{math.exp(-4.0 * (i / 15) ** 2)!r}\n" for i in range(16)))
    profile = ["--profile-csv", str(csv)]
    commands = [
        ["e-delta", *profile, "--separation", "0.4"],
        ["collapse-time", *profile, "--separation", "0.05"],
        ["lifetime-sweep", *profile, "--sweep-kind", "separation", "--values", "0.01,0.3,1.5,3"],
        ["selfenergy", *profile],
        ["selfenergy", "--shape", "gaussian", "--mass", "1", "--width", "1", "--monte-carlo"],
    ]
    report, expected = _modules_loaded(tmp_path, commands)
    assert report == expected


# numpy wheels built against scipy-openblas ship the LAPACK that snsolver/_lapack.py binds
@pytest.mark.skipif(
    np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas",
    reason="this numpy ships no scipy-openblas64 library; the SN commands use scipy.linalg")
def test_sn_commands_start_without_scipy(tmp_path):
    commands = [
        ["sn-ground", "--mass", "1e-17", "--method", "scf"],
        ["sn-spectrum", "--mass", "1e-17", "--n-states", "2", "--r-max", "120",
         "--points", "4000"],
        ["sn-evolve", "--mass", "1e-17", "--sigma0", "2", "--compare-free"],
        ["hydrogen-shift"],
    ]
    report, expected = _modules_loaded(tmp_path, commands)
    assert report == expected


def test_selfenergy_method_analytic_exits_2_writing_nothing(tmp_path, capsys):
    # auto takes the closed forms; there is no third energy route
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["selfenergy", "--shape", "gaussian", "--mass", "1", "--width", "1",
              "--method", "analytic", "--output-dir", str(outdir)])
    assert info.value.code == 2
    assert "invalid choice: 'analytic'" in capsys.readouterr().err
    assert not outdir.exists()


DISJOINT_SPHERES = ["--shape", "uniform-sphere", "--mass", "1", "--radius", "1"]


@pytest.mark.parametrize("argv, key", [
    (["e-delta", *DISJOINT_SPHERES, "--separation", "4"], "e_delta_J"),
    (["collapse-time", *DISJOINT_SPHERES, "--separation", "4"], "e_delta_J"),
    (["lifetime-sweep", *DISJOINT_SPHERES, "--sweep-kind", "separation",
      "--values", "2,3,4,6,10"], "rows"),
], ids=["e-delta", "collapse-time", "lifetime-sweep"])
def test_disjoint_spheres_keep_their_e_delta_bits_at_any_tolerance(tmp_path, argv, key):
    # U_a + U_b - G m^2 / d of disjoint supports loses at most one bit, at any tolerance
    values = []
    for tolerance in ([], ["--tolerance", "1e-16"]):
        outdir = tmp_path / f"out{len(values)}"
        assert main([*argv, *tolerance, "--output-dir", str(outdir)]) == 0
        summary = json.loads((outdir / f"{argv[0].replace('-', '_')}.json").read_text())
        values.append(summary[key])
    assert values[0] == values[1]


def test_a_sweep_row_that_overflows_errors_that_row_only(tmp_path):
    # (1e200 kg)^2 overflows a float; the rows at 1e-200 and 1 keep their values
    outdir = tmp_path / "out"
    assert main(["lifetime-sweep", "--shape", "gaussian", "--mass", "1", "--width", "1",
                 "--sweep-kind", "mass-scale", "--values", "1e-200,1,1e200", "--separation", "1",
                 "--output-dir", str(outdir)]) == 0
    summary = json.loads((outdir / "lifetime_sweep.json").read_text())
    assert summary["errors"] == 1
    low, one, high = summary["rows"]
    assert low["error"] is None and one["error"] is None
    assert one["E_delta_J"] > 0.0
    assert high["E_delta_J"] is None
    assert high["error"].startswith("FloatRangeError: OverflowError: ")


def test_a_sweep_row_with_an_infinite_lifetime_writes_null(tmp_path):
    # d = 0: identical branches, E_delta = 0; JSON has no Infinity
    outdir = tmp_path / "out"
    assert main(["lifetime-sweep", "--shape", "uniform-sphere", "--mass", "1", "--radius", "1",
                 "--sweep-kind", "separation", "--values", "0,2",
                 "--output-dir", str(outdir)]) == 0

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    for name in ("lifetime_sweep.json", "result_bundle.json"):
        json.loads((outdir / name).read_text(), parse_constant=no_constants)
    zero, two = json.loads((outdir / "lifetime_sweep.json").read_text())["rows"]
    assert zero["E_delta_J"] == 0.0
    assert zero["T_s"] is None and zero["infinite_lifetime"] is True
    assert two["T_s"] > 0.0 and "infinite_lifetime" not in two


@pytest.mark.parametrize("argv, message", [
    (["collapse-sim", "--n", "10"],
     "parameters.shape_a: missing required parameter; read when rate_per_s is null"),
    (["lifetime-sweep", *DISJOINT_SPHERES, "--sweep-kind", "mass-scale", "--values", "1"],
     "parameters.sweep.separation_m: missing required parameter; "
     "read when sweep.kind is mass-scale"),
], ids=["collapse-sim", "lifetime-sweep"])
def test_a_missing_required_setting_names_the_route_that_reads_it(tmp_path, capsys, argv,
                                                                  message):
    outdir = tmp_path / "out"
    assert main([*argv, "--output-dir", str(outdir)]) == 2
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_collapse_sim_rate_from_shapes_honours_the_tolerance(tmp_path):
    r = [i / 39 for i in range(40)]
    rho = [math.exp(-4.0 * x * x) for x in r]
    shapes = {f"shape_{b}": {"kind": "radial_profile", "r_m": r, "rho_kg_m3": rho,
                             "center_m": [x, 0.0, 0.0]} for b, x in (("a", 0.0), ("b", 0.3))}
    rates = []
    for tol in (1e-2, 1e-9):
        sim = run(manifest_for("collapse-sim", {"n": 100, "tolerance": tol, **shapes},
                               tmp_path / f"s{tol}"))
        lifetime = run(manifest_for("collapse-time", {"tolerance": tol, **shapes},
                                    tmp_path / f"t{tol}"))
        assert sim.error is None and lifetime.error is None
        rate = sim.summary["model"]["rate_per_s"]
        assert rate == pytest.approx(1.0 / lifetime.summary["collapse_time_s"], rel=1e-14)
        rates.append(rate)
    assert rates[0] != rates[1]


def test_readme_example_manifest_runs(tmp_path):
    text = README.read_text(encoding="utf-8")
    block = text.split("Example manifest:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    payload = json.loads(block)
    source = tmp_path / "example.json"
    source.write_text(block)
    assert main([payload["command"], "--manifest", str(source),
                 "--output-dir", str(tmp_path / "out")]) == 0


def test_help_names_the_route_that_reads_a_flag(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "400")   # no help text wrapped, no hyphen broken
    with pytest.raises(SystemExit):
        main(["lifetime-sweep", "--help"])
    assert ("--separation SEPARATION m; fixed separation [parameters.sweep.separation_m; "
            "required; read when sweep.kind is mass-scale; > 0]"
            in " ".join(capsys.readouterr().out.split()))


READS_TOLERANCE = {"selfenergy", "e-delta", "collapse-time", "lifetime-sweep", "collapse-sim",
                   "sn-ground", "sn-spectrum", "hydrogen-shift"}
READS_SCALE = {"sn-ground", "sn-spectrum"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("flag, value, readers", [("--tolerance", "0.001", READS_TOLERANCE),
                                                  ("--scale", "atomic", READS_SCALE)])
def test_a_command_offers_only_the_flags_it_reads(command, flag, value, readers):
    parser = build_parser()
    if command in readers:
        args = parser.parse_args([command, flag, value])
        assert str(getattr(args, flag.lstrip("-"))) == value
    else:
        with pytest.raises(SystemExit) as info:
            parser.parse_args([command, flag, value])
        assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["feynman-scale", "--tolerance", "1e-3"],
    ["e-delta", "--shape", "uniform-sphere", "--mass", "1", "--radius", "1",
     "--separation", "4", "--scale", "atomic"],
    # a kernel-free run needs an SI grid, so it is a manifest's `couplings: []`
    ["sn-evolve", "--mass", "1e-17", "--no-gravity"],
], ids=["feynman-scale:--tolerance", "e-delta:--scale", "sn-evolve:--no-gravity"])
def test_a_flag_the_command_does_not_read_exits_2_writing_nothing(tmp_path, argv):
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--output-dir", str(outdir)])
    assert info.value.code == 2
    assert not outdir.exists()
