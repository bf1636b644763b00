"""Tests of the benchmark's own code: oracle, statistics, workloads, tracing.

    python3 -m pytest -q perfbench/tests
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("eta", [0.1 * 1.25**k for k in range(30)])
def test_oracle_matches_gravlab_sphere_closed_form(eta):
    from gravlab.massdist import SuperpositionSpec, UniformSphere, e_delta
    mass, radius = 3.0, 0.7
    spec = SuperpositionSpec(UniformSphere(mass, radius),
                             UniformSphere(mass, radius, (eta * radius, 0.0, 0.0)))
    expected = checks.e_delta_oracle(mass, radius, eta * radius)
    assert abs(e_delta(spec, method="analytic") / expected - 1.0) <= 1e-12


def test_oracle_small_d_limit():
    # E_delta -> G m^2 d^2 / (2 R^3) as d -> 0, with no cancellation
    mass, radius, d = 1000.0, 0.01, 1e-12
    limit = checks.G * mass**2 * d**2 / (2.0 * radius**3)
    assert checks.e_delta_oracle(mass, radius, d) == pytest.approx(limit, rel=1e-9)


def test_spread():
    # quartiles 2.5, 5.0 and 7.5
    assert stats.spread(range(1, 10)) == 1.0
    assert stats.spread([2.0] * 5) == 0.0


def test_percentile_and_tail_percentile():
    assert stats.percentile(range(1, 101), 90) == 90
    assert stats.percentile([5.0], 50) == 5.0
    assert stats.tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert stats.tail_percentile(list(range(1, 1001))) == (99.0, 990)
    assert stats.tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert stats.tail_percentile(list(range(1, 20))) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_is_deterministic_per_seed(workload, tmp_path):
    first = workloads.generate(workload, 5, tmp_path)
    assert workloads.generate(workload, 5, tmp_path) == first
    assert workloads.generate(workload, 6, tmp_path) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_every_command_once_per_pass(workload, tmp_path):
    ops, files = workloads.generate(workload, 1, tmp_path)
    assert {op.command for op in ops} == set(workloads.COMMANDS)
    assert len({op.name for op in ops}) == len(ops)
    assert workloads.warm_up_op(ops).command == "collapse-sim"
    assert workloads.pass_order(ops) == [op for op in ops if op.known_defect is None]
    assert workloads.probes(ops) == [op for op in ops if op.known_defect is not None]
    for path in files:
        assert Path(path).parent == tmp_path


def test_uniform_profile_is_a_ball_of_the_drawn_mass():
    from gravlab.massdist import RadialProfile
    text = workloads._uniform_profile_csv(2.0, 0.5)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    r, rho = zip(*((float(a), float(b)) for a, b in rows))
    assert RadialProfile(r, rho, mass=2.0).mass == 2.0


def test_self_times_subtract_children():
    spans = [
        ["cli.main", 0, 100, -1, "op", {}],
        ["massdist.e_delta", 10, 60, 0, "op", {}],
        ["massdist.quad", 20, 50, 1, "op", {}],
        ["persistence.write", 70, 80, 0, "op", {}],
    ]
    assert layers.self_times(spans) == [40, 20, 30, 10]


def test_per_layer_counts_and_missing_names_read_zero():
    trace = {"spawn_ns": 0, "start_ns": 50_000_000, "import_ns": 700_000_000,
             "scipy_s": 0.3, "quantities_s": 0.01,
             "spans": [["cli.main", 0, 10**9, -1, "e", {}],
                       ["massdist.e_delta", 0, 5 * 10**8, 0, "e", {"error": "ArithmeticError"}],
                       ["massdist.energy", 0, 10**8, 1, "e", {"error": "ArithmeticError"}],
                       ["persistence.write", 6 * 10**8, 7 * 10**8, 0, "e", {"bytes": 120}]]}
    names = [m["name"] for m in run.CONFIG["per_layer"]]
    metrics = layers.per_layer([trace, trace], 2, {"e-delta": 0.05}, names)
    assert set(metrics) == set(names)
    assert metrics["massdist.errors"] == 1.0
    assert metrics["massdist.e_delta.calls"] == 1.0
    assert metrics["persistence.bytes"] == 120.0
    assert metrics["cli.self_s"] == pytest.approx(0.4)
    assert metrics["cli.interpreter_s"] == pytest.approx(0.05)
    assert metrics["snsolver.eigensolve.calls"] == 0.0
    assert metrics["trace_overhead.e-delta_s"] == 0.05


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   scipy._lib",
        "import time:       250 |        350 | scipy",
        "import time:        40 |         90 |   gravlab.quantities",
        "Traceback (most recent call last):",
    ])
    parsed = layers.parse_importtime(stderr)
    assert parsed["scipy_s"] == pytest.approx(350e-6)
    assert parsed["quantities_s"] == pytest.approx(90e-6)


BALL = {"mass": 2.0, "radius": 0.5}


def _sweep_row(d, e_delta, error=None):
    lifetime = None if e_delta is None else (checks.HBAR / e_delta if e_delta else math.inf)
    return {"parameter": d, "E_delta_J": e_delta, "T_s": lifetime, "error": error}


def _check_sweep(rows, errors=0):
    result = checks.Result()
    summary = {"n_rows": len(rows), "errors": errors, "rows": rows}
    checks._lifetime_sweep(dict(BALL, rows=len(rows)), summary, result)
    return result


def test_sweep_checks_every_row_against_the_oracle():
    exact = [_sweep_row(e * 0.5, checks.e_delta_oracle(2.0, 0.5, e * 0.5)) for e in (0.5, 4.0)]
    result = _check_sweep(exact)
    assert result.problems == []
    assert [round(e.eta, 12) for e in result.e_deltas] == [0.5, 4.0]


def test_sweep_fails_on_an_errored_row():
    rows = [_sweep_row(0.25, checks.e_delta_oracle(2.0, 0.5, 0.25)),
            _sweep_row(2.0, None, error="GravlabError: quadrature failed")]
    result = _check_sweep(rows, errors=1)
    assert any("1 rows errored" in p for p in result.problems)
    assert any("no E_delta" in p for p in result.problems)
    assert len(result.e_deltas) == 1


def test_sweep_fails_when_lifetime_is_not_hbar_over_e_delta():
    row = _sweep_row(0.25, checks.e_delta_oracle(2.0, 0.5, 0.25))
    row["T_s"] *= 1.001
    assert any("not hbar/E_delta" in p for p in _check_sweep([row]).problems)
    assert _check_sweep([_sweep_row(1e-10, 0.0)]).problems == []
    assert _check_sweep([dict(_sweep_row(1e-10, 0.0), T_s=1.0)]).problems


def test_lost_digits_fail_away_from_the_cancellation_only():
    far, near = 0.3 * 0.5, 0.05 * 0.5
    off = 1.0 + 1e-5
    for d, fails in ((far, True), (near, False)):
        result = checks.Result()
        value = checks.e_delta_oracle(2.0, 0.5, d) * off
        checks._e_delta(dict(BALL, separation=d, quadrature=True), {"e_delta_J": value}, result)
        assert bool(result.problems) is fails
        assert result.e_deltas[0].rel_err == pytest.approx(1e-5)


def _invocation(name, command, wall_s, failed=False, speed=1.0):
    result = checks.Result()
    if failed:
        result.problems.append("exit code 1")
    return run.Invocation(workloads.Op(name, command, ()), wall_s, 1024, result, speed=speed)


def test_scale_up_probes_the_small_d_crash_outside_the_passes(tmp_path):
    ops, _ = workloads.generate("scale-up", 1, tmp_path)
    (probe,) = workloads.probes(ops)
    assert probe.command == "e-delta" and "ROADMAP item 1" in probe.known_defect
    assert probe not in workloads.pass_order(ops)
    readme, _ = workloads.generate("readme", 1, tmp_path)
    assert workloads.probes(readme) == []


def test_time_metrics_time_successful_invocations_only():
    invocations = [_invocation("e-delta", "e-delta", 1.0), _invocation("e-delta", "e-delta", 3.0),
                   _invocation("e-delta", "e-delta", 50.0, failed=True)]
    value, samples = run._per_command(invocations)["e-delta"]
    assert value == 2.0
    assert samples == [1.0, 3.0]


def test_end_to_end_gives_every_configured_metric():
    passes = [[_invocation(c, c, 1.0, speed=2.0) for c in workloads.COMMANDS]]
    metrics = run._end_to_end(passes, 1, [0.5, 0.7, 0.6], [])
    assert set(metrics) == {m["name"] for m in run.CONFIG["end_to_end"]}
    assert metrics["ok_ops"] == 1.0
    assert metrics["e_delta_max_rel_err"] == run.E_DELTA_RESOLUTION
    assert metrics["setup_s"] == 0.6
    assert metrics["pass_s"] == 2.0 * len(workloads.COMMANDS)
    assert metrics["feynman-scale_s"] == 2.0
    # a crashed probe reports no E_delta: the whole value is lost
    assert run._end_to_end(passes, 1, [0.6], [1.0])["e_delta_max_rel_err"] == 1.0


def test_benchmark_json_bounds():
    config = run.CONFIG
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 and math.isfinite(m["bound"]) for m in config["end_to_end"])


def test_calibrate_times_the_loop():
    bench = run.Bench.__new__(run.Bench)
    bench.calibrations = []
    assert bench.calibrate() > 0.0 and len(bench.calibrations) == 1
    assert _invocation("e-delta", "e-delta", 3.0, speed=0.5).scaled_s == 1.5
