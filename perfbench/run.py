"""gravlab benchmark: cold-process wall time of every CLI command.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 60 --trace 0

Run it from the root of a gravlab checkout; it drives the CLI in `src/` and
nothing else.  The load is a closed loop with one client: each operation is a
fresh interpreter, started after the previous one ended, with BLAS and OpenMP
pinned to one thread.  Set-up (input generation plus one warm-up invocation)
runs three times; then passes over the workload's operations run while the
next operation still fits in --seconds.  Every output is checked.  Each
operation's wall time is scaled to a reference host speed, from a loop timed
right before and right after it.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md
in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import layers
import stats
import workloads

HERE = Path(__file__).resolve().parent
# metric names and units
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUPS = 3
# relative errors below this are rounding in the closed forms and the oracle
E_DELTA_RESOLUTION = 1e-12
# massdist.quad.max_rel_err leaves out d/R below this, where the cancellation
# of ROADMAP item 1 costs up to half the value today and would hide the rest
QUAD_ERR_MIN_ETA = 0.01
# children still running this long after the start are killed, so that the
# run always ends within 180 s
RUN_LIMIT_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# what the `gravlab` console script runs
CLI_ENTRY = "import sys; from gravlab.cli import main; sys.exit(main())"
# A shared host's speed drifts by 10-20% within a minute and by more over
# tens of minutes, and a cold gravlab process slows with it.  A fixed
# pure-Python loop is timed in this process between operations, and each
# operation's wall time is multiplied by CALIBRATION_REF_S / the mean of the
# loop times right before and right after it: it reads as wall time at the
# speed the loop had when CALIBRATION_REF_S was measured (a 2-vCPU Intel Xeon
# virtual machine, Python 3.11).
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_REF_S = 0.065


@dataclass
class Invocation:
    op: workloads.Op
    wall_s: float
    maxrss_kb: int
    result: checks.Result
    trace: dict | None = None
    speed: float = 1.0             # Bench.invoke's host-speed factor

    @property
    def failed(self) -> bool:
        return bool(self.result.problems)

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * self.speed


class Bench:
    """Runs operations of one workload in fresh interpreters and checks them."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.count = 0
        self.bundle_digests: dict[str, str] = {}
        self.calibrations: list[float] = []
        self.speeds: list[float] = []
        self.failures: list[str] = []
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PYTHONSTARTUP", "GRAVLAB_OUTPUT_DIR")}
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def setup(self) -> tuple[list[workloads.Op], float]:
        """Write the workload's inputs and make one warm-up invocation; the
        time taken, at reference host speed."""
        if not self.calibrations:
            self.calibrate()
        t0 = time.monotonic()
        input_dir = self.work / "inputs"
        ops, files = workloads.generate(self.workload, self.seed, input_dir)
        input_dir.mkdir(exist_ok=True)
        for path, text in files.items():
            Path(path).write_text(text, encoding="utf-8")
        warm_up = self.invoke(workloads.warm_up_op(ops))
        return ops, (time.monotonic() - t0) * warm_up.speed

    def calibrate(self) -> float:
        """Time the calibration loop once; returns the time."""
        t0 = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
        self.calibrations.append(time.perf_counter() - t0)
        return self.calibrations[-1]

    def invoke(self, op: workloads.Op, traced: bool = False) -> Invocation:
        """Run `op` in a fresh interpreter and check its outputs, and time the
        loop after it.  The loop time before it is the latest one, taken
        after the previous operation or at the first set-up, with only
        bookkeeping since.  A probe's problems are not the run's failures."""
        before = self.calibrations[-1]
        self.count += 1
        op_dir = self.work / f"op{self.count:05d}"
        outdir = op_dir / "out"
        op_dir.mkdir()
        spans_path = op_dir / "spans.json"
        with open(op_dir / "stdout", "wb") as out, open(op_dir / "stderr", "wb") as err:
            spawn_ns = time.monotonic_ns()
            if traced:
                argv = [sys.executable, "-X", "importtime", str(HERE / "launcher.py"),
                        str(spans_path), str(spawn_ns), op.name, "--"]
            else:
                argv = [sys.executable, "-c", CLI_ENTRY]
            argv += [*op.argv(), "--output-dir", str(outdir)]
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            limit = max(0.0, self.started + RUN_LIMIT_S - time.monotonic())
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall_s = (time.monotonic_ns() - spawn_ns) * 1e-9
        speed = CALIBRATION_REF_S / (0.5 * (before + self.calibrate()))
        self.speeds.append(speed)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (op_dir / "stderr").read_text(encoding="utf-8", errors="replace")
        result = checks.check_operation(op, proc.returncode, stderr, outdir)
        if result.bundle_digest is not None and op.command == "collapse-sim":
            reference = self.bundle_digests.setdefault(op.name, result.bundle_digest)
            result.require(result.bundle_digest == reference,
                           "rerun at the same seed gave a different bundle hash")
        if result.problems and op.known_defect is None:
            self.failures.append(f"{op.name}: {'; '.join(result.problems)}")
        trace = None
        if traced and spans_path.is_file():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            trace.update(layers.parse_importtime(stderr))
        shutil.rmtree(op_dir)
        return Invocation(op, wall_s, usage.ru_maxrss, result, trace, speed)


def _per_command(invocations: list[Invocation]) -> dict[str, tuple[float, list[float]]]:
    """Per command: the mean over its operations of each operation's median
    scaled wall time over successful invocations, and every such time.  A
    command none of whose invocations succeeded falls back to all of them."""
    out = {}
    for command in workloads.COMMANDS:
        mine = [i for i in invocations if i.op.command == command]
        chosen = [i for i in mine if not i.failed] or mine
        by_op: dict[str, list[float]] = {}
        for i in chosen:
            by_op.setdefault(i.op.name, []).append(i.scaled_s)
        if by_op:
            medians = [statistics.median(walls) for walls in by_op.values()]
            out[command] = (sum(medians) / len(medians), [i.scaled_s for i in chosen])
    return out


def _end_to_end(passes, n_complete: int, setup_times,
                probe_errors: list[float]) -> dict[str, float]:
    """End-to-end metrics from the run's passes, the first `n_complete` of
    them complete, and the relative E_delta errors of the known-defect probes."""
    invocations = [i for p in passes for i in p]
    complete = passes[:n_complete]
    metrics = {f"{c}_s": v for c, (v, _) in _per_command(invocations).items()}
    metrics["pass_s"] = statistics.median(sum(i.scaled_s for i in p) for p in complete)
    metrics["peak_rss_mb"] = max(i.maxrss_kb for i in invocations) / 1024.0
    done = [i for p in complete for i in p]
    metrics["ok_ops"] = sum(not i.failed for i in done) / len(done)
    errors = [e.rel_err for i in invocations for e in i.result.e_deltas]
    metrics["e_delta_max_rel_err"] = max([E_DELTA_RESOLUTION, *errors, *probe_errors])
    metrics["setup_s"] = statistics.median(setup_times)
    return metrics


def _quadrature_max_rel_err(invocations: list[Invocation]) -> float:
    """Largest relative error of a quadrature-path E_delta at d/R >= QUAD_ERR_MIN_ETA;
    0 when the workload computes none."""
    return max((e.rel_err for i in invocations for e in i.result.e_deltas
                if e.quadrature and e.eta >= QUAD_ERR_MIN_ETA), default=0.0)


def _report(passes) -> list[str]:
    lines = []
    for command, (value, samples) in _per_command([i for p in passes for i in p]).items():
        tail = stats.tail_percentile(samples)
        tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                     else "no percentile has 10 samples beyond it")
        lines.append(f"  {command + '_s':22s} median {value:.4f} s  n={len(samples)}  {tail_text}")
    return lines


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(root: Path, env: dict) -> dict:
    return {
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": _commit(root),
    }


def measure(bench: Bench, ops, seconds: float, trace: bool):
    """Closed loop over the pass's operations, in order and repeated, while
    the next operation, at its median cost so far (calibration, process and
    checks), fits in `seconds`.
    The last pass skips the operations that no longer fit and runs the rest
    that do, so that the end of the run still yields samples.  With tracing,
    passes alternate traced and untraced and at least one complete pass of
    each runs.

    Returns every pass, the wall time of each complete one (the complete
    passes come first) and which passes were traced."""
    passes: list[list[Invocation]] = []
    durations: list[float] = []
    traced_flags: list[bool] = []
    costs: dict[str, list[float]] = {}
    t0 = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 0
        current: list[Invocation] = []
        passes.append(current)
        traced_flags.append(traced)
        start = time.monotonic()
        partial = False
        for op in workloads.pass_order(ops):
            enough = len(durations) >= (2 if trace else 1)
            if enough and time.monotonic() - t0 + statistics.median(costs[op.name]) > seconds:
                partial = True
                continue
            began = time.monotonic()
            invocation = bench.invoke(op, traced)
            current.append(invocation)
            costs.setdefault(op.name, []).append(time.monotonic() - began)
        if partial:
            return passes, durations, traced_flags
        durations.append(time.monotonic() - start)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "gravlab" / "cli.py").is_file():
        print(f"no gravlab source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        bench = Bench(root, args.workload, args.seed, work)
        setup_times = []
        for _ in range(1 if args.trace else SETUPS):
            ops, elapsed = bench.setup()
            setup_times.append(elapsed)
        passes, durations, traced_flags = measure(bench, ops, args.seconds, bool(args.trace))
        probed = [bench.invoke(op) for op in workloads.probes(ops)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    invocations = [i for p in passes for i in p]
    if args.trace:
        traced = [i for p, t in zip(passes, traced_flags) if t for i in p]
        plain = [i for p, t in zip(passes, traced_flags) if not t for i in p]
        with_trace, without = _per_command(traced), _per_command(plain)
        overhead = {c: with_trace[c][0] - without[c][0]
                    for c in with_trace.keys() & without.keys()}
        # per-pass layer totals come from complete traced passes only
        complete = [p for p, t in zip(passes[:len(durations)], traced_flags) if t]
        traces = [i.trace for p in complete for i in p if i.trace is not None]
        units = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
        values = layers.per_layer(traces, len(complete), overhead, units)
        values["massdist.quad.max_rel_err"] = _quadrature_max_rel_err(invocations)
    else:
        # a probe that reports no E_delta is off by all of it
        probe_errors = [max((e.rel_err for e in i.result.e_deltas), default=1.0)
                        for i in probed]
        values = _end_to_end(passes, len(durations), setup_times, probe_errors)
        units = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}

    print(f"gravlab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(durations)} complete passes, {len(invocations)} operations")
    print("\n".join(_report(passes)))
    print(f"  times are at reference host speed; calibration loop median "
          f"{statistics.median(bench.calibrations):.4f} s over {len(bench.calibrations)}, "
          f"scale factors {min(bench.speeds):.3f}-{max(bench.speeds):.3f}")
    for problem in bench.failures[:20]:
        print(f"  FAILED {problem}")
    for i in probed:
        outcome = "; ".join(i.result.problems) or "passed its checks"
        errors = ", ".join(f"{e.rel_err:.3g}" for e in i.result.e_deltas) or "none"
        print(f"  KNOWN DEFECT probe {i.op.name} ({i.op.known_defect}): {outcome}; "
              f"E_delta relative error {errors}")
    print("provenance " + json.dumps(provenance(root, bench.env), sort_keys=True))
    summary = {
        "correct": not bench.failures,
        "attempted": len(invocations),
        "failed": sum(i.failed for i in invocations),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
