"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload readme --seeds 1-10 [--seconds 60]

For every metric it prints the median over the runs and the distance between
the first and third quartile as a share of that median, next to the metric's
bound from BENCHMARK.json.  Each run's result line is appended to --log.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path, default=None)
    args = parser.parse_args()

    config = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    first, last = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        if args.log:
            with args.log.open("a", encoding="utf-8") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    print(f"{'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = stats.spread(values) if len(values) > 1 and med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"{name:32s} {med:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
