"""How the traced run's spans add up to the per-layer metrics.

The traced launcher (launcher.py) wraps gravlab's layer boundaries; each span
is (name, start_ns, end_ns, parent index, operation id, extras).  The per-layer
metrics are per-pass totals over the traced passes, except the cli import
figures, which are medians per invocation because every invocation pays them.
A callable that a later version of gravlab no longer has is left unwrapped and
reads as zero calls.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


SELF_TIME_GROUPS = {
    "cli.self_s": ("cli.main",),
    "persistence.self_s": ("persistence.write", "persistence.hash"),
    "massdist.e_delta.self_s": ("massdist.e_delta",),
    "massdist.energy.self_s": ("massdist.energy",),
    "massdist.mc.self_s": ("massdist.mc",),
    "massdist.quad.self_s": ("massdist.quad",),
    "dpcriterion.self_s": ("dpcriterion.collapse_time", "dpcriterion.lifetime_sweep",
                           "dpcriterion.feynman_mass_scale"),
    "snsolver.shooting.self_s": ("snsolver.shooting",),
    "snsolver.scf.self_s": ("snsolver.scf",),
    "snsolver.eigensolve.self_s": ("snsolver.eigensolve",),
    "snsolver.kernel_integral.self_s": ("snsolver.kernel_integral",),
    "snsolver.evolve.self_s": ("snsolver.evolve",),
    "snsolver.cn_solve.self_s": ("snsolver.cn_solve",),
    "collapsesim.simulate.self_s": ("collapsesim.simulate",),
    "collapsesim.ledger.self_s": ("collapsesim.ledger",),
}
CALL_COUNTS = {
    "persistence.calls": ("persistence.write", "persistence.hash"),
    "massdist.e_delta.calls": ("massdist.e_delta",),
    "massdist.quad.calls": ("massdist.quad",),
    "dpcriterion.collapse_time.calls": ("dpcriterion.collapse_time",),
    "snsolver.eigensolve.calls": ("snsolver.eigensolve",),
    "snsolver.kernel_integral.calls": ("snsolver.kernel_integral",),
    "snsolver.cn_solve.calls": ("snsolver.cn_solve",),
}


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the time its child spans cover, in ns.
    Spans of one thread nest, so the children of a span never overlap."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds from `python -X importtime`: scipy's own import work, and
    gravlab.quantities with what it pulls in."""
    scipy_us = quantities_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header line
        module = fields[2].strip()
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += int(fields[0])
        elif module == "gravlab.quantities":
            quantities_us = int(fields[1])
    return {"scipy_s": scipy_us * 1e-6, "quantities_s": quantities_us * 1e-6}


def per_layer(traces: list[dict], n_passes: int, overhead: dict[str, float],
              names) -> dict[str, float]:
    """Per-layer metrics from the traced invocations of `n_passes` passes.

    Each trace holds the launcher's record plus the parsed importtime figures.
    `overhead` maps a command to its traced minus untraced median wall time.
    Every one of `names` gets a value; a layer that did no work reads 0.
    """
    totals: dict[str, float] = defaultdict(float)
    per_call = defaultdict(list)
    sim_n = sim_ns = scf_states = 0
    rss_growth_kb = 0
    for trace in traces:
        spans = trace["spans"]
        own = self_times(spans)
        per_call["cli.interpreter_s"].append((trace["start_ns"] - trace["spawn_ns"]) * 1e-9)
        per_call["cli.import_s"].append(trace["import_ns"] * 1e-9)
        per_call["cli.import_scipy_s"].append(trace["scipy_s"])
        per_call["quantities.import_s"].append(trace["quantities_s"])
        for i, (name, start, end, parent, _, extra) in enumerate(spans):
            for metric, group in SELF_TIME_GROUPS.items():
                if name in group:
                    totals[metric] += own[i] * 1e-9
            for metric, group in CALL_COUNTS.items():
                if name in group:
                    totals[metric] += 1
            if name == "cli.main":
                totals["cli.main_s"] += (end - start) * 1e-9
            totals["persistence.bytes"] += extra.get("bytes", 0)
            totals["dpcriterion.rows_errored"] += extra.get("rows_errored", 0)
            totals["snsolver.states"] += extra.get("states", 0)
            if name == "snsolver.scf":
                scf_states += extra.get("states", 0)
            if name == "collapsesim.simulate":
                sim_n += extra.get("n", 0)
                sim_ns += end - start
                rss_growth_kb = max(rss_growth_kb, extra.get("rss_growth_kb", 0))
            outermost = parent < 0 or _layer(spans[parent][0]) != "massdist"
            if _layer(name) == "massdist" and "error" in extra and outermost:
                totals["massdist.errors"] += 1
    metrics = {name: 0.0 for name in names}
    for name, value in totals.items():
        metrics[name] = value / max(n_passes, 1)
    for name, values in per_call.items():
        metrics[name] = statistics.median(values) if values else 0.0
    eigensolves = totals["snsolver.eigensolve.calls"]
    metrics["snsolver.eigensolves_per_state"] = eigensolves / scf_states if scf_states else 0.0
    metrics["collapsesim.trajectories_per_s"] = sim_n / (sim_ns * 1e-9) if sim_ns else 0.0
    metrics["collapsesim.rss_growth_mb"] = rss_growth_kb / 1024.0
    for command, value in overhead.items():
        metrics[f"trace_overhead.{command}_s"] = value
    return metrics
