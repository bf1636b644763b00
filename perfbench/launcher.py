"""Traced gravlab CLI invocation, run in a fresh interpreter per operation.

    python -X importtime perfbench/launcher.py SPANS_JSON SPAWN_NS OP_ID -- ARGS...

Times `import gravlab.cli`, wraps the layer boundaries listed in WRAPPED, runs
`gravlab.cli.main(ARGS)` and writes the spans it kept in memory to SPANS_JSON
at exit, also when the command raises.  Exit status and output are those of
the plain CLI.  SPAWN_NS is the parent's time.monotonic_ns() just before it
started this process; the gap to this module's first line is interpreter
start-up.
"""

import time

START_NS = time.monotonic_ns()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# (module, attribute, span name); the attribute is replaced on its home
# module and at every binding of the same object in gravlab's modules
WRAPPED = (
    ("gravlab.cli", "main", "cli.main"),
    ("gravlab.persistence", "write_json", "persistence.write"),
    ("gravlab.persistence", "write_csv", "persistence.write"),
    ("gravlab.persistence", "write_plot_script", "persistence.write"),
    ("gravlab.persistence", "sha256_file", "persistence.hash"),
    ("gravlab.massdist", "e_delta", "massdist.e_delta"),
    ("gravlab.massdist", "self_energy", "massdist.energy"),
    ("gravlab.massdist", "mutual_energy", "massdist.energy"),
    ("gravlab.massdist", "self_energy_mc", "massdist.mc"),
    ("gravlab.massdist", "e_delta_mc", "massdist.mc"),
    ("scipy.integrate", "quad", "massdist.quad"),
    ("gravlab.dpcriterion", "collapse_time", "dpcriterion.collapse_time"),
    ("gravlab.dpcriterion", "lifetime_sweep", "dpcriterion.lifetime_sweep"),
    ("gravlab.dpcriterion", "feynman_mass_scale", "dpcriterion.feynman_mass_scale"),
    # recorded as snsolver.<method>: snsolver.scf or snsolver.shooting
    ("gravlab.snsolver.stationary", "stationary_states", "snsolver"),
    ("scipy.linalg", "eigh_tridiagonal", "snsolver.eigensolve"),
    ("gravlab.snsolver.state", "kernel_integral", "snsolver.kernel_integral"),
    ("gravlab.snsolver.evolution", "evolve", "snsolver.evolve"),
    ("scipy.linalg", "solve_banded", "snsolver.cn_solve"),
    ("gravlab.collapsesim", "simulate", "collapsesim.simulate"),
    ("gravlab.collapsesim", "energy_ledger", "collapsesim.ledger"),
)


class Tracer:
    """Spans of one operation, kept in memory until the process ends."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        method_default = None
        if name == "snsolver":
            method = inspect.signature(fn).parameters.get("method")
            method_default = "scf" if method is None else method.default

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if method_default is not None:
                label = f"snsolver.{kwargs.get('method', method_default)}"
            extra: dict = {}
            span = [label, 0, 0, self._open[-1] if self._open else -1, self.op_id, extra]
            self._open.append(len(self.spans))
            self.spans.append(span)
            rss_before = _maxrss_kb() if label == "collapsesim.simulate" else 0
            span[1] = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                extra["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.monotonic_ns()
                self._open.pop()
            _annotate(label, result, extra, rss_before)
            return result

        return traced

    def install(self) -> None:
        gravlab_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == "gravlab" or n.startswith("gravlab."))]
        for module_name, attribute, name in WRAPPED:
            home = sys.modules.get(module_name)
            original = getattr(home, attribute, None)
            if original is None:
                continue  # gone from this version of gravlab: reads as zero calls
            wrapper = self.wrap(original, name)
            setattr(home, attribute, wrapper)
            for module in gravlab_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _annotate(label: str, result, extra: dict, rss_before: int) -> None:
    """Counts taken from a call's result; a result of another shape than
    today's is left uncounted rather than failing the traced command."""
    try:
        _count(label, result, extra, rss_before)
    except (AttributeError, TypeError, OSError):
        pass


def _count(label: str, result, extra: dict, rss_before: int) -> None:
    if label == "persistence.write":
        extra["bytes"] = os.path.getsize(result)
    elif label == "dpcriterion.lifetime_sweep":
        extra["rows_errored"] = sum(1 for row in result if row.error is not None)
    elif label in ("snsolver.scf", "snsolver.shooting"):
        extra["states"] = len(result)
    elif label == "collapsesim.simulate":
        extra["n"] = result.n_trajectories
        extra["rss_growth_kb"] = _maxrss_kb() - rss_before


def main() -> int:
    spans_path, spawn_ns, op_id, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit(f"usage: {__doc__}")
    t0 = time.monotonic_ns()
    import gravlab.cli
    import_ns = time.monotonic_ns() - t0
    tracer = Tracer(op_id)
    tracer.install()
    sys.argv = ["gravlab", *cli_args]
    try:
        return gravlab.cli.main(cli_args)
    finally:
        record = {"op": op_id, "spawn_ns": int(spawn_ns), "start_ns": START_NS,
                  "import_ns": import_ns, "spans": tracer.spans}
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
