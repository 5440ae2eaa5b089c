"""In-memory span tracer installed around qwitness's public functions.

The tracer never edits the package: it rebinds the traced functions in
every qwitness module namespace that holds them, so calls that cross a
layer boundary by global lookup go through a wrapper. Each wrapper records
one span (name, start, end, parent) and accumulates per-name call counts,
busy time, self time (busy time minus the time covered by traced children)
and raised exceptions. A few wrappers also count work the layer reports
back (objective evaluations, Nelder-Mead function evaluations, shots).

Spans stay in memory up to ``MAX_SPANS`` and are written out by
:meth:`Tracer.dump` once the run ends; aggregates cover every call.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Span name -> (defining module, attribute). DensityMatrix is a class that
# other modules test with isinstance, so its validation hook is traced in
# place of the class itself.
TARGETS = {
    "qcore.density_matrix": ("qwitness.qcore", "DensityMatrix.__post_init__"),
    "witness.quantumness": ("qwitness.witness", "quantumness"),
    "interferometer.interferometric_quantumness": (
        "qwitness.interferometer", "interferometric_quantumness"),
    "interferometer.permutation_expectation": (
        "qwitness.interferometer", "permutation_expectation"),
    "interferometer.run_interferometer": ("qwitness.interferometer", "run_interferometer"),
    "interferometer.extract_visibility": ("qwitness.interferometer", "extract_visibility"),
    "correlations.maximize_witness": ("qwitness.correlations", "maximize_witness"),
    "correlations.correlation_witness": ("qwitness.correlations", "correlation_witness"),
    "correlations.conditional_state": ("qwitness.correlations", "conditional_state"),
    # scipy's minimize as bound in correlations: the refinement stage.
    "correlations.refine": ("qwitness.correlations", "minimize"),
    # End of the scan-point generation marks the start of the scan loop.
    "correlations.scan_points": ("qwitness.correlations", "_scan_points"),
    "cli.dispatch": ("qwitness.cli", "dispatch"),
    "cli.load_state": ("qwitness.cli", "load_state"),
}

PACKAGE_MODULES = (
    "qwitness",
    "qwitness.qcore",
    "qwitness.witness",
    "qwitness.interferometer",
    "qwitness.correlations",
    "qwitness.cli",
)

# A refinement start "ends at the best" when its optimum is this close to best_q.
AT_BEST_TOL = 1e-9
# Spans kept in memory for the dump; aggregates cover every call regardless.
MAX_SPANS = 20_000


class Tracer:
    """Span recorder with per-name aggregates and layer-specific counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op = 0  # index of the workload op the next spans belong to
        self.child_processes: list[dict] = []  # dumps of traced subprocesses
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy_ns, self_ns, errors]
        self.counters: dict[str, float] = {}
        self.enabled = False
        self._stack: list[list[int]] = []  # [span_id, child_ns]
        self._next_id = 0
        self._scan_ready_ns: int | None = None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span named ``name``."""
        tracer = self
        on_enter = _ENTER_HOOKS.get(name)
        on_exit = _EXIT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            error = 0
            start = time.perf_counter_ns()
            if on_enter is not None:
                on_enter(tracer, start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                busy = end - start
                if stack:
                    stack[-1][1] += busy
                agg = tracer.stats.get(name)
                if agg is None:
                    agg = tracer.stats[name] = [0, 0, 0, 0]
                agg[0] += 1
                agg[1] += busy
                agg[2] += busy - frame[1]
                agg[3] += error
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent, tracer.op, name, start, end, error))
                else:
                    tracer.dropped_spans += 1
            if on_exit is not None:
                on_exit(tracer, result, end)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded qwitness module to its wrapper.

        Spans are recorded only while ``enabled`` is set.
        """
        for name, (module_name, attr) in TARGETS.items():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for mod_name in PACKAGE_MODULES:
                mod = sys.modules.get(mod_name)
                if mod is not None and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def snapshot(self) -> dict:
        """Aggregates and counters as plain data."""
        return {"stats": self.stats, "counters": self.counters}

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write aggregates, counters and the recorded spans to ``path``."""
        doc = self.snapshot()
        doc["dropped_spans"] = self.dropped_spans
        doc["spans"] = [
            dict(zip(("id", "parent", "op", "name", "start_ns", "end_ns", "error"), s))
            for s in self.spans
        ]
        doc["child_processes"] = self.child_processes
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _scan_points_exit(tracer: Tracer, points, end_ns: int) -> None:
    tracer.count("scan.points", len(points))
    tracer._scan_ready_ns = end_ns


def _refine_enter(tracer: Tracer, start_ns: int) -> None:
    if tracer._scan_ready_ns is not None:
        tracer.count("scan.ns", start_ns - tracer._scan_ready_ns)
        tracer._scan_ready_ns = None


def _refine_exit(tracer: Tracer, res, end_ns: int) -> None:
    tracer.count("refine.nfev", int(res.nfev))


def _maximize_exit(tracer: Tracer, report, end_ns: int) -> None:
    tracer.count("objective_evals", report.evaluations)
    starts = report.trace[1:]
    tracer.count("refine.starts", len(starts))
    tracer.count(
        "refine.starts_at_best",
        sum(1 for _, q in starts if abs(q - report.best_q) <= AT_BEST_TOL),
    )


def _run_interferometer_exit(tracer: Tracer, fringes, end_ns: int) -> None:
    tracer.count("shots_drawn", int(fringes.shots.sum()))


_ENTER_HOOKS = {"correlations.refine": _refine_enter}
_EXIT_HOOKS = {
    "correlations.scan_points": _scan_points_exit,
    "correlations.refine": _refine_exit,
    "correlations.maximize_witness": _maximize_exit,
    "interferometer.run_interferometer": _run_interferometer_exit,
}


def layer_metrics(snap: dict, n_ops: int) -> dict[str, float]:
    """Per-layer metrics, per workload op, from a snapshot."""
    stats, counters = snap["stats"], snap["counters"]

    def calls(name):
        return stats.get(name, [0, 0, 0, 0])[0]

    def busy_ms(name):
        return stats.get(name, [0, 0, 0, 0])[1] / 1e6

    def self_ms(name):
        return stats.get(name, [0, 0, 0, 0])[2] / 1e6

    def errors(name):
        return stats.get(name, [0, 0, 0, 0])[3]

    def per_op(x):
        return x / n_ops

    def us_per_call(name):
        c = calls(name)
        return 1000.0 * self_ms(name) / c if c else 0.0

    out: dict[str, float] = {}
    for name in (
        "qcore.density_matrix",
        "witness.quantumness",
        "interferometer.interferometric_quantumness",
        "interferometer.permutation_expectation",
        "interferometer.run_interferometer",
        "interferometer.extract_visibility",
        "correlations.maximize_witness",
        "correlations.correlation_witness",
        "correlations.conditional_state",
        "cli.dispatch",
        "cli.load_state",
    ):
        out[f"{name}.calls"] = per_op(calls(name))
        out[f"{name}.self_ms"] = per_op(self_ms(name))
    out["qcore.density_matrix.us_per_call"] = us_per_call("qcore.density_matrix")
    out["qcore.density_matrix.errors"] = per_op(errors("qcore.density_matrix"))
    out["witness.quantumness.us_per_call"] = us_per_call("witness.quantumness")
    out["interferometer.shots_drawn"] = per_op(counters.get("shots_drawn", 0))
    evals = counters.get("objective_evals", 0)
    out["correlations.objective_evals"] = per_op(evals)
    out["correlations.us_per_eval"] = (
        1000.0 * busy_ms("correlations.maximize_witness") / evals if evals else 0.0
    )
    out["correlations.scan.points"] = per_op(counters.get("scan.points", 0))
    out["correlations.scan.ms"] = per_op(counters.get("scan.ns", 0) / 1e6)
    out["correlations.refine.calls"] = per_op(calls("correlations.refine"))
    out["correlations.refine.nfev"] = per_op(counters.get("refine.nfev", 0))
    out["correlations.refine.ms"] = per_op(busy_ms("correlations.refine"))
    starts = counters.get("refine.starts", 0)
    out["correlations.refine.starts_at_best_ratio"] = (
        counters.get("refine.starts_at_best", 0) / starts if starts else 0.0
    )
    out["correlations.correlation_witness.errors"] = per_op(
        errors("correlations.correlation_witness"))
    processes = counters.get("process.count", 0)
    for key in ("spawn", "import"):
        ns = counters.get(f"process.{key}_ns", 0)
        out[f"cli.process.{key}_ms"] = ns / 1e6 / processes if processes else 0.0
    out["cli.report_bytes"] = per_op(counters.get("report_bytes", 0))
    return out
