"""The load-generating process of one benchmark run.

Started by ``run.py`` with BLAS threads pinned and ``src`` on the path. It
imports qwitness, builds the first round from the seed, runs the timed
phase as whole rounds of ops (each round built and checked off the
clock), and writes its measurements as JSON to ``--out``. With
``--setup-only`` it stops where the first timed op would start. With
``--trace 1`` it runs an untraced half and a traced half of ``--seconds``,
both on round 0 over and over, and adds the per-layer metrics and the
tracing overhead; spans go to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

# The end-to-end phase runs at least this many rounds.
MIN_ROUNDS = 3
MAX_FAILURE_MESSAGES = 5


def tail_index(n: int) -> int:
    """Index, in n sorted samples, of the highest percentile with ten samples above it.

    With ten samples or fewer there is none, and the largest stands in (p100).
    """
    return n - 11 if n > 10 else n - 1


class Phase:
    """Op latencies, round times and oracle outcomes of one measured phase.

    A round is a fixed mix of ops on fresh inputs; a slot is one position
    in that mix (the same shape, mode or command each round). A shared
    machine has slow spells, from a second to minutes, in which the same
    code runs up to twice as slow, and how much of a run they cover varies
    from run to run. So the gated figures take each slot's best latency
    over the rounds: p50 and tail are over these per-slot bests, and
    throughput is the slot count over their sum. Every op's own latency is
    kept too, and the wall-clock figures over all ops (ops per wall-second
    of the timed phase, raw p50 and tail) are reported beside them.
    """

    def __init__(self):
        self.ops = 0
        self.first_op_ns: int | None = None  # when the first timed op started
        self.op_s: list[float] = []  # every op's latency, in run order
        self.round_s: list[float] = []  # wall time of each round's ops
        self.round_size = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_FAILURE_MESSAGES:
            self.messages.append(message)

    def summary(self) -> dict:
        n = self.round_size
        best = sorted(min(self.op_s[i::n]) for i in range(n))
        raw = sorted(self.op_s)
        tail, raw_tail = tail_index(n), tail_index(len(raw))
        return {
            "ops": self.ops,
            "failed": self.failed,
            "failures": self.messages,
            "rounds": len(self.round_s),
            "round_size": n,
            "throughput_ops_per_s": n / sum(best),
            "latency_p50_ms": 1e3 * statistics.median(best),
            "latency_tail_ms": 1e3 * best[tail],
            "tail_percentile": 100.0 * (tail + 1) / n,
            "wall_clock": {
                "timed_s": sum(self.round_s),
                "throughput_ops_per_s": self.ops / sum(self.round_s),
                "latency_p50_ms": 1e3 * statistics.median(raw),
                "latency_tail_ms": 1e3 * raw[raw_tail],
                "tail_percentile": 100.0 * (raw_tail + 1) / len(raw),
            },
        }


def measure(wl, seconds: float, min_rounds: int = 1, tracer=None,
            repeat_first: bool = False) -> Phase:
    """Run whole rounds for ``seconds`` of wall time and at least ``min_rounds`` rounds.

    With ``repeat_first`` every round is round 0 again, so that per-op
    counts depend on the seed only, not on how many rounds the time allows.
    """
    phase = Phase()
    collect = getattr(wl, "collect", None)
    prepare = getattr(wl, "prepare", None)
    first = wl.make_round(0) if repeat_first else None
    stop = time.perf_counter() + seconds
    k = 0
    while k < min_rounds or time.perf_counter() < stop:
        items = first if repeat_first else wl.make_round(k)
        k += 1
        phase.round_size = len(items)
        if prepare is not None:
            prepare(items)
        outcomes = []
        if tracer is not None:
            tracer.enabled = True
        if phase.first_op_ns is None:
            phase.first_op_ns = time.perf_counter_ns()
        round_start = time.perf_counter()
        for item in items:
            if tracer is not None:
                tracer.op = phase.ops
            t0 = time.perf_counter()
            try:
                outcome = wl.run(item)
            except Exception as exc:  # an op that raises is a failed op
                outcome = exc
            phase.op_s.append(time.perf_counter() - t0)
            phase.ops += 1
            outcomes.append(outcome)
        phase.round_s.append(time.perf_counter() - round_start)
        if tracer is not None:
            tracer.enabled = False
            if collect is not None:
                collect(tracer, items, outcomes)
        for item, outcome in zip(items, outcomes):
            if isinstance(outcome, Exception):
                phase.fail(f"{type(outcome).__name__}: {outcome}")
                continue
            try:
                message = wl.check(item, outcome)
            except Exception as exc:  # an unreadable outcome misses its oracle
                message = f"oracle raised {type(exc).__name__}: {exc}"
            if message is not None:
                phase.fail(message)
    return phase


def environment() -> dict:
    import numpy
    import scipy

    import qwitness

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qwitness": qwitness.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans-out", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    result: dict = {}
    if args.setup_only:
        wl.make_round(0)
        result["setup_s"] = (time.perf_counter_ns() - args.spawn_ns) / 1e9
    elif not args.trace:
        phase = measure(wl, args.seconds, min_rounds=MIN_ROUNDS)
        result.update(phase.summary())
        result["setup_s"] = (phase.first_op_ns - args.spawn_ns) / 1e9
        result["peak_rss_mb"] = peak_rss_mb()
        result["env"] = environment()
    else:
        from tracer import Tracer, layer_metrics

        untraced = measure(wl, args.seconds / 2, repeat_first=True).summary()
        tracer = Tracer()
        tracer.install()
        traced = measure(wl, args.seconds / 2, tracer=tracer, repeat_first=True).summary()
        if hasattr(wl, "process_probes"):
            wl.process_probes(tracer)
        result["ops"] = untraced["ops"] + traced["ops"]
        result["failed"] = untraced["failed"] + traced["failed"]
        result["failures"] = untraced["failures"] + traced["failures"]
        result["untraced"], result["traced"] = untraced, traced
        layers = layer_metrics(tracer.snapshot(), traced["ops"])
        layers["trace.overhead_p50_ms"] = traced["latency_p50_ms"] - untraced["latency_p50_ms"]
        layers["trace.overhead_throughput_pct"] = 100.0 * (
            1.0 - traced["throughput_ops_per_s"] / untraced["throughput_ops_per_s"])
        result["layers"] = layers
        result["env"] = environment()
        tracer.dump(args.spans_out, {"workload": args.workload, "seed": args.seed,
                                     "traced_ops": traced["ops"]})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
