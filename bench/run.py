"""qwitness benchmark: one run of one workload, metrics on the last line.

    python3 bench/run.py --workload pair-sweep --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory, so the checkout needs no install. Every process is started one
at a time with BLAS/OpenMP threads pinned to 1, the plain single-threaded
baseline.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
over SETUP_PROBES fresh interpreters plus the measured one, each timed
from spawn to the first timed op. The timed phase runs rounds of a fixed
mix of ops (slots) on fresh seeded inputs. Latency p50 and tail are over
each slot's best latency in the run, and throughput is the slot count
over the sum of these bests; the wall-clock figures over every op are
printed beside them. ``--trace 1`` runs an untraced half and a traced
half and reports the per-layer metrics (per workload op) and the tracing
overhead between the halves. Lines before the last describe the
environment, the tail percentile, the wall-clock figures, failures and,
for traced runs, which end-to-end metric each layer metric should move
(``layer_map.json``, which must map every per-layer metric). The last
line is one JSON object: correct, attempted, failed, metrics.

Outputs (results, spans, CLI scratch files) go to ``.bench_build/bench``.
The exit code is 0 only when the run completed, whatever the oracles said.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "bench"
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# discord-search and interfere-scan are run by hand only; see their
# docstrings in workloads.py.
WORKLOADS = ("pair-sweep", "discord-search", "interfere-scan", "cli-session")


class BenchError(Exception):
    """The run cannot produce a result."""


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unresolved " + ref


def _source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _worker(args, deadline: float, out: Path, extra: list[str], env: dict) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(OUT / "work" / args.workload), "--out", str(out), *extra,
    ]
    if out.exists():
        out.unlink()
    spawn_ns = time.perf_counter_ns()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the workload ran")
    # Own session, so that a timeout also ends the qwitness processes it started.
    proc = subprocess.Popen(cmd + ["--spawn-ns", str(spawn_ns)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker exited {proc.returncode}:\n{stderr.strip()}")
    return json.loads(out.read_text())


def _print_env(env_info: dict) -> None:
    for key, value in env_info.items():
        print(f"env.{key}: {value}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    package = ROOT / "src" / "qwitness"
    spec_path = ROOT / "BENCHMARK.json"
    if not (package / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchError(f"no qwitness sources under {package} or no {spec_path.name}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / f"worker-{tag}.json"

    metrics: dict[str, float] = {}
    if args.trace:
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        res = _worker(args, deadline, out, ["--spans-out", str(spans)], env)
        metrics.update(res["layers"])
    else:
        # Half the probes before the measured run and half after, so that
        # one slow spell of the machine does not cover them all.
        def probe():
            return _worker(args, deadline, out, ["--setup-only"], env)["setup_s"]

        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        res = _worker(args, deadline, out, [], env)
        setups.append(res["setup_s"])
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics["setup_s"] = statistics.median(setups)
        for key in ("throughput_ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"):
            metrics[key] = res[key]
        metrics["success_rate"] = 1.0 - res["failed"] / res["ops"]
        res["setup_samples_s"] = setups
    out.unlink()

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        diff = sorted(set(names) ^ set(metrics))
        raise BenchError(f"metric set differs from BENCHMARK.json: {diff}")

    res["env"]["git_commit"] = _git_commit()
    res["env"]["source_sha256"] = _source_digest(package)
    res["args"] = vars(args)
    res["metrics"] = metrics
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(res, indent=1) + "\n")

    _print_env(res["env"])
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        layer_map = json.loads((BENCH / "layer_map.json").read_text())
        mapped = [name for entry in layer_map for name in entry["metrics"]]
        if sorted(mapped) != sorted(names):
            diff = sorted(set(names) ^ set(mapped))
            raise BenchError(f"layer_map.json and BENCHMARK.json per_layer differ: {diff}")
        for phase in ("untraced", "traced"):
            p = res[phase]
            print(f"{phase}: ops={p['ops']} throughput={p['throughput_ops_per_s']:.6g}/s "
                  f"p50={p['latency_p50_ms']:.6g} ms")
    else:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        wall = res["wall_clock"]
        print(f"{res['ops']} ops in {res['rounds']} rounds of {res['round_size']} slots; "
              f"latency_p50_ms and latency_tail_ms (p{res['tail_percentile']:.4f}) are over "
              f"the {res['round_size']} per-slot best latencies")
        print(f"wall clock over all {res['ops']} ops ({wall['timed_s']:.4f} s): "
              f"throughput {wall['throughput_ops_per_s']:.6g}/s, "
              f"p50 {wall['latency_p50_ms']:.6g} ms, "
              f"p{wall['tail_percentile']:.4f} {wall['latency_tail_ms']:.6g} ms")
    print(f"failure_rate = {res['failed']}/{res['ops']} = {res['failed'] / res['ops']:.6g}")
    for message in res["failures"]:
        print(f"failure: {message}")
    for m in wanted:
        line = f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}"
        if args.trace:
            line += _mapping(layer_map, m["name"])
        print(line)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def _mapping(layer_map: list[dict], name: str) -> str:
    entry = next(e for e in layer_map if name in e["metrics"])
    return (f"  -> {', '.join(entry['should_move'])} on {', '.join(entry['on'])};"
            f" no change on {', '.join(entry['no_change_on'])}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
