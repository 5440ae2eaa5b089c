"""The four benchmark workloads: seeded inputs, one op, and its oracle.

The timed phase runs rounds of ops. ``make_round(k)`` builds round ``k``
from the workload seed and ``k`` only, off the clock: every round has the
same composition (the same shapes, modes or commands in the same order)
but fresh numbers, so no round repeats an input of an earlier round, and a
cache keyed on input content gains nothing across rounds. (Within a
cli-session round several commands read the same state files, as the
commands of one shell session would.) Ops call the package through module
attribute lookup (``qw.quantumness``), so traced runs go through the
tracer's wrappers.

``run(item)`` performs one op and returns its raw outcome; ``check(item,
outcome)`` returns None when the outcome meets the oracle, else a message.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import qwitness as qw
import qwitness.cli as qcli

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(BENCH_DIR, "cli_launcher.py")


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random d x d unitary: QR of a Ginibre matrix, phases fixed."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


class PairSweep:
    """Validate two raw matrices, then Q by direct norm and by trace formula."""

    name = "pair-sweep"
    DIMS = (2, 3, 5, 16)
    PAIRS_PER_SHAPE = 16

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.shapes = [(d, r) for d in self.DIMS for r in sorted({1, (d + 1) // 2, d})]

    def make_round(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])

        def raw(d, r):  # a bare Ginibre array G G^dag / Tr, validated only by the op
            g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
            m = g @ g.conj().T
            return m / np.trace(m).real

        return [(raw(d, r), raw(d, r)) for _ in range(self.PAIRS_PER_SHAPE)
                for d, r in self.shapes]

    def run(self, item):
        rho_a = qw.DensityMatrix(item[0])
        rho_b = qw.DensityMatrix(item[1])
        direct = qw.quantumness(rho_a, rho_b, "direct_norm")
        trace = qw.quantumness(rho_a, rho_b, "trace_formula")
        return direct.q_value, trace.q_value

    def check(self, item, outcome):
        q_direct, q_trace = outcome
        if abs(q_direct - q_trace) > 1e-10:
            return f"routes disagree: direct {q_direct!r} vs trace {q_trace!r}"
        if not all(0.0 <= q <= 1.0 + 1e-12 for q in outcome):
            return f"Q outside [0, 1]: {outcome!r}"
        return None


class DiscordSearch:
    """One maximize_witness with the default OptimizerConfig.

    Not in BENCHMARK.json: its ops take 0.65 to 2 s, and on a shared 2-vCPU
    VM whose speed drifts over seconds to minutes their latency spread by
    34% over ten seeds (33% even with a search cut to 50-100 ms per op).
    Run it by hand, paired against the parent commit, and for its per-layer
    counts, which repeat exactly for a seed.
    """

    name = "discord-search"
    CONFIG = qw.OptimizerConfig()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def make_round(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        ginibre = qw.qcore.ginibre_state

        def product(da, db):
            rho_a = ginibre(da, da, rng).matrix
            rho_b = ginibre(db, db, rng).matrix
            return qw.BipartiteState(qw.DensityMatrix(np.kron(rho_a, rho_b)), da, db)

        # (kind, state); qubit-A states take the 12^4 grid, qutrit A the 50k
        # random scan.
        return [
            ("epr", qw.epr_state()),
            ("separable", qw.separable_example_state()),
            ("product", product(2, 2)),
            ("product", product(3, 2)),
            ("random", qw.BipartiteState(ginibre(4, 1, rng), 2, 2)),
            ("random", qw.BipartiteState(ginibre(6, 3, rng), 2, 3)),
            ("random", qw.BipartiteState(ginibre(6, 2, rng), 3, 2)),
        ]

    def run(self, item):
        return qw.maximize_witness(item[1], self.CONFIG)

    def check(self, item, report):
        kind, state = item
        if kind == "epr" and report.best_q < 0.999:
            return f"EPR best_q {report.best_q!r} < 0.999"
        if kind == "separable" and not 0.9 / 16 <= report.best_q <= 1 / 16 + 1e-6:
            return f"separable best_q {report.best_q!r} outside [0.9/16, 1/16 + 1e-6]"
        if kind == "product" and report.verdict != "no_violation_found":
            return f"product state verdict {report.verdict!r} (best_q {report.best_q!r})"
        e1, e2 = (qw.PovmElement(np.outer(k, k.conj())) for k in report.best_kets)
        try:
            q = qw.correlation_witness(state, e1, e2)
        except qw.ZeroProbabilityError as exc:
            return f"{kind}: correlation_witness at best_kets raised: {exc}"
        if abs(q - report.best_q) > 1e-10:
            return f"{kind}: correlation_witness {q!r} != best_q {report.best_q!r}"
        return None


class InterfereScan:
    """One interferometric_quantumness on a validated pair; half the ops sampled.

    The seed fixes PAIRS_PER_KIND pairs and sampling seeds per dimension
    and mode. Each round conjugates both states of every pair by a fresh
    Haar-random unitary: the inputs are new, while Q, the fringe
    probabilities and so each sampled estimate stay what they were (the
    binomial draws depend on the seed and the probabilities only). A run
    therefore checks 4 * PAIRS_PER_KIND independent sampled estimates
    against the 5-stderr oracle, not one per op; with a fresh draw per op,
    tens of thousands of draws a run would make a 5-sigma miss a matter of
    time (one was seen at 5.06 stderr_q in 58k draws).

    Not in BENCHMARK.json: a gated run of it would leave too little time
    for the other two workloads to run long enough to be steady on a
    shared 2-vCPU VM. The interferometer layer is gated through the
    cli-session ``interfere`` and ``witness --method interfere`` commands;
    run this workload by hand, paired against the parent commit, when a
    change targets that layer.
    """

    name = "interfere-scan"
    DIMS = (2, 3, 5, 16)
    SHOTS = 100_000
    PAIRS_PER_KIND = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng(seed)
        ginibre = qw.qcore.ginibre_state
        self.base = []
        for _ in range(self.PAIRS_PER_KIND):
            for d in self.DIMS:
                for mode in ("exact", "sampled"):
                    rank_a, rank_b = (int(r) for r in rng.integers(1, d + 1, size=2))
                    pair = (ginibre(d, rank_a, rng), ginibre(d, rank_b, rng))
                    self.base.append((pair, mode, _sub_seed(rng)))

    def make_round(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        items = []
        for (rho_a, rho_b), mode, seed in self.base:
            u = _haar_unitary(rho_a.dim, rng)
            pair = (qw.conjugate_by_unitary(rho_a, u), qw.conjugate_by_unitary(rho_b, u))
            items.append((pair, mode, seed))
        return items

    def run(self, item):
        (rho_a, rho_b), mode, seed = item
        if mode == "exact":
            return qw.interferometric_quantumness(rho_a, rho_b)
        return qw.interferometric_quantumness(
            rho_a, rho_b, mode="sampled", shots=self.SHOTS, seed=seed)

    def check(self, item, res):
        (rho_a, rho_b), mode, _ = item
        q = qw.quantumness(rho_a, rho_b).q_value
        if mode == "exact":
            if abs(res.q_value - q) > 1e-9:
                return f"exact d={rho_a.dim}: {res.q_value!r} vs quantumness {q!r}"
        elif abs(res.q_value - q) > 5.0 * res.stderr_q:
            return (f"sampled d={rho_a.dim}: {res.q_value!r} vs quantumness {q!r} "
                    f"beyond 5 stderr_q ({res.stderr_q!r})")
        return None


class CliSession:
    """One ``qwitness.cli.dispatch`` call, the whole of a CLI invocation after start-up.

    Every op parses arguments, loads and validates state files, hashes
    them and writes a report, cycling through all five subcommands. A
    fresh process per op would add 0.5 s of interpreter and import
    start-up, which spread by 24% over ten seeds on a shared 2-vCPU VM;
    that start-up is measured by ``setup_s`` (a fresh interpreter importing
    qwitness.cli) and, in traced runs, by one fresh launcher process per
    command (``cli.process.spawn_ms``, ``cli.process.import_ms``).

    Each round writes fresh state files and draws fresh seeds and angles;
    an item is ``(argv, (state_a, state_b, state_ab))``.
    """

    name = "cli-session"
    DIM = 3
    SHOTS = 100_000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make_round(self, k: int) -> list:
        rng = np.random.default_rng([self.seed, k])
        ginibre = qw.qcore.ginibre_state
        path = self._path
        for name in os.listdir(self.workdir):  # fresh files; see prepare()
            os.remove(path(name))
        states = (ginibre(self.DIM, 2, rng), ginibre(self.DIM, self.DIM, rng), ginibre(4, 2, rng))
        qcli.save_state(states[0], path("a.json"))
        qcli.save_state(states[1], path("b.json"))
        qcli.save_state(states[2], path("ab.json"), dims=(2, 2))
        s = [_sub_seed(rng) for _ in range(4)]
        phi, theta = (float(x) for x in rng.uniform(0.0, math.pi, size=2))
        ab = ["--state-a", path("a.json"), "--state-b", path("b.json")]
        commands = [
            ["random-state", "--dim", "3", "--rank", "2", "--seed", str(s[0]),
             "--out", path("rs.json")],
            ["witness", *ab, "--method", "direct", "--out", path("r_direct.json")],
            ["witness", *ab, "--method", "trace", "--out", path("r_trace.json")],
            ["witness", *ab, "--method", "interfere", "--shots", str(self.SHOTS),
             "--seed", str(s[1]), "--out", path("r_winterf.json")],
            ["interfere", "--u", "u1", *ab, "--fringes-out", path("f_u1.csv"),
             "--out", path("r_u1.json")],
            ["interfere", "--u", "u2", *ab, "--mode", "sampled", "--shots",
             str(self.SHOTS), "--seed", str(s[2]), "--fringes-out", path("f_u2.csv"),
             "--out", path("r_u2.json")],
            ["example", "epr", "--phi", repr(phi), "--out", path("r_epr.json")],
            ["example", "separable", "--phi", repr(phi), "--theta", repr(theta),
             "--out", path("r_sep.json")],
            ["discord", "--state", path("ab.json"), "--dims", "2", "2", "--grid", "4",
             "--starts", "2", "--max-evals", "200", "--seed", str(s[3]),
             "--out", path("r_discord.json")],
        ]
        return [(argv, states) for argv in commands]

    def prepare(self, items) -> None:
        """Remove the reports of the previous round, off the clock.

        Ops then create their report files instead of truncating old ones:
        on ext4, closing a truncated and rewritten file starts its
        writeback, and the op would time the host's disk, not the program.
        With another process writing to the same disk, truncating made the
        cli-session per-slot bests up to 1.8x slower; creating kept them
        within 10%.
        """
        for argv, _ in items:
            opt = self._options(argv)
            for key in ("--out", "--fringes-out"):
                if key in opt and os.path.exists(opt[key]):
                    os.remove(opt[key])

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qcli.dispatch(item[0])
        return code, out.getvalue(), err.getvalue()

    def _report(self, argv, stdout: str) -> bytes:
        """The command's report: stdout for random-state, else its --out file."""
        if argv[0] == "random-state":
            return stdout.encode()
        with open(self._options(argv)["--out"], "rb") as fh:
            return fh.read()

    def collect(self, tracer, items, outcomes) -> None:
        """Count the report bytes of a traced round."""
        for (argv, _), (code, stdout, _) in zip(items, outcomes):
            if code == 0:
                tracer.count("report_bytes", len(self._report(argv, stdout)))

    def process_probes(self, tracer) -> None:
        """Run each command of round 0 once as a fresh traced launcher process."""
        for argv, _ in self.make_round(0):
            trace_file = self._path("trace-process.json")
            env = dict(os.environ, QWB_TRACE_OUT=trace_file,
                       QWB_SPAWN_NS=str(time.perf_counter_ns()))
            proc = subprocess.run([sys.executable, LAUNCHER, *argv], env=env,
                                  capture_output=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr!r}")
            with open(trace_file, encoding="utf-8") as fh:
                dump = json.load(fh)
            os.remove(trace_file)
            for key in ("process.spawn_ns", "process.import_ns"):
                tracer.count(key, dump["counters"][key])
            tracer.count("process.count")
            tracer.child_processes.append({"argv": argv, "spans": dump["spans"]})

    def check(self, item, outcome):
        argv, states = item
        code, stdout, stderr = outcome
        if code != 0:
            return f"{argv[0]} exited {code}: {stderr.strip()}"
        results = json.loads(self._report(argv, stdout))["results"]
        expected = self._library_result(argv, states)
        wrong = {k: (results.get(k), v) for k, v in expected.items() if results.get(k) != v}
        if wrong:
            return f"{argv[0]}: report differs from library (got, want): {wrong}"
        if argv[0] == "random-state":
            with open(self._options(argv)["--out"], encoding="utf-8") as fh:
                doc = json.load(fh)
            saved = np.array(doc["re"]) + 1j * np.array(doc["im"])
            if not np.array_equal(saved, self._random_state(argv).matrix):
                return "random-state: state file differs from random_density"
        return None

    @staticmethod
    def _options(argv) -> dict[str, str]:
        return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}

    def _random_state(self, argv):
        opt = self._options(argv)
        return qw.random_density(
            qw.RandomSpec(dim=int(opt["--dim"]), rank=int(opt["--rank"]), seed=int(opt["--seed"])))

    def _library_result(self, argv, states) -> dict:
        """The fields of the command's report that the library computes."""
        opt = self._options(argv)
        a, b, state_ab = states
        cmd = argv[0]
        if cmd == "random-state":
            return {"purity": self._random_state(argv).purity()}
        if cmd == "witness":
            method = opt["--method"]
            if method == "interfere":
                res = qw.interferometric_quantumness(
                    a, b, mode="sampled", shots=int(opt["--shots"]), seed=int(opt["--seed"]))
            else:
                res = qw.quantumness(a, b, {"direct": "direct_norm",
                                            "trace": "trace_formula"}[method])
            return {"q_value": res.q_value, "v1_term": res.v1_term,
                    "v2_term": res.v2_term, "stderr_q": res.stderr_q}
        if cmd == "interfere":
            build = qw.build_u1 if opt["--u"] == "u1" else qw.build_u2
            spec = qw.InterferometerSpec(
                unitary=build(qw.RegisterLayout((self.DIM,) * 4)),
                inputs=(a, a, b, b), phases=qw.default_phase_grid(8),
                mode=opt.get("--mode", "exact"), shots_per_phase=int(opt.get("--shots", 0)),
                seed=int(opt.get("--seed", 0)),
            )
            fringes = qw.run_interferometer(spec)
            vis = qw.extract_visibility(fringes)
            return {"v": vis.v, "alpha": vis.alpha, "stderr_v": vis.stderr_v,
                    "n_phases": len(fringes)}
        if cmd == "example":
            state = qw.epr_state() if argv[1] == "epr" else qw.separable_example_state()
            angles = qw.MeasurementAngles(theta=float(opt.get("--theta", 0.0)),
                                          phi=float(opt["--phi"]))
            return {"q_value": qw.correlation_witness(state, *qw.projector_pair(angles))}
        if cmd == "discord":
            config = qw.OptimizerConfig(
                grid_points=int(opt["--grid"]), starts=int(opt["--starts"]),
                max_evals=int(opt["--max-evals"]), seed=int(opt["--seed"]))
            rep = qw.maximize_witness(qw.BipartiteState(state_ab, 2, 2), config)
            return {"best_q": rep.best_q, "best_params": list(rep.best_params),
                    "evaluations": rep.evaluations, "verdict": rep.verdict}
        raise ValueError(f"no oracle for {cmd}")


WORKLOADS = {w.name: w for w in (PairSweep, DiscordSearch, InterfereScan, CliSession)}
