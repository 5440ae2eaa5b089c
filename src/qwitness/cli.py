"""Command-line surface: state I/O, witness runs, interference, discord search.

Subcommands:

    witness       quantumness of two states (direct, trace-formula, or
                  simulated-interference evaluation)
    interfere     one swap-cascade interference experiment, fringes to CSV
    discord       measurement optimization over a bipartite state
    example       the two built-in analytic states at chosen angles
    random-state  reproducible random density matrix to a state file

State files are JSON documents {"dim": d, "re": [[...]], "im": [[...]]}
with the real and imaginary parts as separate real arrays; an optional
"dims": [dim_a, dim_b] marks a bipartite split. Reports are single JSON
documents (UTF-8, newline-terminated) carrying a schema version, the
subcommand, sha256 digests of the input files, the numeric results, the
seed and the wall-clock duration, in the text of json.dumps with
indent=2 (written by _indented_json); results use shortest round-trip
float formatting, so parsing them back loses nothing. Fringe CSV rows are
`phase_rad,p0,shots` with shots 0 marking exact values.

Exit codes: 0 success, 1 usage error, 2 invalid input data, 3 runtime or
I/O failure. A flag value out of its `_FLAGS` row's range (a `--dim` above
2^11, whose complex matrix is 64 MiB, a `--shots` above the int64 count
numpy's binomial draw takes, a `--seed` outside [0, 2^64 - 1]) or a
non-finite float flag is a usage error, found before any file is read;
of several, the first in usage order is reported. An `interfere --out`
whose absolute path is its `--fringes-out`'s is a usage error too, also
found before any file is read. A `random-state --rank`
outside [1, --dim] is a data error, as is a state file that is not UTF-8
JSON or whose dim or dims is not a JSON integer or whose matrix entries
are not JSON numbers, or that is nested too deeply to parse. A data error found
in a state file names that file first: a parse error, a failed state
check (`trace deviates from 1 by ...`, `operator has NaN/Inf entries`),
a `dims` split that does not fit its dim, and a `discord --dims` that
conflicts with it. An allocation the host cannot satisfy is a runtime
failure (3), reported on one stderr line. Each input file is read once:
the digest in the report is of the bytes that were parsed. Results for a
fixed seed are reproducible run to run; only the timing field of the
report varies.

Arguments are read on one of two paths, both defined by the flag table
`_FLAGS`. An argv in the canonical form (the subcommand name, `example`'s
positional next, then exact flag names each followed by its value, no
value starting with "-", no flag twice, every required flag given, every
value of the flag's type and among its choices) is read against the table
alone. Any other argv (help, `--`, `--flag=value`, abbreviations, negative
numbers, repeated or stray arguments, and every usage error) goes to the
full argparse parser built from the same rows. Both paths give the same
namespace for any argv the first accepts.

Schema "2": the `discord` results give `best_params` and each trace
entry's `params` as (Re k1, Im k1, Re k2, Im k2) of the two unit-norm
measurement kets on A; `evaluations` counts scored ket pairs plus
value-and-gradient evaluations (schema "1": angles, single values).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from typing import Any, Callable, NamedTuple

import numpy as np

from .correlations import (
    BipartiteState,
    MeasurementAngles,
    OptimizerConfig,
    correlation_witness,
    epr_state,
    maximize_witness,
    projector_pair,
    separable_example_state,
)
from .interferometer import (
    _SHOTS_MAX,
    _cascade_spec,
    build_u1,
    build_u2,
    default_phase_grid,
    extract_visibility,
    interferometric_quantumness,
    run_interferometer,
)
from .qcore import (
    _SEED_MAX,
    DensityMatrix,
    LayoutError,
    RandomSpec,
    StateValidationError,
    random_density,
)
from .witness import quantumness

__all__ = [
    "SCHEMA_VERSION",
    "load_state",
    "save_state",
    "write_fringes",
    "dispatch",
    "main",
]

SCHEMA_VERSION = "2"

_METHOD_NAMES = {"direct": "direct_norm", "trace": "trace_formula"}

_NEGATIVE_FLOAT = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _UsageError(Exception):
    """Flag combination that the grammar allows but the command rejects."""


def load_state(
    path: str, *, data: bytes | None = None
) -> DensityMatrix | BipartiteState:
    """Parse and validate a JSON state file.

    Returns a BipartiteState when the document carries "dims", else a
    plain DensityMatrix. ``data`` is the file's content when the caller
    has read it already (the CLI hashes the bytes it parses); by default
    the file is read here.
    """
    if data is None:
        data = _read(path)
    # Decoded as text-mode open() did: strict UTF-8 (a BOM stays a JSON
    # error) with universal newlines, so error positions are unchanged.
    # UnicodeDecodeError and JSONDecodeError are ValueErrors, as is the
    # error for an integer literal beyond Python's digit limit.
    try:
        doc = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:  # a RuntimeError, which dispatch reports as exit 3
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: state file must be a JSON object")
    for key in ("dim", "re", "im"):
        if key not in doc:
            raise ValueError(f"{path}: missing required key {key!r}")
    dim = _json_int(path, "dim", doc["dim"])
    if dim < 1:
        raise ValueError(f"{path}: dim must be positive, got {dim}")
    re, im = (_json_matrix(path, key, doc[key]) for key in ("re", "im"))
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"{path}: re/im must both be {dim}x{dim}, got {re.shape} and {im.shape}"
        )
    # A finite matrix whose M + M^dag overflows is rejected by the check
    # itself; numpy's overflow warnings would only repeat it on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            matrix = np.empty((dim, dim), dtype=np.complex128)
            matrix.real, matrix.imag = re, im  # keeps the sign of every zero
            state = DensityMatrix(matrix)
        except StateValidationError as exc:
            raise StateValidationError(
                exc.check, exc.magnitude, f"{path}: {exc}"
            ) from None
    if "dims" in doc:
        dims = doc["dims"]
        if not (isinstance(dims, list) and len(dims) == 2):
            raise ValueError(f"{path}: dims must be a two-element list")
        da, db = (_json_int(path, f"dims[{i}]", d) for i, d in enumerate(dims))
        return _split(path, state, da, db)
    return state


def _split(path: str, state: DensityMatrix, da: int, db: int) -> BipartiteState:
    """``state`` split as ``da x db``; a split that does not fit names ``path``."""
    try:
        return BipartiteState(state, da, db)
    except LayoutError as exc:
        raise LayoutError(f"{path}: {exc}") from None


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_input(path: str) -> tuple[DensityMatrix | BipartiteState, dict[str, str]]:
    """The state in ``path`` and its report digest, both from one read."""
    data = _read(path)
    state = load_state(path, data=data)
    return state, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _json_int(path: str, key: str, value: Any) -> int:
    # bool is an int subclass, and int() would truncate 2.7 or parse "2".
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{path}: {key} must be a JSON integer, got {json.dumps(value)}"
        )
    return value


def _json_matrix(path: str, key: str, value: Any) -> np.ndarray:
    # numpy alone would read true as 1.0, "0.5" as 0.5 and null as nan.
    for row in value if isinstance(value, list) else [value]:
        for v in row if isinstance(row, list) else [row]:
            if type(v) is not float and type(v) is not int:
                raise ValueError(
                    f"{path}: {key} entries must be JSON numbers, got {json.dumps(v)}"
                )
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{path}: {key} has an entry beyond the float range") from None
    except ValueError:  # the entries are numbers, so the nesting is ragged
        raise ValueError(f"{path}: {key} rows must have equal lengths") from None


def save_state(
    state: DensityMatrix, path: str, dims: tuple[int, int] | None = None
) -> None:
    """Write a state file; ``load_state`` reads every entry back bit for bit.

    The text is that of ``json.dump`` with ``indent=2`` and a final newline,
    written row by row so that a large state streams: every entry is a
    finite float, which json also writes with ``float.__repr__``. ``dims``
    is checked by ``BipartiteState(state, *dims)`` before the file is
    opened, so a split that ``load_state`` would refuse raises and leaves
    ``path`` untouched; the file carries the ints that check returns.
    """
    split = None if dims is None else BipartiteState(state, *dims)
    m = state.matrix
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n  "dim": {state.dim}')
        for key, part in (("re", m.real), ("im", m.imag)):
            fh.write(f',\n  "{key}": [\n')
            sep = "    [\n      "
            for row in part:
                fh.write(sep + ",\n      ".join(map(float.__repr__, row.tolist())))
                sep = "\n    ],\n    [\n      "
            fh.write("\n    ]\n  ]")
        if split is not None:
            fh.write(f',\n  "dims": [\n    {split.dim_a},\n    {split.dim_b}\n  ]')
        fh.write("\n}\n")


_json_str = json.encoder.encode_basestring_ascii  # json's own string token


def _indented_json(value: Any, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, ``pad`` being the newline and indent
    of the line ``value`` starts on.

    ``indent`` makes json use its pure-Python encoder, several times slower
    than this on a report. The layout and every token are json's: strings
    by its ASCII escaper, ints by ``int.__repr__`` (bool tested first) and
    finite floats, subclasses too, by ``float.__repr__``. Anything else
    (NaN, the infinities, tuples, dicts with other than string keys, and
    the types json refuses) is json's own text, indented to ``pad``.
    """
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = ("," + inner).join(_indented_json(v, inner) for v in value)
        return f"[{inner}{items}{pad}]"
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        if not value:
            return "{}"
        items = ("," + inner).join(
            f"{_json_str(k)}: {_indented_json(v, inner)}" for k, v in value.items()
        )
        return f"{{{inner}{items}{pad}}}"
    return json.dumps(value, indent=2).replace("\n", pad)


def write_fringes(fringes, path: str) -> None:
    """CSV dump of a phase scan, rows ordered by phase."""
    lines = ["phase_rad,p0,shots"]
    for phase, p0, shots in sorted(fringes.rows()):
        lines.append(f"{float(phase)!r},{float(p0)!r},{int(shots)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher takes "-1e-3" and "-inf" for option
        # strings, leaving "--phi -1e-3" without its value; any negative
        # float literal is a value here. This relies on -h being the only
        # single-letter flag: a flag such as -i or -n would make "-inf" or
        # "-nan" a value again, silently.
        self._negative_number_matcher = _NEGATIVE_FLOAT

    # argparse exits 2 on bad usage; this surface reserves 2 for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Flag(NamedTuple):
    """One argument of a subcommand, in the terms of argparse's add_argument,
    and its range ``low`` to ``high`` (``low`` per element for nargs); a
    flag without the leading "-" is a positional."""

    flag: str
    dest: str
    type: Callable[[str], Any] | None = None
    nargs: int | None = None
    required: bool = False
    default: Any = None
    choices: tuple[str, ...] | None = None
    metavar: str | tuple[str, ...] | None = None
    help: str | None = None
    low: int | tuple[int, ...] | None = None
    high: int | None = None


_STATE_A = _Flag("--state-a", "state_a", required=True, metavar="F")
_STATE_B = _Flag("--state-b", "state_b", required=True, metavar="F")
_SHOTS = _Flag("--shots", "shots", int, metavar="N", low=1, high=_SHOTS_MAX)
_SEED = _Flag("--seed", "seed", int, default=0, metavar="S", low=0, high=_SEED_MAX)
_OUT = _Flag("--out", "out", metavar="F")
_SEARCH_DEFAULTS = OptimizerConfig()

# The grammar: each subcommand's arguments, in usage order. Its argparse
# parser is built from these rows, and _parse_canonical reads well-formed
# argv against the same rows.
_FLAGS: dict[str, tuple[_Flag, ...]] = {
    "witness": (
        _STATE_A,
        _STATE_B,
        _Flag("--method", "method", default="direct",
              choices=("direct", "trace", "interfere")),
        _SHOTS,
        _SEED,
        _OUT,
    ),
    "interfere": (
        _Flag("--u", "u", required=True, choices=("u1", "u2")),
        _STATE_A,
        _STATE_B,
        _Flag("--phases", "phases", int, default=8, metavar="K",
              help="phases in the fringe scan, 3 to 2^16", low=3, high=2**16),
        _Flag("--mode", "mode", default="exact", choices=("exact", "sampled")),
        _SHOTS,
        _SEED,
        _Flag("--fringes-out", "fringes_out", required=True, metavar="F"),
        _OUT,
    ),
    "discord": (
        _Flag("--state", "state", required=True, metavar="F"),
        _Flag("--dims", "dims", int, nargs=2, required=True, metavar=("DA", "DB"),
              low=(2, 1)),
        _Flag("--grid", "grid", int, default=_SEARCH_DEFAULTS.grid_points, metavar="G",
              help="scan points per ket axis; every pair of scan kets is scored",
              low=2),
        _Flag("--starts", "starts", int, default=_SEARCH_DEFAULTS.starts, metavar="R", low=1),
        _Flag("--max-evals", "max_evals", int, default=_SEARCH_DEFAULTS.max_evals,
              metavar="N", help="total refinement evaluations, split across the starts",
              low=1),
        _SEED,
        _OUT,
    ),
    "example": (
        _Flag("which", "which", choices=("epr", "separable")),
        _Flag("--phi", "phi", float, required=True, metavar="X"),
        _Flag("--theta", "theta", float, default=0.0, metavar="Y"),
        _OUT,
    ),
    "random-state": (
        _Flag("--dim", "dim", int, required=True, metavar="D",
              help="state dimension, 1 to 2^11", low=1, high=2**11),
        _Flag("--rank", "rank", int, required=True, metavar="R"),
        _SEED._replace(required=True, default=None),
        _OUT._replace(required=True),
    ),
}


def _add_args(p: argparse.ArgumentParser, rows: tuple[_Flag, ...]) -> None:
    for row in rows:
        kwargs = row._asdict()
        del kwargs["flag"], kwargs["low"], kwargs["high"]
        if not row.flag.startswith("-"):  # argparse takes neither for a positional
            del kwargs["dest"], kwargs["required"]
        p.add_argument(row.flag, **kwargs)


def _value(row: _Flag, raw: list[str]) -> Any:
    """What argparse stores for ``row`` given the value tokens ``raw``, or
    None unless they are its canonical form: the right number of tokens,
    none starting with "-", each converting by the row's type into one of
    its choices."""
    if len(raw) != (row.nargs or 1) or any(v.startswith("-") for v in raw):
        return None
    try:
        values = [row.type(v) for v in raw] if row.type is not None else raw
    except (TypeError, ValueError):
        return None
    if row.choices is not None and any(v not in row.choices for v in values):
        return None
    return values if row.nargs else values[0]


def _parse_canonical(name: str, tokens: list[str]) -> argparse.Namespace | None:
    """``name``'s arguments ``tokens`` read against its table rows, as
    argparse would read them; None unless every token is in the canonical
    form (the positional first, then exact flag names each followed by its
    value, no flag twice, every required flag given)."""
    rows = _FLAGS[name]
    values: dict[str, Any] = {}
    i = 0
    if not rows[0].flag.startswith("-"):
        values[rows[0].dest] = _value(rows[0], tokens[:1])
        if values[rows[0].dest] is None:
            return None
        i = 1
    by_flag = {row.flag: row for row in rows[i:]}
    while i < len(tokens):
        row = by_flag.get(tokens[i])
        if row is None or row.dest in values:
            return None
        n = row.nargs or 1
        values[row.dest] = _value(row, tokens[i + 1:i + 1 + n])
        if values[row.dest] is None:
            return None
        i += 1 + n
    for row in rows:
        if row.dest not in values:
            if row.required:
                return None
            values[row.dest] = row.default
    return argparse.Namespace(**values, command=name)


def build_parser() -> argparse.ArgumentParser:
    """The ``qwitness`` parser, with all five subcommands built from the
    flag table; dispatch parses with it every argv the table path does not
    read."""
    parser = _Parser(
        prog="qwitness",
        description="Commutator-based quantumness and quantum-correlation detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _SUBCOMMANDS.items():
        _add_args(sub.add_parser(name, help=help_text), _FLAGS[name])
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as ``build_parser().parse_args`` does, with the same
    help, errors and exit codes (raised as SystemExit): a named
    subcommand's canonical argv is read against its table rows alone
    (_parse_canonical), and any other argv goes to the full parser."""
    if argv and argv[0] in _SUBCOMMANDS:
        args = _parse_canonical(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def _load_single(path: str) -> tuple[DensityMatrix, dict[str, str]]:
    state, digest = _load_input(path)
    if isinstance(state, BipartiteState):
        raise ValueError(f"{path}: expected a single-system state, file carries dims")
    return state, digest


def _check_flag_ranges(args) -> None:
    """Raise _UsageError for the first flag, in usage order, out of range."""
    for row in _FLAGS[args.command]:
        if row.low is None and row.high is None and row.type is not float:
            continue
        value = getattr(args, row.dest)
        if value is None:
            continue
        if row.type is float:
            if not math.isfinite(value):
                raise _UsageError(f"{row.flag} must be finite, got {value}")
        elif row.nargs:
            if any(v < low for v, low in zip(value, row.low)):
                low, got = (" ".join(map(str, v)) for v in (row.low, value))
                raise _UsageError(f"{row.flag} must be >= {low}, got {got}")
        elif row.low is not None and value < row.low:
            raise _UsageError(f"{row.flag} must be >= {row.low}, got {value}")
        elif row.high is not None and value > row.high:
            raise _UsageError(f"{row.flag} must be <= {row.high}, got {value}")


def _cmd_witness(args) -> tuple[dict, dict, int | None]:
    if args.shots is not None and args.method != "interfere":
        raise _UsageError("--shots applies only to --method interfere")
    state_a, digest_a = _load_single(args.state_a)
    state_b, digest_b = _load_single(args.state_b)
    inputs = {"state_a": digest_a, "state_b": digest_b}
    if args.method in _METHOD_NAMES:
        res = quantumness(state_a, state_b, method=_METHOD_NAMES[args.method])
        seed = None
    else:
        mode = "exact" if args.shots is None else "sampled"
        res = interferometric_quantumness(
            state_a, state_b, mode=mode, shots=args.shots or 0, seed=args.seed
        )
        seed = args.seed if mode == "sampled" else None
    results = {
        "q_value": float(res.q_value),
        "v1_term": float(res.v1_term),
        "v2_term": float(res.v2_term),
        "method": res.method,
        "stderr_q": float(res.stderr_q),
    }
    return results, inputs, seed


def _cmd_interfere(args) -> tuple[dict, dict, int | None]:
    if args.mode == "sampled" and args.shots is None:
        raise _UsageError("--mode sampled requires --shots N with N >= 1")
    if args.mode == "exact" and args.shots is not None:
        raise _UsageError("--shots applies only to --mode sampled")
    # A report written over its own fringe CSV would leave a fringes_path
    # naming no fringes. Symlinked or hard-linked aliases are not compared.
    out = args.out
    if out is not None and os.path.abspath(out) == os.path.abspath(args.fringes_out):
        raise _UsageError("--fringes-out and --out must name different files")
    state_a, digest_a = _load_single(args.state_a)
    state_b, digest_b = _load_single(args.state_b)
    spec = _cascade_spec(
        build_u1 if args.u == "u1" else build_u2, state_a, state_b,
        default_phase_grid(args.phases), args.mode, args.shots or 0, args.seed,
    )
    inputs = {"state_a": digest_a, "state_b": digest_b}
    fringes = run_interferometer(spec)
    write_fringes(fringes, args.fringes_out)
    vis = extract_visibility(fringes)
    results = {
        "unitary": args.u,
        "mode": args.mode,
        "n_phases": len(fringes),
        "v": float(vis.v),
        "alpha": float(vis.alpha),
        "stderr_v": float(vis.stderr_v),
        "fringes_path": args.fringes_out,
    }
    seed = args.seed if args.mode == "sampled" else None
    return results, inputs, seed


def _cmd_discord(args) -> tuple[dict, dict, int | None]:
    loaded, digest = _load_input(args.state)
    da, db = args.dims
    if isinstance(loaded, BipartiteState):
        if (loaded.dim_a, loaded.dim_b) != (da, db):
            raise ValueError(
                f"{args.state}: --dims {da} {db} conflicts with file dims "
                f"{loaded.dim_a} {loaded.dim_b}"
            )
        state = loaded
    else:
        state = _split(args.state, loaded, da, db)
    inputs = {"state": digest}
    config = OptimizerConfig(
        grid_points=args.grid,
        starts=args.starts,
        max_evals=args.max_evals,
        seed=args.seed,
    )
    report = maximize_witness(state, config)
    results = {
        "best_q": float(report.best_q),
        "best_params": [float(t) for t in report.best_params],
        "best_kets": [
            {"re": k.real.tolist(), "im": k.imag.tolist()} for k in report.best_kets
        ],
        "evaluations": report.evaluations,
        "verdict": report.verdict,
        "threshold": float(report.threshold),
        "trace": [
            {"params": [float(t) for t in params], "q": float(q)}
            for params, q in report.trace
        ],
    }
    return results, inputs, args.seed


def _cmd_example(args) -> tuple[dict, dict, int | None]:
    state = epr_state() if args.which == "epr" else separable_example_state()
    e1, e2 = projector_pair(MeasurementAngles(theta=args.theta, phi=args.phi))
    q = correlation_witness(state, e1, e2)
    results = {
        "state": args.which,
        "theta": float(args.theta),
        "phi": float(args.phi),
        "q_value": float(q),
    }
    return results, {}, None


def _cmd_random_state(args) -> tuple[dict, dict, int | None]:
    spec = RandomSpec(dim=args.dim, rank=args.rank, seed=args.seed)
    state = random_density(spec)
    save_state(state, args.out)
    results = {
        "dim": args.dim,
        "rank": args.rank,
        "path": args.out,
        "purity": float(state.purity()),
    }
    return results, {}, args.seed


# name -> (help text, handler), in usage order.
_SUBCOMMANDS = {
    "witness": ("quantumness of two states", _cmd_witness),
    "interfere": ("one swap-cascade interference scan", _cmd_interfere),
    "discord": ("optimize the correlation witness", _cmd_discord),
    "example": ("built-in analytic states", _cmd_example),
    "random-state": ("reproducible random density matrix", _cmd_random_state),
}


def dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    start = time.perf_counter()
    try:
        _check_flag_ranges(args)
        results, inputs, seed = _SUBCOMMANDS[args.command][1](args)
    except _UsageError as exc:
        print(f"qwitness {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(f"qwitness {args.command}: invalid input: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"qwitness {args.command}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy names the allocation; the interpreter's own has no message.
        print(f"qwitness {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "seed": seed,
        "timing_ms": int((time.perf_counter() - start) * 1000.0),
    }
    text = _indented_json(report) + "\n"
    # random-state's --out is the state file; its report goes to stdout.
    out = None if args.command == "random-state" else getattr(args, "out", None)
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"qwitness {args.command}: cannot write report: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
