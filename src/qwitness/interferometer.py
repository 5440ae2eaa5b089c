"""Controlled-permutation interference experiments on state registers.

A single ancilla qubit controls a permutation unitary U acting on a
register of input states. The simulated circuit is fixed as

    ancilla H  ->  controlled-U  ->  phase gate R_phi on ancilla  ->  H  ->
    measure ancilla,

which gives the outcome-0 probability

    p0(phi) = (1 + Re(e^{i phi} Tr(U rho))) / 2,      rho = (x) inputs.

The fringe visibility v and phase alpha defined by Tr(U rho) = v e^{i alpha}
are recovered from a phase scan by linear least squares. Gate order and the
sign of the phase gate are a convention of this module; any variant differing
by phi -> -phi or a constant offset changes alpha, never v. A phase grid
is fitted only if its phases are finite and its design ``[1, cos, sin]``
has numerical rank 3 (one rule, in the grid's fit basis); :class:`FringeData`
also rejects a NaN probability or one outside [0, 1].

Two cascades of pairwise swaps turn this interference pattern into the
trace functionals behind the quantumness measure: on the four-copy register
rho_a (x) rho_a (x) rho_b (x) rho_b,

    U1 = S01 S12 S23           gives  v1 = Tr(rho_a^2 rho_b^2),
    U2 = S12 S23 S01 S12 S01   gives  v2 = Tr((rho_a rho_b)^2),

and Q(rho_a, rho_b) = 4 (v1 - v2). This generalizes the plain SWAP test
(Hong-Ou-Mandel-style visibility Tr(rho_a rho_b), bilinear in the states)
to biquadratic functionals, still needing only two copies of each input.

The ancilla + register joint state is never materialized: Tr(U rho) for a
permutation U is evaluated by cycle decomposition, with the dense matrix
available as a test oracle via :meth:`PermutationUnitary.matrix`.

What depends only on the setting, never on the states or the fringe data,
and is costly to rebuild is built once per process and shared: the cascade
permutation per layout (:func:`build_u1`, :func:`build_u2`),
:func:`default_phase_grid` per size and, per phase grid (keyed by the
bytes of its float64 phases), one fit basis holding ``exp(1j * phases)``
and the fit's one least-squares operator, the pseudo-inverse of the
design matrix, from which a fit takes its coefficients and their
covariance; a grid that fails the rule is not cached. These are the
expressions a fit would otherwise evaluate on every call, in the same
order, so sharing them moves no bit of a fringe value or a fit. Each
cache has a fixed size and holds immutable values or read-only arrays:
at the CLI's ``--phases`` ceiling of 2^16 a fit basis is ~3.0 MB and a
phase grid ~2.0 MB (traced allocations), so the grid and basis caches
hold at most ~20 MB; the permutations are a few hundred bytes each.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .qcore import _SEED_MAX, DensityMatrix, LayoutError, RegisterLayout, _check_int
from .witness import WitnessResult

__all__ = [
    "PermutationUnitary",
    "InterferometerSpec",
    "FringeData",
    "VisibilityEstimate",
    "generalized_swap",
    "compose_permutations",
    "build_u1",
    "build_u2",
    "permutation_expectation",
    "default_phase_grid",
    "run_interferometer",
    "extract_visibility",
    "interferometric_quantumness",
]

# Tolerated rounding excursion of exact fringe probabilities outside [0, 1].
_PROB_SLACK = 1e-9
# Largest shot count per phase: numpy's binomial draw takes an int64 count.
_SHOTS_MAX = 2**63 - 1
# Entries kept by the per-setting caches. A cascade costs a few hundred
# bytes; a phase grid or fit basis grows with the grid (see the
# module docstring), so few of those are kept.
_LAYOUTS_CACHED = 32
_GRIDS_CACHED = 4


@dataclass(frozen=True)
class PermutationUnitary:
    """Permutation of the tensor-factor slots of a register.

    ``mapping[s]`` is the slot whose content ends up in slot ``s``: on a
    product basis ket, slot ``s`` of the output holds factor ``mapping[s]``
    of the input. As a dense operator this is a 0/1 permutation matrix.
    Slots are integers (Python or numpy, never bool or float).
    """

    layout: RegisterLayout
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(_check_int("mapping slot", s) for s in self.mapping)
        n = self.layout.n_factors
        if sorted(mapping) != list(range(n)):
            raise LayoutError(f"mapping {mapping} is not a permutation of 0..{n - 1}")
        dims = self.layout.dims
        for s, src in enumerate(mapping):
            if dims[src] != dims[s]:
                raise LayoutError(
                    f"cannot move factor {src} (dim {dims[src]}) into slot {s} "
                    f"(dim {dims[s]})"
                )
        object.__setattr__(self, "mapping", mapping)

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, each cycle following ``mapping``; a new list
        on every call."""
        mapping = self.mapping
        seen = [False] * len(mapping)
        out = []
        for start in range(len(mapping)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = mapping[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = mapping[nxt]
            out.append(tuple(cycle))
        return out

    def matrix(self) -> np.ndarray:
        """Dense 0/1 permutation matrix (test oracle; O(total_dim^2) memory)."""
        dims = self.layout.dims
        total = self.layout.total_dim
        p = np.zeros((total, total), dtype=np.complex128)
        for col, k in enumerate(itertools.product(*(range(d) for d in dims))):
            moved = tuple(k[src] for src in self.mapping)
            row = int(np.ravel_multi_index(moved, dims))
            p[row, col] = 1.0
        return p


def generalized_swap(i: int, j: int, layout: RegisterLayout) -> PermutationUnitary:
    """Transposition exchanging tensor factors ``i`` and ``j`` (0-based
    integers, never bool or float).

    Self-inverse; requires equal local dimensions at the two slots.
    """
    n = layout.n_factors
    i, j = _check_int("i", i), _check_int("j", j)
    if not (0 <= i < n and 0 <= j < n):
        raise LayoutError(f"swap indices ({i}, {j}) out of range for {n} factors")
    if i == j:
        raise LayoutError("swap indices must differ")
    if layout.dims[i] != layout.dims[j]:
        raise LayoutError(
            f"cannot swap factors of unequal dims {layout.dims[i]} and {layout.dims[j]}"
        )
    mapping = list(range(n))
    mapping[i], mapping[j] = j, i
    return PermutationUnitary(layout, tuple(mapping))


def compose_permutations(*perms: PermutationUnitary) -> PermutationUnitary:
    """Operator product of permutation unitaries, rightmost applied first.

    ``compose_permutations(A, B, C)`` is the operator A B C, i.e. C acts on
    the register first.
    """
    if len(perms) == 0:
        raise ValueError("need at least one permutation")
    layout = perms[0].layout
    for p in perms:
        if p.layout != layout:
            raise LayoutError("all permutations must share one layout")
    mapping = []
    for s in range(layout.n_factors):
        t = s
        for p in perms:  # left to right: each lookup peels one operator off
            t = p.mapping[t]
        mapping.append(t)
    return PermutationUnitary(layout, tuple(mapping))


@functools.lru_cache(maxsize=_LAYOUTS_CACHED)
def build_u1(layout: RegisterLayout) -> PermutationUnitary:
    """Swap cascade S01 S12 S23 on a 4-factor register: one 4-cycle.

    On rho_a (x) rho_a (x) rho_b (x) rho_b its expectation is
    Tr(rho_a^2 rho_b^2). Built once per layout; the result is immutable.
    """
    _require_four_equal(layout)
    return compose_permutations(
        generalized_swap(0, 1, layout),
        generalized_swap(1, 2, layout),
        generalized_swap(2, 3, layout),
    )


@functools.lru_cache(maxsize=_LAYOUTS_CACHED)
def build_u2(layout: RegisterLayout) -> PermutationUnitary:
    """Swap cascade S12 S23 S01 S12 S01 on a 4-factor register: one 4-cycle.

    On rho_a (x) rho_a (x) rho_b (x) rho_b its expectation is
    Tr((rho_a rho_b)^2). Built once per layout; the result is immutable.
    """
    _require_four_equal(layout)
    return compose_permutations(
        generalized_swap(1, 2, layout),
        generalized_swap(2, 3, layout),
        generalized_swap(0, 1, layout),
        generalized_swap(1, 2, layout),
        generalized_swap(0, 1, layout),
    )


def _require_four_equal(layout: RegisterLayout):
    if layout.n_factors != 4 or len(set(layout.dims)) != 1:
        raise LayoutError(f"cascades need 4 factors of equal dim, got {layout.dims}")


def permutation_expectation(perm: PermutationUnitary, states: list[DensityMatrix]) -> complex:
    """Tr(P (rho_0 (x) ... (x) rho_{n-1})) by cycle decomposition.

    Equal to the product over the cycles of ``perm`` of the trace of the
    ordered product of states along each cycle (the SWAP-trick identity
    Tr(S (rho (x) sigma)) = Tr(rho sigma), generalized). Agrees with dense
    evaluation to ~1e-12.
    """
    dims = perm.layout.dims
    if len(states) != len(dims):
        raise LayoutError(f"need {len(dims)} states, got {len(states)}")
    for k, (state, d) in enumerate(zip(states, dims)):
        if state.dim != d:
            raise LayoutError(f"state {k} has dim {state.dim}, layout expects {d}")
    result = 1.0 + 0.0j
    for cycle in perm.cycles():
        prod = states[cycle[0]].matrix
        for idx in cycle[1:]:
            prod = prod @ states[idx].matrix
        result *= complex(np.trace(prod))
    return result


@dataclass(frozen=True, eq=False)
class InterferometerSpec:
    """One interference experiment: unitary, register inputs, phase scan.

    ``mode="exact"`` records model probabilities; ``mode="sampled"`` draws
    ``shots_per_phase`` Bernoulli samples per phase setting, all phases from
    one generator seeded by ``seed``: a seed fixes the whole experiment, and
    a phase's count depends on the grid it is drawn with. ``shots_per_phase``
    (at most 2^63 - 1) and ``seed`` (in [0, 2^64 - 1]) are integers, not
    bool, stored as Python ints. The phases must pass the fit basis's grid rule, else ValueError.
    """

    unitary: PermutationUnitary
    inputs: tuple[DensityMatrix, ...]
    phases: tuple[float, ...]
    mode: str = "exact"
    shots_per_phase: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        dims = self.unitary.layout.dims
        if len(self.inputs) != len(dims):
            raise LayoutError(f"need {len(dims)} input states, got {len(self.inputs)}")
        for k, (state, d) in enumerate(zip(self.inputs, dims)):
            if state.dim != d:
                raise LayoutError(f"input {k} has dim {state.dim}, layout expects {d}")
        basis = _fit_basis(np.array(self.phases, dtype=np.float64).tobytes())
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        shots = _check_int("shots_per_phase", self.shots_per_phase, high=_SHOTS_MAX)
        object.__setattr__(self, "shots_per_phase", shots)
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0, _SEED_MAX))
        if self.mode == "sampled" and self.shots_per_phase < 1:
            raise ValueError("sampled mode needs shots_per_phase >= 1")
        if self.mode == "exact" and self.shots_per_phase != 0:
            raise ValueError(f"exact mode needs shots_per_phase 0, got {self.shots_per_phase}")
        object.__setattr__(self, "_basis", basis)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _FitBasis:
    """What one phase grid alone fixes, shared by every spec and fringe on
    it; every array is read-only. The one grid rule: finite phases and a
    design ``[1, cos, sin]`` of rank 3 by ``np.linalg.matrix_rank``'s rule
    (s[2] > s[0] K eps for K phases), else ValueError. ``solve``, the
    pseudo-inverse by ``np.linalg.pinv``'s expression on the same SVD, gives
    a fringe's coefficients, ``solve @ p0``, and their covariance,
    ``(solve * var) @ solve.T``."""

    def __init__(self, key: bytes):
        phases = np.frombuffer(key, dtype=np.float64)
        if not np.isfinite(phases).all():
            raise ValueError("phases must be finite")
        design = np.column_stack([np.ones(len(phases)), np.cos(phases), np.sin(phases)])
        u, s, vt = np.linalg.svd(design, full_matrices=False)
        if len(s) < 3 or not s[2] > s[0] * len(phases) * np.finfo(np.float64).eps:
            raise ValueError("phase grid cannot be fitted: the design [1, cos, sin] "
                             f"of its {len(phases)} phases needs numerical rank 3")
        self.phases = phases
        self.rotors = _read_only(np.exp(1j * phases))
        self.solve = _read_only(vt.T @ ((1.0 / s)[:, None] * u.T))


@functools.lru_cache(maxsize=_GRIDS_CACHED)
def _fit_basis(key: bytes) -> _FitBasis:
    """The fit basis of the phase grid whose float64 bytes are ``key``."""
    return _FitBasis(key)


@dataclass(frozen=True, eq=False)
class FringeData:
    """Interference scan: p0 per phase setting, with shot counts.

    ``shots[k] == 0`` marks an exact (noiseless) value. Shot counts follow
    the integer rule of the other counts: an array of integer dtype (not
    bool, not float), each entry in [0, 2^63 - 1].
    """

    phases: np.ndarray
    p0: np.ndarray
    shots: np.ndarray

    def __post_init__(self):
        # Copies: freezing them below leaves the caller's arrays writable.
        phases = np.array(self.phases, dtype=np.float64)
        p0 = np.array(self.p0, dtype=np.float64)
        shots = np.asarray(self.shots)
        # A Python int beyond int64 makes an object array; the bounds are
        # compared as Python ints, exactly at any dtype.
        if shots.size and (shots.dtype.kind not in "iu" or int(shots.min()) < 0
                           or int(shots.max()) > _SHOTS_MAX):
            raise ValueError(f"shots must be integers in [0, {_SHOTS_MAX}]")
        shots = shots.astype(np.int64)
        if not (phases.shape == p0.shape == shots.shape) or phases.ndim != 1:
            raise ValueError("phases, p0 and shots must be 1-d arrays of equal length")
        if not np.isfinite(phases).all():
            raise ValueError("fringe phases must be finite")
        # Written so that NaN, which compares False both ways, fails it.
        if not ((p0 >= 0.0) & (p0 <= 1.0)).all():
            raise ValueError("fringe probabilities must lie in [0, 1]")
        for name, arr in (("phases", phases), ("p0", p0), ("shots", shots)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.phases)

    def rows(self):
        """(phase_rad, p0, shots) triples in stored order."""
        return zip(self.phases.tolist(), self.p0.tolist(), self.shots.tolist())


@dataclass(frozen=True)
class VisibilityEstimate:
    """Visibility and phase of a fringe, v e^{i alpha} = Tr(U rho).

    ``stderr_v`` is finite and nonnegative: zero for exact fringes, else
    binomial variance propagated through the least-squares fit.
    """

    v: float
    alpha: float
    stderr_v: float = 0.0

    def __post_init__(self):
        if not (self.v >= 0.0 and 0.0 <= self.stderr_v < np.inf):  # NaN fails it too
            raise ValueError("visibility must be nonnegative and its stderr finite and "
                             "nonnegative")
        if not -np.pi < self.alpha <= np.pi + 1e-12:
            raise ValueError(f"alpha must lie in (-pi, pi], got {self.alpha}")
        if self.v > 1.0 + 3.0 * self.stderr_v + _PROB_SLACK:
            raise ValueError(
                f"visibility {self.v} exceeds 1 beyond 3 stderr ({self.stderr_v})"
            )


@functools.lru_cache(maxsize=_GRIDS_CACHED, typed=True)
def default_phase_grid(n_phases: int = 8) -> tuple[float, ...]:
    """Equally spaced phases in [0, 2 pi); 8 points over-determine the fit.

    ``n_phases`` is an integer >= 3, never a bool or float. Built once per
    size; the tuple is shared.
    """
    if _check_int("n_phases", n_phases) < 3:
        raise ValueError("need at least 3 phases")
    return tuple(np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False))


def run_interferometer(spec: InterferometerSpec) -> FringeData:
    """Simulate the phase scan for ``spec``.

    Exact mode stores p0(phi) = (1 + Re(e^{i phi} Tr(U rho))) / 2 directly;
    sampled mode stores the empirical frequency of outcome 0 over
    ``shots_per_phase`` draws, the counts of all phases drawn as one
    binomial over the grid from ``np.random.default_rng(seed)``.
    """
    z = permutation_expectation(spec.unitary, list(spec.inputs))
    basis = spec._basis
    phases = basis.phases
    model = 0.5 * (1.0 + (basis.rotors * z).real)
    low, high = model.min(), model.max()
    if low < -_PROB_SLACK or high > 1.0 + _PROB_SLACK:
        raise RuntimeError(
            f"internal consistency: fringe probability outside [0, 1] "
            f"(range [{low}, {high}]); |Tr(U rho)| = {abs(z)}"
        )
    model = np.clip(model, 0.0, 1.0)
    if spec.mode == "exact":
        return FringeData(phases, model, np.zeros(len(phases), dtype=np.int64))
    n = spec.shots_per_phase
    freqs = np.random.default_rng(spec.seed).binomial(n, model) / n
    return FringeData(phases, freqs, np.full(len(phases), n, dtype=np.int64))


def extract_visibility(fringes: FringeData) -> VisibilityEstimate:
    """Least-squares fit of p0(phi) = (1 + v cos(phi + alpha)) / 2.

    The model is linear in (v cos alpha, v sin alpha), so the fit is one
    product with the grid's cached pseudo-inverse of the design matrix,
    exact on noiseless fringes; a grid whose design has rank < 3 raises
    ValueError. For sampled fringes the per-point binomial variance
    p (1 - p) / shots is propagated through that operator to ``stderr_v``.
    A sampled frequency of 0 or 1 has no spread of its own, so its
    variance is taken at p clipped to [1 / (2 shots), 1 - 1 / (2 shots)];
    every other frequency k / shots already lies in that range.
    """
    solve = _fit_basis(fringes.phases.tobytes()).solve
    _, c1, c2 = solve @ fringes.p0
    r = float(np.hypot(c1, c2))
    v = 2.0 * r
    alpha = float(np.arctan2(-c2, c1))
    if alpha <= -np.pi:  # atan2 returns [-pi, pi]; fold the closed end
        alpha = np.pi
    stderr_v = 0.0
    active = fringes.shots > 0
    if active.any():
        var = np.zeros(len(fringes))
        n = fringes.shots[active]
        p = np.clip(fringes.p0[active], 0.5 / n, 1.0 - 0.5 / n)
        var[active] = p * (1.0 - p) / n
        cc = (solve[1:] * var) @ solve[1:].T
        if r > 1e-15:
            grad = 2.0 * np.array([c1, c2]) / r
            stderr_v = float(np.sqrt(max(grad @ cc @ grad, 0.0)))
        else:
            stderr_v = float(2.0 * np.sqrt(max(np.trace(cc), 0.0)))
    return VisibilityEstimate(v=v, alpha=alpha, stderr_v=stderr_v)


def _cascade_spec(
    build, rho_a: DensityMatrix, rho_b: DensityMatrix, phases, mode: str,
    shots: int, seed: int,
) -> InterferometerSpec:
    """Experiment running cascade ``build`` on rho_a (x) rho_a (x) rho_b (x) rho_b.

    ``build`` is :func:`build_u1` or :func:`build_u2`; the states must share
    one dimension.
    """
    if rho_a.dim != rho_b.dim:
        raise LayoutError(f"state dimensions differ: {rho_a.dim} vs {rho_b.dim}")
    d = rho_a.dim
    return InterferometerSpec(
        unitary=build(RegisterLayout((d, d, d, d))),
        inputs=(rho_a, rho_a, rho_b, rho_b),
        phases=phases,
        mode=mode,
        shots_per_phase=shots,
        seed=seed,
    )


def interferometric_quantumness(
    rho_a: DensityMatrix,
    rho_b: DensityMatrix,
    mode: str = "exact",
    shots: int = 0,
    seed: int = 0,
) -> WitnessResult:
    """Quantumness from two interference experiments: Q = 4 (v1 - v2).

    Runs the U1 and U2 cascades on rho_a (x) rho_a (x) rho_b (x) rho_b as
    two separate experiments over the phases of :func:`default_phase_grid`,
    extracts the visibilities v1, v2 and returns Q = 4 (v1 - v2). Exact
    mode reproduces the algebraic value to ~1e-9; sampled mode also
    propagates ``stderr_q`` = 4 sqrt(se1^2 + se2^2). The two experiments
    use generators derived independently from ``seed``. ``shots`` (at most
    2^63 - 1) and ``seed`` (in [0, 2^64 - 1]) are integers, not bool.
    """
    _check_int("shots", shots, high=_SHOTS_MAX)
    _check_int("seed", seed, 0, _SEED_MAX)
    phases = default_phase_grid()
    sub_seeds = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    estimates = []
    for build, sub_seed in zip((build_u1, build_u2), sub_seeds):
        spec = _cascade_spec(build, rho_a, rho_b, phases, mode, shots, int(sub_seed))
        estimates.append(extract_visibility(run_interferometer(spec)))
    vis1, vis2 = estimates
    stderr_q = 4.0 * float(np.hypot(vis1.stderr_v, vis2.stderr_v))
    return WitnessResult(
        q_value=4.0 * (vis1.v - vis2.v),
        v1_term=vis1.v,
        v2_term=vis2.v,
        method="interferometer",
        stderr_q=stderr_q,
    )
