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
by phi -> -phi or a constant offset changes alpha, never v. Phases must be
finite: :class:`InterferometerSpec` and :class:`FringeData` reject a NaN or
infinite phase, and :class:`FringeData` a NaN probability or one outside
[0, 1], so no such value reaches the fit.

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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, LayoutError, RegisterLayout
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


@dataclass(frozen=True)
class PermutationUnitary:
    """Permutation of the tensor-factor slots of a register.

    ``mapping[s]`` is the slot whose content ends up in slot ``s``: on a
    product basis ket, slot ``s`` of the output holds factor ``mapping[s]``
    of the input. As a dense operator this is a 0/1 permutation matrix.
    """

    layout: RegisterLayout
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(s) for s in self.mapping)
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
        """Cycle decomposition, each cycle following ``mapping``."""
        seen = [False] * len(self.mapping)
        out = []
        for start in range(len(self.mapping)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = self.mapping[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = self.mapping[nxt]
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
    """Transposition exchanging tensor factors ``i`` and ``j`` (0-based).

    Self-inverse; requires equal local dimensions at the two slots.
    """
    n = layout.n_factors
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


def build_u1(layout: RegisterLayout) -> PermutationUnitary:
    """Swap cascade S01 S12 S23 on a 4-factor register: one 4-cycle.

    On rho_a (x) rho_a (x) rho_b (x) rho_b its expectation is
    Tr(rho_a^2 rho_b^2).
    """
    _require_four_equal(layout)
    return compose_permutations(
        generalized_swap(0, 1, layout),
        generalized_swap(1, 2, layout),
        generalized_swap(2, 3, layout),
    )


def build_u2(layout: RegisterLayout) -> PermutationUnitary:
    """Swap cascade S12 S23 S01 S12 S01 on a 4-factor register: one 4-cycle.

    On rho_a (x) rho_a (x) rho_b (x) rho_b its expectation is
    Tr((rho_a rho_b)^2).
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
    ``shots_per_phase`` Bernoulli samples per phase setting from a generator
    derived from ``(seed, phase index)``, so per-phase results are
    reproducible regardless of evaluation order.
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
        if len(self.phases) == 0:
            raise ValueError("phase list is empty")
        if not all(math.isfinite(p) for p in self.phases):
            raise ValueError("phases must be finite")
        if _distinct_circle_points(self.phases) < 3:
            raise ValueError("need at least 3 distinct phases (mod 2 pi) for the fit")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        if self.mode == "sampled" and self.shots_per_phase < 1:
            raise ValueError("sampled mode needs shots_per_phase >= 1")


def _distinct_circle_points(phases) -> int:
    return len(np.unique(np.round(np.mod(phases, 2.0 * np.pi), 12)))


@dataclass(frozen=True, eq=False)
class FringeData:
    """Interference scan: p0 per phase setting, with shot counts.

    ``shots[k] == 0`` marks an exact (noiseless) value.
    """

    phases: np.ndarray
    p0: np.ndarray
    shots: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.float64)
        p0 = np.asarray(self.p0, dtype=np.float64)
        shots = np.asarray(self.shots, dtype=np.int64)
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

    ``stderr_v`` is zero for exact fringes and comes from binomial variance
    propagation through the least-squares fit otherwise.
    """

    v: float
    alpha: float
    stderr_v: float = 0.0

    def __post_init__(self):
        if self.v < 0.0 or self.stderr_v < 0.0:
            raise ValueError("visibility and its stderr must be nonnegative")
        if not -np.pi < self.alpha <= np.pi + 1e-12:
            raise ValueError(f"alpha must lie in (-pi, pi], got {self.alpha}")
        if self.v > 1.0 + 3.0 * self.stderr_v + _PROB_SLACK:
            raise ValueError(
                f"visibility {self.v} exceeds 1 beyond 3 stderr ({self.stderr_v})"
            )


def default_phase_grid(n_phases: int = 8) -> tuple[float, ...]:
    """Equally spaced phases in [0, 2 pi); 8 points over-determine the fit."""
    if n_phases < 3:
        raise ValueError("need at least 3 phases")
    return tuple(np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False))


def run_interferometer(spec: InterferometerSpec) -> FringeData:
    """Simulate the phase scan for ``spec``.

    Exact mode stores p0(phi) = (1 + Re(e^{i phi} Tr(U rho))) / 2 directly;
    sampled mode stores the empirical frequency of outcome 0 over
    ``shots_per_phase`` draws.
    """
    z = permutation_expectation(spec.unitary, list(spec.inputs))
    phases = np.asarray(spec.phases, dtype=np.float64)
    model = 0.5 * (1.0 + (np.exp(1j * phases) * z).real)
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
    freqs = np.empty(len(phases), dtype=np.float64)
    for k, p in enumerate(model):
        rng = np.random.default_rng([int(spec.seed), k])
        freqs[k] = rng.binomial(n, p) / n
    return FringeData(phases, freqs, np.full(len(phases), n, dtype=np.int64))


def extract_visibility(fringes: FringeData) -> VisibilityEstimate:
    """Least-squares fit of p0(phi) = (1 + v cos(phi + alpha)) / 2.

    The model is linear in (v cos alpha, v sin alpha), so the fit is a
    closed-form ordinary least squares solve: exact on noiseless fringes.
    For sampled fringes the per-point binomial variance p (1 - p) / shots
    is propagated through the linear solve to ``stderr_v``. A sampled
    frequency of 0 or 1 has no spread of its own, so its variance is taken
    at p clipped to [1 / (2 shots), 1 - 1 / (2 shots)]; every other
    frequency k / shots already lies in that range.
    """
    if _distinct_circle_points(fringes.phases) < 3:
        raise ValueError("degenerate phase grid: need >= 3 distinct phases (mod 2 pi)")
    design = np.column_stack(
        [np.ones(len(fringes)), np.cos(fringes.phases), np.sin(fringes.phases)]
    )
    coef, *_ = np.linalg.lstsq(design, fringes.p0, rcond=None)
    _, c1, c2 = coef
    r = float(np.hypot(c1, c2))
    v = 2.0 * r
    alpha = float(np.arctan2(-c2, c1))
    if alpha <= -np.pi:  # atan2 returns [-pi, pi]; fold the closed end
        alpha = np.pi
    stderr_v = 0.0
    if np.any(fringes.shots > 0):
        var = np.zeros(len(fringes))
        active = fringes.shots > 0
        n = fringes.shots[active]
        p = np.clip(fringes.p0[active], 0.5 / n, 1.0 - 0.5 / n)
        var[active] = p * (1.0 - p) / n
        gram_inv = np.linalg.inv(design.T @ design)
        cov = gram_inv @ design.T @ (var[:, None] * design) @ gram_inv
        cc = cov[1:, 1:]
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
    use generators derived independently from ``seed``.
    """
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
