"""Bipartite quantum-correlation detection via conditional-state quantumness.

A bipartite state rho_AB carries quantum correlations detectable on the B
side when two local measurement outcomes on A steer B into noncommuting
conditional states: Q(rho_B|1, rho_B|2) > 0 for some pair of measurement
elements on A. States of the classical-on-B form

    sum_i p_i rho_i (x) |b_i><b_i|      ({|b_i>} orthonormal)

never trigger the witness: every conditional B state is diagonal in the
{|b_i>} basis, so all pairs commute. Product states are the special case
with one term.

The witness value for a given element pair is computed by
:func:`correlation_witness`; :func:`maximize_witness` searches rank-1
projective pairs on A (coarse scan plus gradient refinement) and reports a
verdict. Two small exactly solvable states, :func:`epr_state` and
:func:`separable_example_state`, have closed-form witness values under the
real projector family of :func:`projector_pair`:

    EPR pair:          Q = sin^2(2 phi), maximal value 1 at phi = pi/4
    separable mixture: Q = sin^2(2 phi) / 16, maximal value 1/16

The second state is separable yet quantum correlated, which is the point
of a discord-style detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    ATOL_STRUCT,
    DensityMatrix,
    LayoutError,
    _identity,
    _psd_margins,
    as_operator,
    pure_state,
    tensor_product,
)
from .witness import _trace_terms, quantumness

__all__ = [
    "PROB_FLOOR",
    "REFINE_TOL",
    "VERDICT_THRESHOLD",
    "SCAN_CAP",
    "BipartiteState",
    "PovmElement",
    "MeasurementAngles",
    "ConditionalState",
    "CqSpec",
    "OptimizerConfig",
    "DiscordReport",
    "ZeroProbabilityError",
    "conditional_state",
    "projector_pair",
    "epr_state",
    "separable_example_state",
    "build_cq_state",
    "correlation_witness",
    "maximize_witness",
]

# Conditioning on an outcome at or below this probability is undefined.
PROB_FLOOR = 1e-12
# The refinement stops once no gradient component exceeds this.
REFINE_TOL = 1e-10
# maximize_witness reports quantum_correlated iff best_q exceeds this.
VERDICT_THRESHOLD = 1e-8
# Most ket pairs the scan scores; see _scan_points.
SCAN_CAP = 50000


class ZeroProbabilityError(ValueError):
    """Conditioning on a measurement outcome of (numerically) zero probability."""

    def __init__(self, which: str, probability: float):
        self.which = which
        self.probability = probability
        super().__init__(
            f"{which} measurement element has outcome probability "
            f"{probability:.3e} <= {PROB_FLOOR}; conditional state undefined"
        )


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Density matrix on A (x) B with the split recorded explicitly.

    Row/column index factors as (a, b) in C order, matching
    :func:`qcore.tensor_product`.
    """

    state: DensityMatrix
    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise LayoutError("subsystem dimensions must be positive")
        if self.dim_a * self.dim_b != self.state.dim:
            raise LayoutError(
                f"dim_a * dim_b = {self.dim_a * self.dim_b} does not match "
                f"total dim {self.state.dim}"
            )


@dataclass(frozen=True, eq=False)
class PovmElement:
    """Measurement element on subsystem A: Hermitian, positive semidefinite."""

    op: np.ndarray

    def __post_init__(self):
        m = as_operator(self.op)
        herm_dev, low = _psd_margins(m)
        if herm_dev > ATOL_STRUCT:
            raise ValueError("measurement element must be Hermitian within 1e-10")
        if low is not None:
            raise ValueError(
                f"measurement element must be PSD within 1e-10 (min eigenvalue {low})"
            )
        object.__setattr__(self, "op", m)

    @property
    def dim(self) -> int:
        return self.op.shape[0]


@dataclass(frozen=True)
class MeasurementAngles:
    """Angles (theta, phi) of the real-amplitude projector family.

    theta orients the first vector, phi is the angle between the two
    vectors. Periodic; no range restriction.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("angles must be finite")


@dataclass(frozen=True, eq=False)
class ConditionalState:
    """B state conditioned on an A outcome, with the outcome probability.

    ``state`` is None exactly when the probability is at or below
    PROB_FLOOR and the conditional state is undefined.
    """

    probability: float
    state: DensityMatrix | None

    def __post_init__(self):
        p = float(self.probability)
        if p < -ATOL_STRUCT or p > 1.0 + ATOL_STRUCT:
            raise ValueError(f"outcome probability {p} outside [0, 1]")
        p = min(max(p, 0.0), 1.0)
        object.__setattr__(self, "probability", p)
        if (self.state is None) != (p <= PROB_FLOOR):
            raise ValueError(
                "state must be present iff probability exceeds the floor"
            )


@dataclass(frozen=True, eq=False)
class CqSpec:
    """Ingredients of a classical-on-B state sum_i p_i rho_i (x) |b_i><b_i|.

    probs: mixture weights, nonnegative, summing to 1 within 1e-10.
    a_states: the A-side states rho_i, one per term, equal dims.
    b_basis: pairwise-orthonormal kets of B, one per term.
    """

    probs: tuple[float, ...]
    a_states: tuple[DensityMatrix, ...]
    b_basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        basis = tuple(
            np.array(b, dtype=np.complex128).reshape(-1) for b in self.b_basis
        )
        for b in basis:
            b.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "a_states", tuple(self.a_states))
        object.__setattr__(self, "b_basis", basis)
        n = len(probs)
        if n == 0 or len(self.a_states) != n or len(basis) != n:
            raise ValueError("probs, a_states and b_basis must have equal nonzero length")
        if min(probs) < -ATOL_STRUCT or abs(sum(probs) - 1.0) > ATOL_STRUCT:
            raise ValueError("probs must be nonnegative and sum to 1 within 1e-10")
        if len({s.dim for s in self.a_states}) != 1:
            raise LayoutError("a_states must share one dimension")
        dim_b = len(basis[0])
        if any(len(b) != dim_b for b in basis):
            raise LayoutError("b_basis kets must share one dimension")
        if n > dim_b:
            raise LayoutError(f"{n} orthonormal kets cannot fit in dim {dim_b}")
        gram = np.array([[bi.conj() @ bj for bj in basis] for bi in basis])
        if np.max(np.abs(gram - np.eye(n))) > ATOL_STRUCT:
            raise ValueError("b_basis must be orthonormal within 1e-10")


@dataclass(frozen=True, kw_only=True)
class OptimizerConfig:
    """Search settings for :func:`maximize_witness`, keyword-only.

    The scan scores every pair of a grid of kets on A with ``grid_points``
    values per ket axis, or of random kets drawn from ``seed`` past
    SCAN_CAP pairs. ``max_evals`` is the total budget of the refinement's
    value-and-gradient evaluations, split across the ``starts``; it stops
    at the gradient tolerance REFINE_TOL. The verdict threshold is the
    fixed VERDICT_THRESHOLD.
    """

    grid_points: int = 12
    starts: int = 10
    max_evals: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.grid_points < 2 or self.starts < 1 or self.max_evals < 1:
            raise ValueError("grid_points >= 2, starts >= 1, max_evals >= 1 required")


@dataclass(frozen=True, eq=False)
class DiscordReport:
    """Outcome of a witness maximization.

    best_kets are the winning measurement vectors on A, unit-norm, and
    best_params is (Re k1, Im k1, Re k2, Im k2) of them. trace lists
    (params, q), in that form, for the scan optimum and each refinement
    start's end point, in deterministic order. evaluations counts the ket
    pairs the scan scored and the refinement's value-and-gradient
    evaluations. best_q never exceeds the largest value evaluated.
    ``verdict`` is ``"quantum_correlated"`` when best_q exceeds
    ``threshold`` (VERDICT_THRESHOLD), else ``"no_violation_found"``.
    """

    best_q: float
    best_params: tuple[float, ...]
    best_kets: tuple[np.ndarray, np.ndarray]
    evaluations: int
    trace: tuple[tuple[tuple[float, ...], float], ...]

    threshold = VERDICT_THRESHOLD

    def __post_init__(self):
        if self.best_q < 0.0:
            raise ValueError("best_q must be nonnegative")
        for k in self.best_kets:
            k.setflags(write=False)

    @property
    def verdict(self) -> str:
        if self.best_q > self.threshold:
            return "quantum_correlated"
        return "no_violation_found"


def conditional_state(rho: BipartiteState, e: PovmElement) -> ConditionalState:
    """B state after measuring element ``e`` on A: Tr_A[(E (x) I) rho] / p.

    p = Tr[(E (x) I) rho]. At or below PROB_FLOOR the conditional state is
    undefined and the result carries ``state=None``.
    """
    if e.dim != rho.dim_a:
        raise LayoutError(f"element dim {e.dim} does not match dim_a {rho.dim_a}")
    da, db = rho.dim_a, rho.dim_b
    rho4 = rho.state.matrix.reshape(da, db, da, db)
    reduced = np.einsum("ab,bjak->jk", e.op, rho4)
    p = float(np.trace(reduced).real)
    if p <= PROB_FLOOR:
        return ConditionalState(probability=max(p, 0.0), state=None)
    return ConditionalState(probability=p, state=DensityMatrix(reduced / p))


def projector_pair(angles: MeasurementAngles) -> tuple[PovmElement, PovmElement]:
    """Rank-1 qubit projectors onto the real-amplitude vector family.

    psi1 = cos(theta)|0> + sin(theta)|1>,
    psi1_perp = sin(theta)|0> - cos(theta)|1>,
    psi2 = cos(phi) psi1 + sin(phi) psi1_perp; phi = 0 collapses the pair.
    """
    c, s = math.cos(angles.theta), math.sin(angles.theta)
    psi1 = np.array([c, s])
    psi2 = math.cos(angles.phi) * psi1 + math.sin(angles.phi) * np.array([s, -c])
    return tuple(PovmElement(np.outer(k, k)) for k in (psi1, psi2))


def epr_state() -> BipartiteState:
    """Maximally entangled two-qubit state (|00> + |11>) / sqrt(2)."""
    ket = np.zeros(4)
    ket[0] = ket[3] = 1.0 / math.sqrt(2.0)
    return BipartiteState(pure_state(ket), 2, 2)


def separable_example_state() -> BipartiteState:
    """Equal mixture of |0>|+>, |1>|->, |+>|1>, |->|0> (products of qubits).

    Separable by construction, yet the conditional-state witness reaches
    1/16 on it: a zero-entanglement state with quantum correlations.
    """
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    kets_a = np.array([zero, one, plus, minus])
    kets_b = np.array([plus, minus, one, zero])
    pa = kets_a[:, :, None] * kets_a[:, None, :]
    pb = kets_b[:, :, None] * kets_b[:, None, :]
    # The four |a><a| (x) |b><b| as broadcast outer products: the entries of
    # np.kron, summed in the same order, so the matrix keeps its bits.
    terms = 0.25 * (pa[:, :, None, :, None] * pb[:, None, :, None, :]).reshape(4, 4, 4)
    return BipartiteState(DensityMatrix(terms.sum(axis=0)), 2, 2)


def build_cq_state(spec: CqSpec) -> BipartiteState:
    """Assemble sum_i p_i rho_i (x) |b_i><b_i| from a validated spec.

    Under any measurement on A the conditional B states of the result are
    diagonal in ``b_basis``, hence pairwise commuting: the witness stays
    at zero for every element pair.
    """
    da = spec.a_states[0].dim
    db = len(spec.b_basis[0])
    total = np.zeros((da * db, da * db), dtype=np.complex128)
    for p, rho_i, ket in zip(spec.probs, spec.a_states, spec.b_basis):
        total += p * tensor_product(rho_i.matrix, np.outer(ket, ket.conj()))
    return BipartiteState(DensityMatrix(total), da, db)


def correlation_witness(
    rho: BipartiteState, e1: PovmElement, e2: PovmElement
) -> float:
    """Quantumness of the two conditional B states steered by e1 and e2.

    Symmetric in (e1, e2); zero when e1 = e2. Conditioning on an outcome
    with probability at or below PROB_FLOOR raises ZeroProbabilityError.
    """
    cond1 = conditional_state(rho, e1)
    if cond1.state is None:
        raise ZeroProbabilityError("first", cond1.probability)
    cond2 = conditional_state(rho, e2)
    if cond2.state is None:
        raise ZeroProbabilityError("second", cond2.probability)
    return quantumness(cond1.state, cond2.state).q_value


@dataclass(frozen=True, eq=False)
class _Refined:
    """One refinement start's last accepted point and value, evaluations
    made, and status 0 (converged) or 1 (evaluation budget spent)."""

    x: np.ndarray
    fun: float
    nfev: int
    status: int


def minimize(fun, x0, *, maxfev: int, gtol: float) -> _Refined:
    """Minimize ``fun`` from ``x0`` with :func:`_bfgs`; ``fun(x)`` returns
    the value and the gradient at x.

    :func:`maximize_witness` answers the requests of all its starts
    together instead, one batched objective call per step.
    """
    run = _bfgs(x0, maxfev=maxfev, gtol=gtol)
    x = next(run)
    while True:
        try:
            x = run.send(fun(x))
        except StopIteration as done:
            return done.value


def _bfgs(x0, *, maxfev: int, gtol: float):
    """Dense BFGS with Armijo backtracking, as a generator of the points to score.

    Nocedal & Wright, *Numerical Optimization*, 2nd ed. (2006): algorithm
    6.1 with the sufficient-decrease condition (3.4), c1 = 1e-4, halving
    the step from 1, and the first inverse Hessian scaled by (6.20). The
    update is skipped when s.y <= 0. Yields each point, to be sent back
    its (value, gradient); returns a :class:`_Refined`. Stops once every
    gradient component is within ``gtol``, after ``maxfev`` evaluations,
    or when the decrease a step predicts is below the value's rounding.
    The points depend only on x0, the options and what is sent back.
    """
    x = np.array(x0, dtype=np.float64)
    f, g = yield x
    nfev, h = 1, None  # h, the inverse Hessian estimate, is I until updated
    while np.abs(g).max() > gtol:
        p = -g if h is None else -(h @ g)
        slope, t = float(g @ p), 1.0
        while True:
            if -t * slope <= 2.0**-52 * (1.0 + abs(f)):  # below f's rounding
                return _Refined(x=x, fun=f, nfev=nfev, status=0)
            if nfev >= maxfev:
                return _Refined(x=x, fun=f, nfev=nfev, status=1)
            x_new = x + t * p
            f_new, g_new = yield x_new
            nfev += 1
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            if h is None:
                h = sy / float(y @ y) * np.eye(len(x))
            hy = h @ y
            h += (sy + y @ hy) / sy**2 * (s[:, None] * s)
            hys = hy[:, None] * s  # np.outer(hy, s); its transpose is np.outer(s, hy)
            h -= (hys + hys.T) / sy
        x, f, g = x_new, f_new, g_new
    return _Refined(x=x, fun=f, nfev=nfev, status=0)


def _floored(probs: np.ndarray) -> np.ndarray:
    """The outcome probabilities to divide steered blocks by: each at or
    below PROB_FLOOR is inf instead, which turns its block into the zero
    matrix, so every pair with that ket scores 0 with gradient 0."""
    return np.where(probs > PROB_FLOOR, probs, np.inf)


# Signs that turn the stacked commutators [s_j, C^dag], j the other ket of
# each pair, into G1 = [s2, C^dag] and G2 = [C^dag, s1].
_COMMUTATOR_SIGNS = np.array([1.0, -1.0])[:, None, None]


def _witness_kernel(rho4: np.ndarray, kets: np.ndarray):
    """Q of the B states steered by the A ket pairs kets (..., 2, dim_a).

    rho4 is the state as (da, db, da, db). Q is invariant to each ket's
    scale. Returns Q, of shape kets.shape[:-2], and dQ/dk = 8 W_i k_i, of
    shape kets.shape, so that the gradient in (Re k_i, Im k_i) is (Re, Im)
    of it. Here C = [s1, s2] and
    G1 = [s2, C^dag], G2 = [C^dag, s1], H_i = (G_i - Tr(G_i s_i) I) / p_i
    and W_i[a, c] = Tr(H_i rho4[a, :, c, :]). Each steered block is divided
    by its outcome probability under :func:`_floored`, the floor rule of
    :func:`_steered_states`: a point with an outcome probability at or
    below PROB_FLOOR has a zero steered state, so it scores 0 with
    gradient 0, and no point is divided by a vanishing weight.
    """
    blocks = np.einsum("...a,ajck,...c->...jk", kets.conj(), rho4, kets)
    p = _floored(blocks.trace(axis1=-2, axis2=-1).real)[..., None, None]
    s = blocks / p
    # v1 = sum |ab|^2 is Tr(a^2 b^2) for Hermitian pairs; the steered
    # blocks are Hermitian to rounding.
    ab = s[..., 0, :, :] @ s[..., 1, :, :]
    v1, v2 = _trace_terms(ab)
    c_dag = (ab.conj().swapaxes(-2, -1) - ab)[..., None, :, :]  # [s2, s1] for Hermitian s
    swapped = s[..., ::-1, :, :]
    g = swapped @ c_dag
    g -= c_dag @ swapped
    g *= _COMMUTATOR_SIGNS
    tr = np.einsum("...jk,...kj->...", g, s).real[..., None, None]
    g -= tr * _identity(rho4.shape[1])
    g /= p
    w = np.einsum("...jk,akcj->...ac", g, rho4)  # g now holds H1, H2
    return np.maximum(4.0 * (v1 - v2), 0.0), 8.0 * np.einsum("...ac,...c->...a", w, kets)


def _ket_params(kets: np.ndarray) -> np.ndarray:
    """Rows (Re k1, Im k1, Re k2, Im k2) of ket pairs (..., 2, dim_a)."""
    return np.stack((kets.real, kets.imag), axis=-2).reshape(kets.shape[:-2] + (-1,))


def _param_kets(x: np.ndarray) -> np.ndarray:
    """Ket pairs (..., 2, dim_a) of rows (Re k1, Im k1, Re k2, Im k2)."""
    parts = x.reshape(x.shape[:-1] + (2, 2, -1))
    return parts[..., 0, :] + 1j * parts[..., 1, :]


def _refine_loss(rho4: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-Q and its gradient at the points x (n, 4 dim_a) of :func:`_ket_params`."""
    parts = x.reshape(len(x), 2, 2, -1)
    kets = np.empty(parts[:, :, 0].shape, dtype=np.complex128)
    kets.real, kets.imag = parts[:, :, 0], parts[:, :, 1]
    q, dq = _witness_kernel(rho4, kets)
    grads = np.empty_like(x)
    rows = grads.reshape(parts.shape)
    np.negative(dq.real, out=rows[:, :, 0])
    np.negative(dq.imag, out=rows[:, :, 1])
    return np.negative(q, out=q), grads


# Scan pairs per tile, times dim_b^2: each (pairs, dim_b, dim_b) complex
# temporary of the pair scoring stays near 2 MB, whatever the scan size.
_SCAN_BLOCK_ENTRIES = 2**17


def _hyperspherical_ket(params: np.ndarray, dim: int) -> np.ndarray:
    """Unit kets (..., dim) from (..., 2 dim - 2) polar angles then phases.

    Component 0 is real and nonnegative for polar angles in [0, pi/2], so
    every ray is reachable up to global phase.
    """
    amps = np.empty(params.shape[:-1] + (dim,))
    running = 1.0
    for k in range(dim - 1):
        chi = params[..., k]
        amps[..., k] = running * np.cos(chi)
        running = running * np.sin(chi)
    amps[..., dim - 1] = running
    ket = amps.astype(np.complex128)
    ket[..., 1:] *= np.exp(1j * params[..., dim - 1 :])
    return ket


def _scan_points(dim_a: int, config: OptimizerConfig) -> np.ndarray:
    """Parameters (N, 2 dim_a - 2) of the scan kets for :func:`_hyperspherical_ket`.

    The grid takes grid_points polar angles, at half steps across (0, pi/2)
    so that no ray repeats, and grid_points phases per axis. Past SCAN_CAP
    pairs it takes instead the most Haar-random kets whose pairs fit, drawn
    from ``seed``: squared moduli uniform on the simplex, phases uniform.
    """
    g, n_polar = config.grid_points, dim_a - 1
    n = g ** (2 * n_polar)
    if n * (n - 1) // 2 <= SCAN_CAP:
        axes = [(np.arange(g) + 0.5) * (math.pi / 2.0 / g)] * n_polar
        axes += [np.arange(g) * (2.0 * math.pi / g)] * n_polar
        return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    n = (1 + math.isqrt(1 + 8 * SCAN_CAP)) // 2
    rng = np.random.default_rng(config.seed)
    amps = np.sqrt(rng.dirichlet(np.ones(dim_a), size=n))
    rest = np.sqrt(np.cumsum(amps[:, :0:-1] ** 2, axis=1)[:, ::-1])  # |amps[k + 1:]|
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n, n_polar))
    return np.concatenate([np.arctan2(rest, amps[:, :-1]), phases], axis=1)


def _steered_states(rho4: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """B states (n, db, db) steered by the A kets (n, da), normalised. A ket
    whose outcome probability is at most PROB_FLOOR is divided by inf
    instead, into the zero matrix, so every pair with it scores 0."""
    da, db = rho4.shape[:2]
    half = kets.conj() @ rho4.transpose(0, 2, 1, 3).reshape(da, -1)
    blocks = (kets[:, None, :] @ half.reshape(-1, da, db * db)).reshape(-1, db, db)
    return blocks / _floored(blocks.trace(axis1=-2, axis2=-1).real)[:, None, None]


def _pair_scores(states: np.ndarray) -> np.ndarray:
    """(n, n) board of Q(s_i, s_j) at [i, j] for i < j, -inf elsewhere.

    The stacked s_j times each s_i give the products s_j s_i (Q and both trace
    terms are symmetric in the pair), in tiles of _SCAN_BLOCK_ENTRIES / db^2 pairs."""
    n, db = states.shape[:2]
    stacked = states.reshape(n * db, db)
    width = max(1, _SCAN_BLOCK_ENTRIES // db**2)
    board = np.full((n, n), -np.inf)
    i = 0
    while i < n - 1:
        rows = min(n - 1 - i, max(1, width // (n - 1 - i)))
        for c in range(i + 1, n, width):
            ba = stacked[c * db : (c + width) * db] @ states[i : i + rows]
            v1, v2 = _trace_terms(ba.reshape(rows, -1, db, db))
            board[i : i + rows, c : c + v1.shape[1]] = np.maximum(4.0 * (v1 - v2), 0.0)
        i += rows
    board[np.tri(n, dtype=bool)] = -np.inf  # tiles of several rows reach below
    return board


def _disjoint_pairs(board: np.ndarray, count: int) -> list[tuple[int, int]]:
    """Up to ``count`` pairs (i, j) of the board, best first, no two sharing
    a ket; ties go to the first pair in row order. Overwrites the board."""
    pairs = []
    while len(pairs) < count:
        i, j = divmod(int(np.argmax(board)), len(board))
        if board[i, j] == -np.inf:
            break
        pairs.append((i, j))
        board[i] = board[j] = board[:, i] = board[:, j] = -np.inf
    return pairs


def maximize_witness(
    rho: BipartiteState, config: OptimizerConfig | None = None
) -> DiscordReport:
    """Maximize the conditional-state witness over rank-1 projectors on A.

    The coarse scan steers each ket of :func:`_scan_points` once and scores
    every pair from the steered stack (:func:`_pair_scores`). BFGS
    (:func:`_bfgs`) then refines from the best min(starts, max_evals) pairs
    that share no ket, on max_evals // (their number) evaluations each, on
    the unconstrained kets (Re k1, Im k1, Re k2, Im k2) with the analytic
    gradient; the report scales each ket to unit norm. The starts run in
    lockstep, one kernel call per step over those still running. The kernel
    gives every point the bits it gets alone, so the result is that of
    ``minimize`` on :func:`_refine_loss` from each start in turn: best_q is
    the first maximum in the order scan, then each start's points.
    Deterministic for a given config. Zero-probability outcomes score 0.
    """
    if config is None:
        config = OptimizerConfig()
    da, db = rho.dim_a, rho.dim_b
    if da < 2:
        raise LayoutError("measured subsystem must have dim_a >= 2")
    rho4 = rho.state.matrix.reshape(da, db, da, db)

    kets = _hyperspherical_ket(_scan_points(da, config), da)
    board = _pair_scores(_steered_states(rho4, kets))
    evaluations = len(kets) * (len(kets) - 1) // 2
    best_q = float(board.max())
    pairs = _disjoint_pairs(board, min(config.starts, config.max_evals))
    starts = _ket_params(kets[np.array(pairs)])
    best_x = starts[0]  # the scan optimum
    trace = [(best_x, best_q)]

    maxfev = config.max_evals // len(starts)
    runs = [_bfgs(x0, maxfev=maxfev, gtol=REFINE_TOL) for x0 in starts]
    pending = {i: next(run) for i, run in enumerate(runs)}  # start -> its next point
    peaks = [(-math.inf, None)] * len(runs)  # each start's first maximum
    results = [None] * len(runs)
    while pending:
        losses, grads = _refine_loss(rho4, np.array(list(pending.values())))
        for (i, x), f, g in zip(list(pending.items()), losses.tolist(), grads):
            if -f > peaks[i][0]:
                peaks[i] = (-f, x)
            try:
                pending[i] = runs[i].send((f, g))
            except StopIteration as done:
                del pending[i]
                results[i] = done.value

    for (q, x), res in zip(peaks, results):
        if q > best_q:
            best_q, best_x = q, x
        evaluations += res.nfev
        trace.append((res.x, -res.fun))

    kets = _param_kets(np.stack([best_x] + [x for x, _ in trace]))
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    params = _ket_params(kets).tolist()
    return DiscordReport(
        best_q=best_q,
        best_params=tuple(params[0]),
        best_kets=tuple(kets[0]),
        evaluations=evaluations,
        trace=tuple((tuple(x), q) for x, (_, q) in zip(params[1:], trace)),
    )
