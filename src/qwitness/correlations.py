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
projective pairs on A (coarse scan plus simplex refinement) and reports a
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
# Nelder-Mead stops once the simplex spans this much in parameters and value.
REFINE_TOL = 1e-10
# maximize_witness reports quantum_correlated iff best_q exceeds this.
VERDICT_THRESHOLD = 1e-8
# Largest full scan grid; a bigger one is replaced by this many random points.
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

    ``max_evals`` budgets the refinement stage (split across starts); the
    scan stage is governed by ``grid_points`` per parameter axis, falling
    back to SCAN_CAP random points drawn from ``seed`` when the full grid
    would exceed that cap. Refinement stops at REFINE_TOL, and the verdict
    threshold is the fixed VERDICT_THRESHOLD.
    """

    grid_points: int = 12
    starts: int = 5
    max_evals: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.grid_points < 2 or self.starts < 1 or self.max_evals < 1:
            raise ValueError("grid_points >= 2, starts >= 1, max_evals >= 1 required")


@dataclass(frozen=True, eq=False)
class DiscordReport:
    """Outcome of a witness maximization.

    best_params is the winning parameter vector of the search family;
    best_kets are the corresponding measurement vectors on A. trace lists
    (parameters, q) for the scan optimum and each refinement start's
    optimum, in deterministic order. best_q never exceeds the largest
    objective value actually evaluated. ``verdict`` is
    ``"quantum_correlated"`` when best_q exceeds ``threshold``
    (VERDICT_THRESHOLD), else ``"no_violation_found"``.
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
    psi2 = cos(phi) psi1 + sin(phi) psi1_perp:

    the kets of :func:`_qubit_kets` at beta1 = beta2 = 0. phi = 0 collapses
    the pair to twice the same projector.
    """
    kets = _qubit_kets(np.array([angles.theta, 0.0, angles.phi, 0.0]))
    return tuple(PovmElement(np.outer(k, k.conj())) for k in kets)


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
    terms = ((zero, plus), (one, minus), (plus, one), (minus, zero))
    total = np.zeros((4, 4), dtype=np.complex128)
    for a, b in terms:
        total += 0.25 * tensor_product(np.outer(a, a.conj()), np.outer(b, b.conj()))
    return BipartiteState(DensityMatrix(total), 2, 2)


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
class _SimplexResult:
    """Outcome of :func:`minimize`: the best vertex and its value, the
    objective calls and iterations made, and status 0 (converged) or 1
    (evaluation budget spent)."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    status: int


class _BudgetSpent(Exception):
    """A point was asked for after ``maxfev`` of them."""


def minimize(fun, x0, *, maxfev: int, xatol: float, fatol: float) -> _SimplexResult:
    """Nelder-Mead simplex minimization of ``fun`` from ``x0``, unbounded.

    Nelder & Mead, Comput. J. 7, 308 (1965), with reflection 1, expansion
    2, contraction 1/2 and shrink 1/2 from the initial simplex that moves
    each coordinate of x0 by 5 % (0.00025 where it is zero). Stops once
    ``maxfev`` calls are spent or when every vertex lies within ``xatol``
    of the best one, coordinate-wise, and within ``fatol`` in value.

    This is scipy 1.17's ``minimize(method="Nelder-Mead")`` for these
    options, with its array operations in the same order, so the results
    are bit-identical to it: the budget is checked before each call, the
    objective gets a copy of the vertex, and the vertices are re-sorted
    by the default (unstable) ``argsort``, whose order of tied values
    steers the simplex on a flat objective.

    The search itself is :func:`_simplex`, which asks for one value at a
    time; this function answers each request with ``fun``.
    :func:`maximize_witness` answers the requests of all its starts
    together instead, one batched objective call per step.
    """
    run = _simplex(x0, maxfev=maxfev, xatol=xatol, fatol=fatol)
    value = None
    while True:
        try:
            x = run.send(value)
        except StopIteration as done:
            return done.value
        value = fun(x)


def _simplex(x0, *, maxfev: int, xatol: float, fatol: float):
    """The search of :func:`minimize`, as a generator of the points to score.

    Yields a copy of each point, to be sent back its value as a float;
    returns the :class:`_SimplexResult`. The sequence of points depends
    only on x0, the options and the values sent, so any caller that sends
    the objective's value at each point reproduces ``minimize`` bit for
    bit, whatever else it evaluates in between.
    """
    x0 = np.asarray(x0, dtype=np.float64).flatten()
    n = len(x0)
    nfev = 0

    def f(x: np.ndarray):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float((yield x.copy()))

    sim = np.empty((n + 1, n), dtype=np.float64)
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf, dtype=float)
    try:
        for k in range(n + 1):
            fsim[k] = yield from f(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts twice here; a second unstable sort can reorder ties.
    for _ in range(2):
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    iterations = 1
    while nfev < maxfev:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = yield from f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = yield from f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = yield from f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = yield from f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = yield from f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    return _SimplexResult(
        x=sim[0],
        fun=float(fsim.min()),
        nfev=nfev,
        nit=iterations,
        status=1 if nfev >= maxfev else 0,
    )


def _witness_kernel(rho4: np.ndarray, kets: np.ndarray):
    """Q of the B states steered by the A ket pairs kets (..., 2, dim_a).

    rho4 is the state as (da, db, da, db). A point with an outcome
    probability at or below PROB_FLOOR scores 0 and is never divided by.
    Returns a float for one pair, else an array of shape kets.shape[:-2].
    """
    blocks = np.einsum("...a,ajck,...c->...jk", kets.conj(), rho4, kets)
    probs = blocks.trace(axis1=-2, axis2=-1).real
    if kets.ndim == 2:
        if probs[0] <= PROB_FLOOR or probs[1] <= PROB_FLOOR:
            return 0.0
        return max(float(_q_terms(blocks / probs[:, None, None])), 0.0)
    live = (probs > PROB_FLOOR).all(axis=-1)
    values = np.zeros(live.shape)
    values[live] = np.maximum(_q_terms(blocks[live] / probs[live][..., None, None]), 0.0)
    return values


# Scan points per kernel call, times dim_b^2. Each (points, 2, dim_b, dim_b)
# temporary of the batched scan then stays near 2 MB, whatever the scan size.
_SCAN_BLOCK_ENTRIES = 2**16


def _scan_values(rho4: np.ndarray, kets_of, points: np.ndarray) -> np.ndarray:
    """:func:`_witness_kernel` at every scan point, in blocks sized from dim_b."""
    step = max(1, _SCAN_BLOCK_ENTRIES // rho4.shape[1] ** 2)
    return np.concatenate([
        _witness_kernel(rho4, kets_of(points[i : i + step]))
        for i in range(0, len(points), step)
    ])


def _q_terms(states: np.ndarray) -> np.ndarray:
    """4 (v1 - v2) of state pairs (..., 2, d, d), from the products ab alone.

    v1 = sum |ab|^2 is Tr(a^2 b^2) for Hermitian pairs; the steered blocks
    are Hermitian to rounding, and this value only ranks scan points.
    """
    v1, v2 = _trace_terms(states[..., 0, :, :] @ states[..., 1, :, :])
    return 4.0 * (v1 - v2)


def _qubit_kets(x: np.ndarray) -> np.ndarray:
    """Qubit ket pairs (..., 2, 2) from rows (..., 4) of (theta, beta1, phi, beta2).

    The real family of :func:`projector_pair` extended with one azimuthal
    phase per vector, covering the full Bloch sphere for each ket. beta1 =
    beta2 = 0 reduces to the real family.
    """
    cos, sin = np.cos(x), np.sin(x)
    phase = cos + 1j * sin  # columns 1 and 3 hold e^{i beta1}, e^{i beta2}
    kets = np.empty(x.shape[:-1] + (2, 2), dtype=np.complex128)
    perp = np.empty(x.shape[:-1] + (2,), dtype=np.complex128)
    psi1 = kets[..., 0, :]
    psi1[..., 0] = cos[..., 0]
    psi1[..., 1] = phase[..., 1] * sin[..., 0]
    perp[..., 0] = sin[..., 0]
    perp[..., 1] = -phase[..., 1] * cos[..., 0]
    kets[..., 1, :] = cos[..., 2:3] * psi1 + phase[..., 3:4] * sin[..., 2:3] * perp
    return kets


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


def _scan_points(axes_span, config: OptimizerConfig) -> np.ndarray:
    """Full product grid when it fits in SCAN_CAP, else seeded random scan.

    axes_span is a (low, high, periodic) triple per parameter: periodic
    axes exclude the right endpoint from the grid.
    """
    g = config.grid_points
    n_axes = len(axes_span)
    if g**n_axes <= SCAN_CAP:
        axes = [
            np.linspace(lo, hi, g, endpoint=not periodic)
            for lo, hi, periodic in axes_span
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    rng = np.random.default_rng(config.seed)
    lows, highs, _ = np.array(axes_span).T
    return rng.uniform(lows, highs, size=(SCAN_CAP, n_axes))


def maximize_witness(
    rho: BipartiteState, config: OptimizerConfig | None = None
) -> DiscordReport:
    """Maximize the conditional-state witness over rank-1 projectors on A.

    Qubit A searches (theta, beta1, phi, beta2), the real projector family
    with an azimuthal phase per vector; larger A parametrizes each
    measurement ket by polar and phase angles (2 dim_a - 2 parameters per
    ket). The coarse scan scores its points in batched kernel calls on
    blocks of at most 2^16 / dim_b^2 points, so its temporaries do not
    grow with the scan size. Nelder-Mead (:func:`minimize`) then refines
    from the best distinct scan points, all starts in lockstep: each step
    scores the next point of every start still running in one kernel
    call (the one-point branch when a single start is left), and a start
    drops out when its search ends. The batched kernel gives every point
    the bits the one-point objective gives it, so each start's path is
    that of ``minimize`` on ``-_witness_kernel(rho4, kets_of(x))``, and
    the result is that of running the starts one after another: best_q
    is the first maximum in the order scan, then each start's points.
    Deterministic for a given config. Zero-probability parameter points
    score 0 instead of raising.
    """
    if config is None:
        config = OptimizerConfig()
    da, db = rho.dim_a, rho.dim_b
    if da < 2:
        raise LayoutError("measured subsystem must have dim_a >= 2")
    rho4 = rho.state.matrix.reshape(da, db, da, db)

    polar, azimuth = (0.0, math.pi / 2.0, False), (0.0, 2.0 * math.pi, True)
    if da == 2:
        kets_of = _qubit_kets
        axes_span = [polar, azimuth] * 2
    else:
        def kets_of(x):
            return _hyperspherical_ket(x.reshape(x.shape[:-1] + (2, -1)), da)

        axes_span = ([polar] * (da - 1) + [azimuth] * (da - 1)) * 2

    points = _scan_points(axes_span, config)
    values = _scan_values(rho4, kets_of, points)
    scan_best = int(np.argmax(values))
    best_q = float(values[scan_best])
    best_x = points[scan_best]
    evaluations = len(points)
    trace: list[tuple[tuple[float, ...], float]] = [(tuple(best_x), best_q)]

    starts: dict[tuple[float, ...], np.ndarray] = {}  # distinct points, best first
    for idx in np.argsort(values)[::-1]:
        starts.setdefault(tuple(points[idx]), points[idx])
        if len(starts) == config.starts:
            break

    maxfev = max(config.max_evals // len(starts), 8)
    runs = [
        _simplex(x0, maxfev=maxfev, xatol=REFINE_TOL, fatol=REFINE_TOL)
        for x0 in starts.values()
    ]
    pending = {i: next(run) for i, run in enumerate(runs)}  # start -> its next point
    peaks = [(-math.inf, None)] * len(runs)  # each start's first maximum
    results = [None] * len(runs)
    while pending:
        xs = list(pending.values())
        if len(xs) == 1:
            qs = [_witness_kernel(rho4, kets_of(xs[0]))]
        else:
            qs = _witness_kernel(rho4, kets_of(np.stack(xs))).tolist()
        for (i, x), q in zip(list(pending.items()), qs):
            if q > peaks[i][0]:
                peaks[i] = (q, x)
            try:
                pending[i] = runs[i].send(-q)
            except StopIteration as done:
                del pending[i]
                results[i] = done.value

    for (q, x), res in zip(peaks, results):
        if q > best_q:
            best_q, best_x = q, x
        evaluations += res.nfev
        trace.append((tuple(res.x), -res.fun))

    return DiscordReport(
        best_q=best_q,
        best_params=tuple(float(t) for t in best_x),
        best_kets=tuple(kets_of(best_x)),
        evaluations=evaluations,
        trace=tuple(trace),
    )
