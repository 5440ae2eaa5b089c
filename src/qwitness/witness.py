"""Mutual incompatibility of quantum states and commutator witnesses.

The central quantity is the quantumness measure

    Q(rho_a, rho_b) = 2 ||[rho_a, rho_b]||^2
                    = 4 (Tr(rho_a^2 rho_b^2) - Tr((rho_a rho_b)^2)),

twice the squared Hilbert-Schmidt norm of the commutator. Q vanishes if
and only if the two states commute, and 0 <= Q <= 1 (the upper bound is
attained by pure states with overlap 1/2). Since [rho_a, rho_b] is
anti-Hermitian for Hermitian inputs, Tr([rho_a, rho_b]^2) = -||.||^2 <= 0;
the difference of traces above is ordered so that Q is nonnegative, and it
equals 4 (v1 - v2) in the interferometric notation v1 = Tr(rho_a^2 rho_b^2),
v2 = Tr((rho_a rho_b)^2).

Every term needs only the two products P = rho_a rho_b and P' = rho_b rho_a:

    v1 = sum_ij P_ij P'_ji,   v2 = sum_ij P_ij P_ji,   [rho_a, rho_b] = P - P',

which hold for any square matrices by cyclicity of the trace. For exactly
Hermitian inputs P' = P^dag, so v1 = ||P||_F^2 and one product suffices;
the batched discord kernel uses that form for its search objective. A
validated state may deviate from Hermiticity by up to ATOL_STRUCT, and
||P||_F^2 then moves by first order in that deviation (4 (v1 - v2) can
miss the direct norm by more than 1e-10), whereas Re sum P_ij P'_ji keeps
the first-order error cancelled, so ``quantumness`` uses P'.

Useful closed forms (used as oracles in the test suite):

- pure states with fidelity t = |<a|b>|^2:  Q = 4 t (1 - t)
- qubits with Bloch vectors a, b:           Q = |a x b|^2

All functions are pure and safe to evaluate in parallel over batches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .qcore import (
    ATOL_STRUCT,
    DensityMatrix,
    LayoutError,
    _herm_dev,
    _matrix_of,
    commutator_hs,
    dagger,
)

__all__ = [
    "WitnessResult",
    "ProbePair",
    "quantumness",
    "witness_observables",
    "classicality_probe",
    "gell_mann_basis",
    "default_probe_pairs",
]

METHODS = ("direct_norm", "trace_formula", "interferometer")


@dataclass(frozen=True)
class WitnessResult:
    """Quantumness value together with the two trace terms behind it.

    ``v1_term = Tr(rho_a^2 rho_b^2)`` and ``v2_term = Tr((rho_a rho_b)^2)``
    with ``q_value = 4 (v1_term - v2_term)`` for the trace route. ``method``
    records how ``q_value`` was obtained; ``stderr_q`` is nonzero only for
    shot-sampled interferometric estimates, whose q_value and trace terms
    are statistical estimators and may fluctuate below zero.
    """

    q_value: float
    v1_term: float
    v2_term: float
    method: str
    stderr_q: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.stderr_q == 0.0:
            # Exact results must satisfy the algebraic constraints; sampled
            # estimates are exempt (noise can flip tiny differences).
            if self.q_value < -ATOL_STRUCT:
                raise ValueError(f"exact q_value must be nonnegative, got {self.q_value}")
            if self.v2_term > self.v1_term + ATOL_STRUCT:
                raise ValueError(
                    f"exact trace terms must satisfy v2 <= v1, got "
                    f"v1={self.v1_term}, v2={self.v2_term}"
                )
            if abs(self.q_value - 4.0 * (self.v1_term - self.v2_term)) > ATOL_STRUCT:
                raise ValueError("q_value inconsistent with 4 (v1 - v2)")


@dataclass(frozen=True, eq=False)
class ProbePair:
    """A pair of Hermitian observables used to probe Tr(rho [A, B])."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _matrix_of(self.a)
        b = _matrix_of(self.b)
        for name, m in (("a", a), ("b", b)):
            dev = _herm_dev(m, dagger(m))
            if dev > ATOL_STRUCT:
                raise ValueError(f"probe {name} is not Hermitian: max dev {dev:.3e}")
        if a.shape != b.shape:
            raise LayoutError(f"probe dimensions differ: {a.shape} vs {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _trace_terms(ab: np.ndarray,
                 ba: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(v1, v2) = (Tr(a^2 b^2), Tr((ab)^2)) of products of shape (..., d, d).

    v2 = Re sum_ij ab_ij ab_ji, reduced over the last two axes. Given
    ba = b a, v1 = Re sum_ij ab_ij ba_ji, exact for any a and b. Without
    it, v1 = sum |ab|^2, which equals Tr(a^2 b^2) only when (ab)^dag = ba,
    i.e. for exactly Hermitian a and b: pass ba for states that are
    Hermitian only to within ATOL_STRUCT.
    """
    if ba is None:
        v1 = (np.abs(ab) ** 2).sum(axis=(-2, -1))
    else:
        v1 = np.einsum("...ij,...ji->...", ab, ba).real
    v2 = np.einsum("...ij,...ji->...", ab, ab).real
    return v1, v2


def quantumness(rho_a: DensityMatrix, rho_b: DensityMatrix,
                method: str = "direct_norm") -> WitnessResult:
    """Mutual incompatibility Q of two states.

    ``method="direct_norm"`` evaluates 2 ||ab - ba||^2 from the commutator;
    ``method="trace_formula"`` evaluates 4 (Tr(a^2 b^2) - Tr((a b)^2)).
    Both share the products ab and ba with the trace terms. The two agree
    to ~1e-10 and Q = 0 iff the states commute.
    """
    ma, mb = rho_a.matrix, rho_b.matrix
    if ma.shape != mb.shape:
        raise LayoutError(f"state dimensions differ: {ma.shape} vs {mb.shape}")
    if method not in ("direct_norm", "trace_formula"):
        raise ValueError(f"unknown method {method!r}; use 'direct_norm' or 'trace_formula'")
    ab, ba = ma @ mb, mb @ ma
    v1, v2 = (float(t) for t in _trace_terms(ab, ba))
    if method == "direct_norm":
        q = 2.0 * float((np.abs(ab - ba) ** 2).sum())
    else:
        q = 4.0 * (v1 - v2)
    return WitnessResult(q_value=q, v1_term=v1, v2_term=v2, method=method)


def witness_observables(rho_a: DensityMatrix, rho_b: DensityMatrix) -> tuple[complex, complex]:
    """Evaluate the canonical commutator witnesses on the two states.

    With the Hermitian observable A = i [rho_a, rho_b], returns

        value_a = Tr(rho_a [A, rho_b])   ( = +i Q/2 )
        value_b = Tr(rho_b [A, rho_a])   ( = -i Q/2 )

    Both are purely imaginary with magnitude Q/2; a nonzero value certifies
    that the state it is traced against is quantum. The signs shown follow
    from Q = 2 ||[rho_a, rho_b]||^2; only the magnitude and the pure
    imaginarity are contractual.
    """
    ma, mb = rho_a.matrix, rho_b.matrix
    if ma.shape != mb.shape:
        raise LayoutError(f"state dimensions differ: {ma.shape} vs {mb.shape}")
    comm, _ = commutator_hs(ma, mb)
    a_obs = 1j * comm
    value_a = complex(np.trace(ma @ (a_obs @ mb - mb @ a_obs)))
    value_b = complex(np.trace(mb @ (a_obs @ ma - ma @ a_obs)))
    return value_a, value_b


def classicality_probe(rho: DensityMatrix, probes: list[ProbePair]) -> tuple[float, int]:
    """Largest commutator expectation |Tr(rho [A, B])| over the probe list.

    Returns ``(max_violation, argmax_index)``. A nonzero violation witnesses
    quantumness of ``rho``; zero only means these probes detected nothing,
    never that the state is classical.
    """
    if len(probes) == 0:
        raise ValueError("probe list is empty")
    m = rho.matrix
    best = -1.0
    best_idx = 0
    for idx, pair in enumerate(probes):
        if pair.a.shape[0] != m.shape[0]:
            raise LayoutError(
                f"probe {idx} dimension {pair.a.shape[0]} does not match state {m.shape[0]}"
            )
        comm = pair.a @ pair.b - pair.b @ pair.a
        violation = abs(complex(np.trace(m @ comm)))
        if violation > best:
            best = violation
            best_idx = idx
    return best, best_idx


def gell_mann_basis(dim: int) -> list[np.ndarray]:
    """Generalized Gell-Mann matrices: dim^2 - 1 traceless Hermitian matrices.

    Standard construction (symmetric, antisymmetric and diagonal families),
    normalized so Tr(g_i g_j) = 2 delta_ij. For dim = 2 these are the Pauli
    matrices.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    basis = []
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0
            basis.append(sym)
            anti = np.zeros((dim, dim), dtype=np.complex128)
            anti[j, k] = -1j
            anti[k, j] = 1j
            basis.append(anti)
    for level in range(1, dim):
        diag = np.zeros((dim, dim), dtype=np.complex128)
        diag[:level, :level] = np.eye(level)
        diag[level, level] = -level
        diag *= np.sqrt(2.0 / (level * (level + 1)))
        basis.append(diag)
    return basis


def default_probe_pairs(dim: int) -> list[ProbePair]:
    """All unordered pairs of generalized Gell-Mann observables.

    Intended as the default finite probe set for small registers (the pair
    count grows as dim^4 / 2; dims up to 4 stay near a hundred pairs).
    """
    basis = gell_mann_basis(dim)
    return [ProbePair(a, b) for a, b in itertools.combinations(basis, 2)]
