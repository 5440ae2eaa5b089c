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
the batched discord kernels use that form (``correlations._trace_terms``)
for their search objective. A validated state may deviate from
Hermiticity by up to ATOL_STRUCT, and ||P||_F^2 then moves by first order
in that deviation (4 (v1 - v2) can miss the direct norm by more than
1e-10), whereas Re sum P_ij P'_ji keeps the first-order error
cancelled, so ``quantumness`` uses P'. It reduces each sum as one BLAS
dot product of the raveled P against the raveled transpose of P' or P,
and the direct norm as the dot of the raveled commutator with its
conjugate.

Useful closed forms (used as oracles in the test suite):

- pure states with fidelity t = |<a|b>|^2:  Q = 4 t (1 - t)
- qubits with Bloch vectors a, b:           Q = |a x b|^2

All functions are pure and safe to evaluate in parallel over batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import ATOL_STRUCT, DensityMatrix, LayoutError, commutator_hs

__all__ = ["WitnessResult", "quantumness", "witness_observables"]

METHODS = ("direct_norm", "trace_formula", "interferometer")


@dataclass(frozen=True)
class WitnessResult:
    """Quantumness value together with the two trace terms behind it.

    ``v1_term = Tr(rho_a^2 rho_b^2)`` and ``v2_term = Tr((rho_a rho_b)^2)``,
    and every record has ``q_value = 4 (v1_term - v2_term)`` within
    ATOL_STRUCT, so none holds a NaN or infinite value. ``method``
    records how ``q_value`` was obtained; ``stderr_q`` is finite and
    nonnegative, and nonzero only for shot-sampled interferometric
    estimates, whose q_value and trace terms are statistical estimators
    and may fluctuate below zero.
    """

    q_value: float
    v1_term: float
    v2_term: float
    method: str
    stderr_q: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        # Plain float comparisons, cheap on quantumness's path; NaN fails them.
        if not 0.0 <= self.stderr_q < np.inf:
            raise ValueError(f"stderr_q must be finite and nonnegative, got {self.stderr_q}")
        if self.stderr_q != 0.0 and self.method != "interferometer":
            raise ValueError(
                f"{self.method} results are exact: stderr_q must be 0, got {self.stderr_q}"
            )
        if self.stderr_q == 0.0:
            # Exact results must meet the sign constraints (NaN fails each
            # test); sampled estimates are exempt: noise can flip tiny differences.
            if not self.q_value >= -ATOL_STRUCT:
                raise ValueError(f"exact q_value must be nonnegative, got {self.q_value}")
            if not self.v2_term <= self.v1_term + ATOL_STRUCT:
                raise ValueError(
                    f"exact trace terms must satisfy v2 <= v1, got "
                    f"v1={self.v1_term}, v2={self.v2_term}"
                )
        # Every record, sampled ones included, has q_value = 4 (v1 - v2); NaN
        # and infinite values fail the test.
        if not abs(self.q_value - 4.0 * (self.v1_term - self.v2_term)) <= ATOL_STRUCT:
            raise ValueError("q_value inconsistent with 4 (v1 - v2)")


def quantumness(rho_a: DensityMatrix, rho_b: DensityMatrix,
                method: str = "direct_norm") -> WitnessResult:
    """Mutual incompatibility Q of two states.

    ``method="direct_norm"`` evaluates 2 ||ab - ba||^2 from the commutator;
    ``method="trace_formula"`` evaluates 4 (Tr(a^2 b^2) - Tr((a b)^2)).
    Both form the products ab and ba once and reduce each term with one
    BLAS dot product over the raveled operands. The two agree to ~1e-10
    and Q = 0 iff the states commute.

    ``ba`` is formed as ``mb @ ma``, not as ``(ma.T @ mb.T).T``: only the
    former keeps Q(rho, rho) exactly 0.0, since then ab and ba are the
    same product bit for bit. OpenBLAS (0.3.31) splits a dot product across
    threads above 10,000 entries, so the bits do not depend on the BLAS
    thread count for d <= 100; above that, they repeat for a fixed thread
    count only.
    """
    ma, mb = rho_a.matrix, rho_b.matrix
    if ma.shape != mb.shape:
        raise LayoutError(f"state dimensions differ: {ma.shape} vs {mb.shape}")
    if method not in ("direct_norm", "trace_formula"):
        raise ValueError(f"unknown method {method!r}; use 'direct_norm' or 'trace_formula'")
    ab, ba = ma @ mb, mb @ ma
    flat = ab.ravel()
    v1 = float(np.dot(flat, ba.T.ravel()).real)
    v2 = float(np.dot(flat, ab.T.ravel()).real)
    if method == "direct_norm":
        c = (ab - ba).ravel()
        q = 2.0 * float(np.vdot(c, c).real)
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
