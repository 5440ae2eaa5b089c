"""Property tests for Q and the cycle-trace identity (hypothesis, derandomized)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qwitness.interferometer import PermutationUnitary, permutation_expectation
from qwitness.qcore import (
    DensityMatrix,
    RegisterLayout,
    conjugate_by_unitary,
    ginibre_state,
    tensor_product,
)
from qwitness.witness import quantumness


@st.composite
def states(draw, dim):
    """G G^dag / Tr with G a drawn dim x rank complex matrix."""
    rank = draw(st.integers(1, dim))
    parts = hnp.arrays(np.float64, (2, dim, rank), elements=st.floats(-1.0, 1.0))
    re, im = draw(parts)
    g = re + 1j * im
    m = g @ g.conj().T
    trace = np.trace(m).real
    if trace < 1e-3:  # (near-)zero draw: fall back to a basis projector
        m, trace = np.diag(np.eye(dim)[0]).astype(complex), 1.0
    return DensityMatrix(m / trace)


@st.composite
def state_pairs(draw):
    dim = draw(st.integers(2, 5))
    return draw(states(dim)), draw(states(dim))


PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=150)


class TestQuantumnessProperties:
    @PROPERTIES
    @given(state_pairs())
    def test_bounds_and_route_agreement(self, pair):
        direct = quantumness(*pair, method="direct_norm").q_value
        traced = quantumness(*pair, method="trace_formula").q_value
        assert 0.0 <= direct <= 1.0 + 1e-12
        assert traced == pytest.approx(direct, abs=1e-10)

    @PROPERTIES
    @given(state_pairs())
    def test_symmetry(self, pair):
        rho_a, rho_b = pair
        for method in ("direct_norm", "trace_formula"):
            assert quantumness(rho_a, rho_b, method).q_value == pytest.approx(
                quantumness(rho_b, rho_a, method).q_value, abs=1e-12
            )

    @PROPERTIES
    @given(state_pairs(), st.data())
    def test_unitary_invariance(self, pair, data):
        rho_a, rho_b = pair
        re, im = data.draw(hnp.arrays(np.float64, (2, rho_a.dim, rho_a.dim),
                                      elements=st.floats(-1.0, 1.0)))
        u, _ = np.linalg.qr(re + 1j * im)  # Householder Q: unitary for any draw
        moved = conjugate_by_unitary(rho_a, u), conjugate_by_unitary(rho_b, u)
        for method in ("direct_norm", "trace_formula"):
            assert quantumness(*moved, method).q_value == pytest.approx(
                quantumness(rho_a, rho_b, method).q_value, abs=1e-10
            )


@st.composite
def registers(draw):
    """2 to 5 factors of dims 2 and 3, a state per factor, and a permutation
    that moves each factor only into a slot of its own dim."""
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=5))
    order = draw(st.permutations(range(len(dims))))
    mapping = list(range(len(dims)))
    for d in set(dims):
        slots = [s for s, ds in enumerate(dims) if ds == d]
        for s, k in zip(slots, np.argsort([order[s] for s in slots], kind="stable")):
            mapping[s] = slots[k]
    perm = PermutationUnitary(RegisterLayout(tuple(dims)), tuple(mapping))
    # Seeded Ginibre states: drawn floats are often real, and a cycle trace
    # of real states cannot tell a cycle from its reverse.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return perm, [ginibre_state(d, int(rng.integers(1, d + 1)), rng) for d in dims]


class TestCycleTraceProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(registers())
    def test_cycle_trace_equals_dense_trace(self, register):
        perm, rhos = register
        dense = rhos[0].matrix
        for rho in rhos[1:]:
            dense = tensor_product(dense, rho)
        oracle = complex(np.trace(perm.matrix() @ dense))
        assert permutation_expectation(perm, rhos) == pytest.approx(oracle, abs=1e-12)
