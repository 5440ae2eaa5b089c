"""Quantumness measure, witness observables, classicality probes."""

import numpy as np
import pytest

from qwitness.qcore import (
    DensityMatrix,
    LayoutError,
    commutator_hs,
    conjugate_by_unitary,
    ginibre_state,
    pure_state,
)
from qwitness.witness import (
    ProbePair,
    WitnessResult,
    _trace_terms,
    classicality_probe,
    default_probe_pairs,
    gell_mann_basis,
    quantumness,
    witness_observables,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def bloch_state(x, y, z):
    """Qubit state from a Bloch vector of length <= 1."""
    return DensityMatrix((np.eye(2) + x * SX + y * SY + z * SZ) / 2.0)


def random_pure_ket(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestQuantumness:
    def test_state_with_itself_is_zero(self):
        rng = np.random.default_rng(0)
        rho = ginibre_state(3, 2, rng)
        res = quantumness(rho, rho)
        assert res.q_value == pytest.approx(0.0, abs=1e-12)

    def test_maximally_incompatible_projectors(self):
        """|0><0| against |+><+| sits at the top of the measure: overlap
        t = 1/2, so 4 t (1 - t) = 1."""
        zero = pure_state(np.array([1.0, 0.0]))
        plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        res = quantumness(zero, plus)
        assert res.q_value == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_bloch_vectors_of_half_length(self):
        # |a x b|^2 with a = (1/2,0,0), b = (0,1/2,0) is (1/4)^2 = 1/16
        res = quantumness(bloch_state(0.5, 0, 0), bloch_state(0, 0.5, 0))
        assert res.q_value == pytest.approx(1.0 / 16.0, abs=1e-10)

    def test_methods_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            a = ginibre_state(dim, int(rng.integers(1, dim + 1)), rng)
            b = ginibre_state(dim, int(rng.integers(1, dim + 1)), rng)
            direct = quantumness(a, b, method="direct_norm")
            traced = quantumness(a, b, method="trace_formula")
            assert direct.q_value == pytest.approx(traced.q_value, abs=1e-10)
            assert direct.v1_term == pytest.approx(traced.v1_term, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = ginibre_state(4, 2, rng)
            b = ginibre_state(4, 4, rng)
            assert quantumness(a, b).q_value == pytest.approx(
                quantumness(b, a).q_value, abs=1e-12
            )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = ginibre_state(3, 3, rng)
            b = ginibre_state(3, 1, rng)
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            u, _ = np.linalg.qr(g)
            q0 = quantumness(a, b).q_value
            q1 = quantumness(
                conjugate_by_unitary(a, u), conjugate_by_unitary(b, u)
            ).q_value
            assert q1 == pytest.approx(q0, abs=1e-10)

    def test_pure_state_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            ka = random_pure_ket(dim, rng)
            kb = random_pure_ket(dim, rng)
            t = abs(np.vdot(ka, kb)) ** 2
            q = quantumness(pure_state(ka), pure_state(kb)).q_value
            assert q == pytest.approx(4.0 * t * (1.0 - t), abs=1e-10)

    def test_qubit_bloch_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(-1, 1, size=3)
            b = rng.uniform(-1, 1, size=3)
            a *= rng.uniform(0, 1) / max(np.linalg.norm(a), 1.0)
            b *= rng.uniform(0, 1) / max(np.linalg.norm(b), 1.0)
            q = quantumness(bloch_state(*a), bloch_state(*b)).q_value
            assert q == pytest.approx(np.linalg.norm(np.cross(a, b)) ** 2, abs=1e-10)

    def test_dim_mismatch_raises(self):
        with pytest.raises(LayoutError):
            quantumness(
                DensityMatrix(np.eye(2) / 2.0), DensityMatrix(np.eye(3) / 3.0)
            )

    def test_unknown_method_raises(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="unknown method"):
            quantumness(rho, rho, method="guess")
        with pytest.raises(ValueError):
            # interferometric evaluation lives in its own module
            quantumness(rho, rho, method="interferometer")


def ginibre_pairs(seed):
    """Seeded Ginibre pairs at d 2, 3, 5, 16 over ranks 1, mid and full."""
    rng = np.random.default_rng(seed)
    for dim in (2, 3, 5, 16):
        ranks = sorted({1, (dim + 1) // 2, dim})
        for rank_a in ranks:
            for rank_b in ranks:
                yield ginibre_state(dim, rank_a, rng), ginibre_state(dim, rank_b, rng)


class TestTraceTermKernel:
    def test_matches_the_multi_product_reference(self):
        """quantumness forms ab and ba once; the reference is the arithmetic
        it replaced: Tr(a (ab) b), Tr((ab)(ab)) and 2 ||ab - ba||^2."""
        for rho_a, rho_b in ginibre_pairs(8):
            a, b = rho_a.matrix, rho_b.matrix
            v1 = float(np.trace(a @ (a @ b) @ b).real)
            v2 = float(np.trace((a @ b) @ (a @ b)).real)
            expected = {"direct_norm": 2.0 * commutator_hs(a, b)[1],
                        "trace_formula": 4.0 * (v1 - v2)}
            for method, q in expected.items():
                res = quantumness(rho_a, rho_b, method=method)
                assert res.q_value == pytest.approx(q, abs=1e-12)
                assert res.v1_term == pytest.approx(v1, abs=1e-12)
                assert res.v2_term == pytest.approx(v2, abs=1e-12)

    @pytest.mark.parametrize("method", ["direct_norm", "trace_formula"])
    def test_state_hermitian_only_to_tolerance(self, method):
        """b is off Hermitian by 8e-11 (< ATOL_STRUCT). ||ab||^2 would move v1
        by 4e-11, so 4 (v1 - v2) would miss the direct norm by 1.6e-10 and
        fail WitnessResult's check; Tr(ab ba) keeps the error second order."""
        c = 4e-11
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.array([[0.5, 0.5 + c], [0.5 - c, 0.5]], dtype=complex)
        res = quantumness(DensityMatrix(a), DensityMatrix(b), method=method)
        assert res.q_value == pytest.approx(1.0, abs=1e-15)
        assert res.v1_term == pytest.approx(float(np.trace(a @ (a @ b) @ b).real), abs=1e-15)
        assert res.v2_term == pytest.approx(float(np.trace((a @ b) @ (a @ b)).real), abs=1e-15)

    def test_batched_q_terms_equal_per_pair_calls_bitwise(self):
        rng = np.random.default_rng(9)
        for dim in (2, 3, 5, 16):
            stack = np.array([
                [ginibre_state(dim, int(rng.integers(1, dim + 1)), rng).matrix
                 for _ in range(2)]
                for _ in range(40)
            ])
            v1, v2 = _trace_terms(stack[:, 0] @ stack[:, 1])
            assert v1.shape == v2.shape == (40,)
            for k, pair in enumerate(stack):
                assert (v1[k], v2[k]) == _trace_terms(pair[0] @ pair[1])


class TestWitnessResult:
    def test_exact_invariants_enforced(self):
        with pytest.raises(ValueError):
            WitnessResult(q_value=-0.5, v1_term=0.0, v2_term=0.125, method="direct_norm")
        with pytest.raises(ValueError):
            WitnessResult(q_value=0.4, v1_term=0.2, v2_term=0.3, method="trace_formula")
        with pytest.raises(ValueError, match="inconsistent"):
            WitnessResult(q_value=0.5, v1_term=0.3, v2_term=0.2, method="trace_formula")

    def test_sampled_estimates_may_fluctuate_below_zero(self):
        res = WitnessResult(
            q_value=-0.01, v1_term=0.1, v2_term=0.1025,
            method="interferometer", stderr_q=0.02,
        )
        assert res.stderr_q == 0.02

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            WitnessResult(q_value=0.0, v1_term=0.0, v2_term=0.0, method="other")


class TestWitnessObservables:
    def test_commuting_states_give_zero(self):
        a = DensityMatrix(np.diag([0.25, 0.75]))
        b = DensityMatrix(np.diag([0.9, 0.1]))
        va, vb = witness_observables(a, b)
        assert abs(va) == pytest.approx(0.0, abs=1e-12)
        assert abs(vb) == pytest.approx(0.0, abs=1e-12)

    def test_projector_pair_magnitude(self):
        zero = pure_state(np.array([1.0, 0.0]))
        plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        va, _ = witness_observables(zero, plus)
        assert abs(va) == pytest.approx(0.5, abs=1e-10)  # Q/2 with Q = 1

    def test_magnitudes_match_half_q_and_each_other(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = ginibre_state(2, int(rng.integers(1, 3)), rng)
            b = ginibre_state(2, int(rng.integers(1, 3)), rng)
            q = quantumness(a, b).q_value
            va, vb = witness_observables(a, b)
            assert abs(va) == pytest.approx(q / 2.0, abs=1e-10)
            assert abs(vb) == pytest.approx(q / 2.0, abs=1e-10)

    def test_values_purely_imaginary_and_opposite(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = ginibre_state(3, 2, rng)
            b = ginibre_state(3, 3, rng)
            va, vb = witness_observables(a, b)
            assert abs(va.real) <= 1e-12
            assert abs(vb.real) <= 1e-12
            assert va.imag == pytest.approx(-vb.imag, abs=1e-12)


class TestClassicalityProbe:
    def test_maximally_mixed_sees_nothing(self):
        """Tr((I/d)[A,B]) is a trace of a commutator: identically zero."""
        rho = DensityMatrix(np.eye(3) / 3.0)
        violation, _ = classicality_probe(rho, default_probe_pairs(3))
        assert violation == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_pauli_probe(self):
        """[sy, sz] = 2i sx and <+|sx|+> = 1, so the violation is 2."""
        plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        violation, _ = classicality_probe(plus, [ProbePair(SY, SZ)])
        assert violation == pytest.approx(2.0, abs=1e-12)

    def test_default_pairs_find_the_pauli_violation(self):
        plus = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        violation, argmax = classicality_probe(plus, default_probe_pairs(2))
        assert violation == pytest.approx(2.0, abs=1e-12)
        assert argmax == 2  # pairs ordered (x,y), (x,z), (y,z)

    def test_diagonal_state_diagonal_probes(self):
        rho = DensityMatrix(np.diag([0.6, 0.3, 0.1]))
        probes = [ProbePair(np.diag([1.0, 2.0, 3.0]), np.diag([0.0, 1.0, -1.0]))]
        violation, _ = classicality_probe(rho, probes)
        assert violation == 0.0

    def test_empty_probe_list_raises(self):
        with pytest.raises(ValueError, match="empty"):
            classicality_probe(DensityMatrix(np.eye(2) / 2.0), [])

    def test_probe_dim_mismatch_raises(self):
        with pytest.raises(LayoutError):
            classicality_probe(
                DensityMatrix(np.eye(3) / 3.0), [ProbePair(SX, SY)]
            )

    def test_non_hermitian_probe_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ProbePair(np.array([[0.0, 1.0], [0.0, 0.0]]), SX)


class TestGellMannBasis:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_orthogonality_and_count(self, dim):
        basis = gell_mann_basis(dim)
        assert len(basis) == dim * dim - 1
        for i, gi in enumerate(basis):
            assert np.abs(gi - gi.conj().T).max() <= 1e-12
            assert abs(np.trace(gi)) <= 1e-12
            for j, gj in enumerate(basis):
                expected = 2.0 if i == j else 0.0
                assert np.trace(gi @ gj) == pytest.approx(expected, abs=1e-12)

    def test_dim_two_is_pauli(self):
        basis = gell_mann_basis(2)
        np.testing.assert_allclose(basis[0], SX, atol=1e-15)
        np.testing.assert_allclose(basis[1], SY, atol=1e-15)
        np.testing.assert_allclose(basis[2], SZ, atol=1e-15)

    def test_pair_count(self):
        n = len(gell_mann_basis(3))
        assert len(default_probe_pairs(3)) == n * (n - 1) // 2
