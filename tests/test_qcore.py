"""Core operator layer: validation, tensor algebra, partial trace, randomness."""

import warnings

import numpy as np
import pytest

from qwitness import qcore
from qwitness.correlations import PovmElement
from qwitness.qcore import (
    ATOL_EXACT,
    ATOL_STRUCT,
    DensityMatrix,
    LayoutError,
    RandomSpec,
    RegisterLayout,
    StateValidationError,
    basis_ket,
    commutator_hs,
    conjugate_by_unitary,
    ginibre_state,
    partial_trace,
    partial_trace_operator,
    pure_state,
    random_density,
    tensor_product,
)

P0 = np.array([[1.0, 0.0], [0.0, 0.0]])
P1 = np.array([[0.0, 0.0], [0.0, 1.0]])
PLUS = np.full((2, 2), 0.5)


class TestDensityMatrix:
    def test_maximally_mixed_is_valid(self):
        state = DensityMatrix(np.eye(2) / 2.0)
        assert state.dim == 2
        np.testing.assert_allclose(state.purity(), 0.5, atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StateValidationError, match="Hermitian") as info:
            DensityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert info.value.check == "hermiticity"

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(StateValidationError, match="negative eigenvalue") as info:
            DensityMatrix(np.diag([1.2, -0.2]))
        assert info.value.check == "positivity"

    def test_rejects_bad_trace(self):
        with pytest.raises(StateValidationError, match="trace"):
            DensityMatrix(np.diag([1.0, 0.5]))

    def test_rejects_non_square(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(np.ones((2, 3)))

    def test_rejects_nan(self):
        m = np.eye(2, dtype=complex) / 2.0
        m[0, 1] = np.nan
        with pytest.raises(StateValidationError):
            DensityMatrix(m)

    def test_matrix_is_read_only(self):
        state = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 3.0

    def test_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(11)
        state = ginibre_state(4, 3, rng)
        evals = state.eigenvalues()
        np.testing.assert_allclose(evals.sum(), 1.0, atol=1e-12)
        assert evals.min() >= -ATOL_STRUCT

    def test_pure_state_has_unit_purity(self):
        ket = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3.0)
        np.testing.assert_allclose(pure_state(ket).purity(), 1.0, atol=1e-12)


class TestValidateDensity:
    def test_returns_density_matrix(self):
        state = DensityMatrix(np.eye(2) / 2.0)
        assert isinstance(state, DensityMatrix)
        np.testing.assert_array_equal(state.matrix, np.eye(2) / 2.0)

    def test_failure_names_check_and_magnitude(self):
        try:
            DensityMatrix(np.diag([1.3, -0.3]))
        except StateValidationError as exc:
            assert exc.check == "positivity"
            assert exc.magnitude == pytest.approx(-0.3, abs=1e-12)
        else:
            pytest.fail("expected StateValidationError")


@pytest.mark.parametrize("cls", [DensityMatrix, PovmElement], ids=lambda c: c.__name__)
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize(
    "value", [np.nan, np.inf, complex(0.0, np.inf)], ids=["nan", "inf", "imag-inf"]
)
def test_non_finite_entry_fails_the_finiteness_check_first(cls, where, value):
    # Finiteness is checked before M - M^dag or M + M^dag is formed: either
    # warns "invalid value" on an infinite diagonal entry.
    m = np.eye(2, dtype=complex) / 2.0
    m[where] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StateValidationError) as info:
            cls(m)
    assert str(info.value) == "operator has NaN/Inf entries"
    assert (info.value.check, info.value.magnitude) == ("finiteness", np.inf)


def _skewed(c):
    """Unit-trace PSD matrix whose one asymmetry is c."""
    return np.array([[0.5, c], [0.0, 0.5]])


def _negative(e):
    """Unit-trace Hermitian matrix whose least eigenvalue is -e."""
    return np.diag([1.0 + e, -e])


# check name -> (violating matrix of a given size, the size DensityMatrix
# reports for it, the word PovmElement's message gives)
VIOLATIONS = {
    "hermiticity": (_skewed, 1.0, "Hermitian"),
    "positivity": (_negative, -1.0, "PSD"),
}


@pytest.mark.parametrize("check", list(VIOLATIONS))
@pytest.mark.parametrize("cls", [DensityMatrix, PovmElement], ids=lambda c: c.__name__)
class TestStructuralTolerance:
    """Both validators accept violations up to ATOL_STRUCT and reject beyond."""

    def test_half_the_tolerance_is_accepted(self, cls, check):
        cls(VIOLATIONS[check][0](0.5 * ATOL_STRUCT))

    def test_twice_the_tolerance_is_rejected(self, cls, check):
        make, sign, word = VIOLATIONS[check]
        with pytest.raises(ValueError) as info:
            cls(make(2.0 * ATOL_STRUCT))
        if cls is DensityMatrix:
            assert info.value.check == check
            assert info.value.magnitude == pytest.approx(sign * 2.0 * ATOL_STRUCT)
        else:
            assert word in str(info.value)


def _reference_outcome(cls, m):
    """What ``cls(m)`` raises when eigvalsh decides every matrix.

    The rule before the Cholesky certificate: same check order, check
    names, magnitudes and messages. ``None`` for an accepted matrix.
    """
    m = np.array(m, dtype=complex)
    herm_dev = float(np.abs(m - m.conj().T).max())
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    if cls is PovmElement:
        if herm_dev > ATOL_STRUCT:
            return ("ValueError", None, None,
                    "measurement element must be Hermitian within 1e-10")
        if min_eig < -ATOL_STRUCT:
            return ("ValueError", None, None,
                    f"measurement element must be PSD within 1e-10 (min eigenvalue {min_eig})")
        return None
    if herm_dev > ATOL_STRUCT:
        return ("StateValidationError", "hermiticity", herm_dev,
                f"matrix is not Hermitian: max |M - M^dag| = {herm_dev:.3e}")
    if min_eig < -ATOL_STRUCT:
        return ("StateValidationError", "positivity", min_eig,
                f"matrix has a negative eigenvalue: {min_eig:.3e}")
    trace_dev = float(abs(np.trace(m) - 1.0))
    if trace_dev > ATOL_STRUCT:
        return ("StateValidationError", "trace", trace_dev,
                f"trace deviates from 1 by {trace_dev:.3e}")
    return None


def _outcome(cls, m):
    """What ``cls(m)`` raises, in the form of :func:`_reference_outcome`."""
    try:
        cls(m)
    except ValueError as exc:
        return (type(exc).__name__, getattr(exc, "check", None),
                getattr(exc, "magnitude", None), str(exc))
    return None


def _with_least_eigenvalue(d, rank, least, rng, skew):
    """Unit-trace matrix in a Haar-random basis with least eigenvalue ``least``.

    ``min(rank, d - 1)`` random positive eigenvalues, zeros, and ``least``;
    ``skew`` adds an anti-Hermitian part of that largest entry.
    """
    n_pos = min(rank, d - 1)
    pos = rng.uniform(0.1, 1.0, size=n_pos)
    evals = np.concatenate([pos / pos.sum() * (1.0 - least), np.zeros(d - 1 - n_pos), [least]])
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    m = (u * evals) @ u.conj().T
    k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    k = k - k.conj().T
    return m + skew * k / np.abs(k).max()


LEAST_EIGENVALUES = (-2.0, -1.01, -1.0, -0.99, -0.75, -0.5, -0.49, -0.25, 0.0, 1.0)


@pytest.fixture
def spectrum_calls(monkeypatch):
    """Dimensions of the matrices whose eigenvalues qcore computed."""
    calls = []
    spectrum = qcore._sym_spectrum

    def spy(m):
        calls.append(m.shape[0])
        return spectrum(m)

    monkeypatch.setattr(qcore, "_sym_spectrum", spy)
    return calls


class TestPositivityPaths:
    """The Cholesky certificate decides exactly as eigvalsh alone did."""

    @pytest.mark.parametrize("cls", [DensityMatrix, PovmElement], ids=lambda c: c.__name__)
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16, 32, 64])
    def test_decisions_match_the_eigensolver(self, d, cls):
        rng = np.random.default_rng([7, d])
        accepted = []
        for draw in range(5):
            skew = 0.4 * ATOL_STRUCT if draw % 2 else 0.0
            for rank in sorted({1, (d + 1) // 2, d}):
                for least in LEAST_EIGENVALUES:
                    m = _with_least_eigenvalue(d, rank, least * ATOL_STRUCT, rng, skew)
                    expected = _reference_outcome(cls, m)
                    assert _outcome(cls, m) == expected, (rank, least, draw)
                    accepted.append(expected is None)
        # d = 1 has no unit-trace matrix with a least eigenvalue near 0
        assert 0 < sum(accepted) < len(accepted) or d == 1

    def test_states_need_no_eigensolver(self, spectrum_calls):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 5, 16, 64):
            for rank in (1, d):
                g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
                m = g @ g.conj().T
                DensityMatrix(m / np.trace(m).real)
                PovmElement(m / np.abs(m).max())
        assert spectrum_calls == []

    def test_large_trace_falls_back_to_the_eigensolver(self, spectrum_calls):
        # The factor completes, but its error bound grows with ||R||_F^2 ~ |Tr M|
        m = 1e6 * ginibre_state(4, 4, np.random.default_rng(2)).matrix
        for cls in (DensityMatrix, PovmElement):
            assert _outcome(cls, m) == _reference_outcome(cls, m)
        assert spectrum_calls == [4, 4]
        with pytest.raises(StateValidationError) as info:
            DensityMatrix(m)
        assert info.value.check == "trace"

    def test_factor_rejection_is_measured_and_accepted(self, spectrum_calls):
        # S + (ATOL_STRUCT / 2) I has eigenvalue -ATOL_STRUCT / 4: no factor
        m = _with_least_eigenvalue(3, 2, -0.75 * ATOL_STRUCT, np.random.default_rng(4), 0.0)
        assert np.linalg.eigvalsh(m)[0] == pytest.approx(-0.75 * ATOL_STRUCT, rel=1e-3)
        DensityMatrix(m)
        PovmElement(m)
        assert spectrum_calls == [3, 3]

    def test_non_finite_factor_falls_back(self, spectrum_calls):
        # M + M^dag overflows: eigvalsh cannot measure S, so the fallback
        # names the finiteness check instead
        big = 1e308
        m = np.array([[1.0, 0.0, big], [0.0, 1.0, big], [big, big, 1.0]])
        for cls in (DensityMatrix, PovmElement):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(np.linalg.LinAlgError):
                    _reference_outcome(cls, m)
            with pytest.warns(RuntimeWarning) as warned:
                with pytest.raises(StateValidationError, match="not finite") as info:
                    cls(m)
            assert "overflow encountered" in str(warned[0].message)
            assert (info.value.check, info.value.magnitude) == ("finiteness", np.inf)
        assert spectrum_calls == []


class TestTensorProduct:
    def test_basis_projectors(self):
        # |0><0| (x) |1><1| occupies the (0,1) slot of the 2x2 grid
        np.testing.assert_array_equal(
            tensor_product(P0, P1), np.diag([0.0, 1.0, 0.0, 0.0])
        )

    def test_identity_factors(self):
        np.testing.assert_array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_trace_multiplicative(self):
        prod = tensor_product(np.eye(2) / 2.0, np.eye(2) / 2.0)
        np.testing.assert_allclose(np.trace(prod), 1.0, atol=1e-15)

    def test_accepts_density_matrix_inputs(self):
        out = tensor_product(DensityMatrix(P0), DensityMatrix(P1))
        np.testing.assert_array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_associative_exactly_on_binary_entries(self):
        # 0/1 entries multiply without rounding, so equality is bitwise
        a, b, c = P0, P1, np.eye(2)
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        np.testing.assert_array_equal(left, right)

    def test_associative_to_rounding_on_random_states(self):
        # product rounding order differs between the two groupings
        rng = np.random.default_rng(7)
        a = ginibre_state(2, 2, rng).matrix
        b = ginibre_state(3, 1, rng).matrix
        c = ginibre_state(2, 1, rng).matrix
        left = tensor_product(tensor_product(a, b), c)
        right = tensor_product(a, tensor_product(b, c))
        np.testing.assert_allclose(left, right, atol=1e-14)


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        rng = np.random.default_rng(3)
        rho_a = ginibre_state(2, 2, rng)
        rho_b = ginibre_state(3, 2, rng)
        joint = DensityMatrix(tensor_product(rho_a, rho_b))
        layout = RegisterLayout((2, 3))
        reduced = partial_trace(joint, layout, keep=(0,))
        np.testing.assert_allclose(reduced.matrix, rho_a.matrix, atol=1e-12)
        reduced_b = partial_trace(joint, layout, keep=(1,))
        np.testing.assert_allclose(reduced_b.matrix, rho_b.matrix, atol=1e-12)

    def test_entangled_pair_reduces_to_maximally_mixed(self):
        ket = np.zeros(4)
        ket[0] = ket[3] = 1.0 / np.sqrt(2.0)
        joint = pure_state(ket)
        reduced = partial_trace(joint, RegisterLayout((2, 2)), keep=(1,))
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_trace_over_everything_gives_unit_scalar(self):
        rng = np.random.default_rng(5)
        state = ginibre_state(6, 6, rng)
        out = partial_trace(state, RegisterLayout((2, 3)), keep=())
        np.testing.assert_allclose(out.matrix, [[1.0]], atol=1e-12)

    def test_composition_matches_single_step(self):
        """Tracing out factors one at a time equals tracing them at once."""
        rng = np.random.default_rng(8)
        state = ginibre_state(12, 5, rng)
        layout = RegisterLayout((2, 3, 2))
        at_once = partial_trace(state, layout, keep=(0,))
        step1 = partial_trace(state, layout, keep=(0, 1))
        step2 = partial_trace(step1, RegisterLayout((2, 3)), keep=(0,))
        np.testing.assert_allclose(at_once.matrix, step2.matrix, atol=1e-12)

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            state = ginibre_state(8, int(rng.integers(1, 9)), rng)
            reduced = partial_trace(state, RegisterLayout((2, 2, 2)), keep=(0, 2))
            assert isinstance(reduced, DensityMatrix)

    def test_layout_mismatch_raises(self):
        state = DensityMatrix(np.eye(4) / 4.0)
        with pytest.raises(LayoutError):
            partial_trace(state, RegisterLayout((2, 3)), keep=(0,))

    def test_bad_keep_index_raises(self):
        state = DensityMatrix(np.eye(4) / 4.0)
        with pytest.raises(LayoutError):
            partial_trace(state, RegisterLayout((2, 2)), keep=(2,))

    def test_operator_level_variant_keeps_unnormalized_trace(self):
        # scaled input stays scaled: the operator path does not renormalize
        out = partial_trace_operator(np.eye(4) * 0.5, RegisterLayout((2, 2)), keep=(0,))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-15)


class TestCommutatorHS:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(13)
        rho = ginibre_state(3, 3, rng)
        comm, norm_sq = commutator_hs(rho, rho)
        np.testing.assert_allclose(comm, np.zeros((3, 3)), atol=1e-15)
        assert norm_sq == 0.0

    def test_projector_pair_oracle(self):
        """[P0, P+] = [[0, 1/4... ]] has squared HS norm 1/2 (by hand:
        P0 P+ - P+ P0 = [[0, 1/2], [-1/2, 0]], two entries of 1/4 each)."""
        comm, norm_sq = commutator_hs(P0, PLUS)
        np.testing.assert_allclose(
            comm, np.array([[0.0, 0.5], [-0.5, 0.0]]), atol=1e-15
        )
        np.testing.assert_allclose(norm_sq, 0.5, atol=1e-15)

    def test_diagonal_matrices_commute(self):
        _, norm_sq = commutator_hs(np.diag([0.25, 0.75]), np.diag([0.9, 0.1]))
        assert norm_sq == 0.0

    def test_norm_nonnegative_and_zero_iff_commuting(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = ginibre_state(3, 2, rng)
            b = ginibre_state(3, 3, rng)
            comm, norm_sq = commutator_hs(a, b)
            assert norm_sq >= 0.0
            if norm_sq == 0.0:
                assert np.max(np.abs(comm)) <= ATOL_STRUCT

    def test_dim_mismatch_raises(self):
        with pytest.raises(LayoutError):
            commutator_hs(np.eye(2), np.eye(3))

    def test_matches_trace_definition(self):
        rng = np.random.default_rng(19)
        a = ginibre_state(4, 2, rng).matrix
        b = ginibre_state(4, 4, rng).matrix
        comm, norm_sq = commutator_hs(a, b)
        oracle = np.trace(comm.conj().T @ comm).real
        np.testing.assert_allclose(norm_sq, oracle, atol=ATOL_EXACT)


class TestRandomDensity:
    def test_full_rank_unit_trace(self):
        state = random_density(RandomSpec(dim=4, rank=4, seed=21))
        np.testing.assert_allclose(np.trace(state.matrix), 1.0, atol=1e-12)

    def test_rank_one_is_pure(self):
        state = random_density(RandomSpec(dim=3, rank=1, seed=22))
        np.testing.assert_allclose(state.purity(), 1.0, atol=1e-10)

    def test_reproducible(self):
        a = random_density(RandomSpec(dim=5, rank=3, seed=23))
        b = random_density(RandomSpec(dim=5, rank=3, seed=23))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_distinct_seeds_differ(self):
        a = random_density(RandomSpec(dim=3, rank=3, seed=1))
        b = random_density(RandomSpec(dim=3, rank=3, seed=2))
        assert np.max(np.abs(a.matrix - b.matrix)) > 1e-3

    def test_rank_controls_spectrum(self):
        state = random_density(RandomSpec(dim=5, rank=2, seed=24))
        assert np.sum(state.eigenvalues() > 1e-10) == 2

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RandomSpec(dim=3, rank=4, seed=0)
        with pytest.raises(ValueError):
            RandomSpec(dim=3, rank=0, seed=0)


class TestConjugateByUnitary:
    def test_identity_leaves_state(self):
        rng = np.random.default_rng(29)
        rho = ginibre_state(3, 2, rng)
        out = conjugate_by_unitary(rho, np.eye(3))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_bit_flip(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = conjugate_by_unitary(DensityMatrix(P0), flip)
        np.testing.assert_allclose(out.matrix, P1, atol=1e-15)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(31)
        rho = ginibre_state(4, 3, rng)
        # Haar-ish unitary from QR of a Ginibre draw
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(g)
        out = conjugate_by_unitary(rho, u)
        np.testing.assert_allclose(
            out.eigenvalues(), rho.eigenvalues(), atol=1e-10
        )

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            conjugate_by_unitary(DensityMatrix(np.eye(2) / 2.0), np.diag([1.0, 2.0]))


class TestLayoutAndKets:
    def test_layout_total_dim(self):
        layout = RegisterLayout((2, 3, 4))
        assert layout.total_dim == 24
        assert layout.n_factors == 3

    def test_empty_layout_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout(())

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(LayoutError):
            RegisterLayout((2, 0))

    def test_basis_ket(self):
        np.testing.assert_array_equal(basis_ket(1, 3), [0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            basis_ket(3, 3)

    def test_pure_state_normalizes(self):
        state = pure_state(np.array([1.0, 1.0]))  # norm sqrt(2), rescaled
        np.testing.assert_allclose(state.matrix, PLUS, atol=1e-15)
        with pytest.raises(StateValidationError):
            pure_state(np.zeros(2))
