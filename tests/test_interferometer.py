"""Permutation unitaries, cycle-trace expectations, fringe simulation and fits."""

import itertools
import warnings

import numpy as np
import pytest

from qwitness.interferometer import (
    FringeData,
    InterferometerSpec,
    PermutationUnitary,
    VisibilityEstimate,
    build_u1,
    build_u2,
    compose_permutations,
    default_phase_grid,
    extract_visibility,
    generalized_swap,
    interferometric_quantumness,
    permutation_expectation,
    run_interferometer,
)
from qwitness.qcore import (
    DensityMatrix,
    LayoutError,
    RegisterLayout,
    ginibre_state,
    pure_state,
    tensor_product,
)
from qwitness.witness import quantumness

Q2 = RegisterLayout((2, 2))
Q4 = RegisterLayout((2, 2, 2, 2))

SWAP_2Q = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def dense_tensor(states):
    out = states[0].matrix
    for s in states[1:]:
        out = tensor_product(out, s)
    return out


class TestPermutationUnitary:
    def test_identity_mapping(self):
        perm = PermutationUnitary(Q2, (0, 1))
        np.testing.assert_array_equal(perm.matrix(), np.eye(4))
        assert perm.cycles() == [(0,), (1,)]

    def test_two_qubit_swap_matrix(self):
        perm = generalized_swap(0, 1, Q2)
        np.testing.assert_array_equal(perm.matrix(), SWAP_2Q)
        assert perm.cycles() == [(0, 1)]

    def test_swap_moves_product_kets(self):
        """S(|0> (x) |1>) = |1> (x) |0|> as a matrix action."""
        ket01 = np.zeros(4)
        ket01[1] = 1.0  # |0,1> in C-order indexing
        moved = generalized_swap(0, 1, Q2).matrix() @ ket01
        expected = np.zeros(4)
        expected[2] = 1.0  # |1,0>
        np.testing.assert_array_equal(moved.real, expected)

    def test_rejects_non_permutation(self):
        with pytest.raises(LayoutError, match="not a permutation"):
            PermutationUnitary(Q2, (0, 0))

    def test_rejects_dim_incompatible_move(self):
        with pytest.raises(LayoutError, match="cannot move"):
            PermutationUnitary(RegisterLayout((2, 3)), (1, 0))

    def test_swap_argument_validation(self):
        with pytest.raises(LayoutError):
            generalized_swap(0, 0, Q2)
        with pytest.raises(LayoutError):
            generalized_swap(0, 2, Q2)
        with pytest.raises(LayoutError):
            generalized_swap(0, 1, RegisterLayout((2, 3)))

    def test_matrix_is_unitary_permutation(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            mapping = tuple(rng.permutation(4).tolist())
            perm = PermutationUnitary(Q4, mapping)
            m = perm.matrix()
            np.testing.assert_array_equal(m @ m.conj().T, np.eye(16))
            assert np.all((m == 0) | (m == 1))


class TestCompose:
    def test_operator_product_matches_dense(self):
        """compose(A, B) is the operator product A B (B acts first)."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = PermutationUnitary(Q4, tuple(rng.permutation(4).tolist()))
            b = PermutationUnitary(Q4, tuple(rng.permutation(4).tolist()))
            composed = compose_permutations(a, b)
            np.testing.assert_array_equal(composed.matrix(), a.matrix() @ b.matrix())

    def test_swap_squares_to_identity(self):
        s = generalized_swap(1, 2, Q4)
        assert compose_permutations(s, s).mapping == (0, 1, 2, 3)

    def test_empty_composition_rejected(self):
        with pytest.raises(ValueError):
            compose_permutations()

    def test_layout_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            compose_permutations(
                generalized_swap(0, 1, Q2), generalized_swap(0, 1, Q4)
            )


class TestCascades:
    def test_u1_is_a_single_four_cycle(self):
        u1 = build_u1(Q4)
        assert u1.mapping == (3, 0, 1, 2)
        assert len(u1.cycles()) == 1

    def test_u2_is_a_single_four_cycle(self):
        u2 = build_u2(Q4)
        assert u2.mapping == (2, 3, 1, 0)
        assert len(u2.cycles()) == 1

    def test_u1_matches_explicit_swap_product(self):
        chain = compose_permutations(
            generalized_swap(0, 1, Q4),
            generalized_swap(1, 2, Q4),
            generalized_swap(2, 3, Q4),
        )
        np.testing.assert_array_equal(build_u1(Q4).matrix(), chain.matrix())

    def test_cascades_need_four_equal_factors(self):
        with pytest.raises(LayoutError):
            build_u1(RegisterLayout((2, 2, 2)))
        with pytest.raises(LayoutError):
            build_u2(RegisterLayout((2, 2, 2, 3)))

    def test_cascade_traces_are_biquadratic_moments(self):
        """Tr(U1 rho) = Tr(ra^2 rb^2), Tr(U2 rho) = Tr((ra rb)^2) on the
        four-copy register ra (x) ra (x) rb (x) rb."""
        rng = np.random.default_rng(3)
        for dim in (2, 3):
            layout = RegisterLayout((dim,) * 4)
            ra = ginibre_state(dim, dim, rng)
            rb = ginibre_state(dim, 1, rng)
            states = [ra, ra, rb, rb]
            ma, mb = ra.matrix, rb.matrix
            z1 = permutation_expectation(build_u1(layout), states)
            z2 = permutation_expectation(build_u2(layout), states)
            assert z1 == pytest.approx(np.trace(ma @ ma @ mb @ mb), abs=1e-12)
            assert z2 == pytest.approx(np.trace(ma @ mb @ ma @ mb), abs=1e-12)


class TestPermutationExpectation:
    def test_swap_trick(self):
        """Tr(S (rho (x) sigma)) = Tr(rho sigma)."""
        rng = np.random.default_rng(4)
        rho = ginibre_state(2, 2, rng)
        sigma = ginibre_state(2, 1, rng)
        z = permutation_expectation(generalized_swap(0, 1, Q2), [rho, sigma])
        assert z == pytest.approx(np.trace(rho.matrix @ sigma.matrix), abs=1e-14)

    def test_identity_gives_product_of_traces(self):
        rng = np.random.default_rng(5)
        states = [ginibre_state(2, 2, rng) for _ in range(3)]
        perm = PermutationUnitary(RegisterLayout((2, 2, 2)), (0, 1, 2))
        assert permutation_expectation(perm, states) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_for_all_s3_on_mixed_dims_where_legal(self):
        rng = np.random.default_rng(6)
        layout = RegisterLayout((2, 2, 2))
        states = [ginibre_state(2, int(rng.integers(1, 3)), rng) for _ in range(3)]
        dense = dense_tensor(states)
        for mapping in itertools.permutations(range(3)):
            perm = PermutationUnitary(layout, mapping)
            z = permutation_expectation(perm, states)
            oracle = complex(np.trace(perm.matrix() @ dense))
            assert z == pytest.approx(oracle, abs=1e-12)

    def test_wrong_state_count_raises(self):
        with pytest.raises(LayoutError):
            permutation_expectation(
                generalized_swap(0, 1, Q2), [DensityMatrix(np.eye(2) / 2)]
            )

    def test_wrong_state_dim_raises(self):
        with pytest.raises(LayoutError):
            permutation_expectation(
                generalized_swap(0, 1, Q2),
                [DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3)],
            )


class TestInterferometerSpec:
    def _inputs(self):
        rng = np.random.default_rng(7)
        ra = ginibre_state(2, 2, rng)
        rb = ginibre_state(2, 2, rng)
        return (ra, ra, rb, rb)

    def test_too_few_distinct_phases_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            InterferometerSpec(build_u1(Q4), self._inputs(), (0.0, 1.0))

    def test_phases_distinct_only_mod_2pi_rejected(self):
        # 0 and 2 pi are the same interference setting
        with pytest.raises(ValueError, match="distinct"):
            InterferometerSpec(
                build_u1(Q4), self._inputs(), (0.0, 1.0, 2.0 * np.pi)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, bad, capfd):
        # Rejected before the distinct-phase count, whose np.mod warns on inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phases must be finite"):
                InterferometerSpec(build_u1(Q4), self._inputs(), (0.0, 1.0, 2.0, bad))
        assert capfd.readouterr() == ("", "")

    def test_sampled_needs_shots(self):
        with pytest.raises(ValueError, match="shots"):
            InterferometerSpec(
                build_u1(Q4), self._inputs(), default_phase_grid(), mode="sampled"
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            InterferometerSpec(
                build_u1(Q4), self._inputs(), default_phase_grid(), mode="fast"
            )

    def test_input_count_checked(self):
        with pytest.raises(LayoutError):
            InterferometerSpec(build_u1(Q4), self._inputs()[:3], default_phase_grid())


class TestRunInterferometer:
    def test_exact_fringe_matches_dense_model(self):
        """p0(phi) = (1 + Re(e^{i phi} Tr(U rho))) / 2 against the dense
        16x16 evaluation."""
        rng = np.random.default_rng(8)
        ra = ginibre_state(2, 2, rng)
        rb = ginibre_state(2, 1, rng)
        inputs = (ra, ra, rb, rb)
        u1 = build_u1(Q4)
        z = complex(np.trace(u1.matrix() @ dense_tensor(list(inputs))))
        spec = InterferometerSpec(u1, inputs, default_phase_grid())
        fringes = run_interferometer(spec)
        for phi, p0, shots in fringes.rows():
            assert shots == 0
            assert p0 == pytest.approx(
                0.5 * (1.0 + (np.exp(1j * phi) * z).real), abs=1e-12
            )

    def test_identical_pure_inputs_reach_unit_visibility(self):
        ket = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        rho = pure_state(ket)
        spec = InterferometerSpec(build_u1(Q4), (rho,) * 4, default_phase_grid())
        fringes = run_interferometer(spec)
        assert fringes.p0.max() == pytest.approx(1.0, abs=1e-12)
        assert fringes.p0.min() == pytest.approx(0.0, abs=1e-12)
        vis = extract_visibility(fringes)
        assert vis.v == pytest.approx(1.0, abs=1e-9)

    def test_sampled_reproducible_and_seed_sensitive(self):
        rng = np.random.default_rng(9)
        ra = ginibre_state(2, 2, rng)
        rb = ginibre_state(2, 2, rng)
        inputs = (ra, ra, rb, rb)

        def run(seed):
            spec = InterferometerSpec(
                build_u1(Q4), inputs, default_phase_grid(),
                mode="sampled", shots_per_phase=500, seed=seed,
            )
            return run_interferometer(spec)

        first, again, other = run(3), run(3), run(4)
        np.testing.assert_array_equal(first.p0, again.p0)
        assert np.any(first.p0 != other.p0)
        assert np.all(first.shots == 500)

    def test_sampled_values_are_frequencies(self):
        rng = np.random.default_rng(10)
        ra = ginibre_state(2, 2, rng)
        spec = InterferometerSpec(
            build_u1(Q4), (ra,) * 4, default_phase_grid(),
            mode="sampled", shots_per_phase=7, seed=0,
        )
        fringes = run_interferometer(spec)
        counts = fringes.p0 * 7
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-12)


class TestFringeData:
    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FringeData(np.array([0.0, 1.0, 2.0]), np.array([0.1, 1.2, 0.3]),
                       np.zeros(3, dtype=np.int64))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FringeData(np.array([0.0, 1.0]), np.array([0.5]), np.zeros(1, np.int64))

    @pytest.mark.parametrize(
        "phases, p0, message",
        [
            ([0.0, 1.0, 2.0, np.nan], [0.5] * 4, "fringe phases must be finite"),
            ([0.0, 1.0, 2.0, np.inf], [0.5] * 4, "fringe phases must be finite"),
            ([0.0, 1.0, 2.0, 3.0], [0.5, np.nan, 0.5, 0.5], r"\[0, 1\]"),
        ],
        ids=["nan-phase", "inf-phase", "nan-p0"],
    )
    def test_non_finite_values_rejected(self, phases, p0, message, capfd):
        # A NaN p0 used to reach extract_visibility, where LAPACK printed
        # to stderr and the fit raised LinAlgError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                FringeData(np.array(phases), np.array(p0), np.zeros(4, dtype=np.int64))
        assert capfd.readouterr() == ("", "")


class TestExtractVisibility:
    def test_recovers_synthetic_visibility_and_phase(self):
        rng = np.random.default_rng(11)
        phases = np.asarray(default_phase_grid(16))
        for _ in range(20):
            v = rng.uniform(0.0, 1.0)
            alpha = rng.uniform(-np.pi, np.pi)
            p0 = 0.5 * (1.0 + v * np.cos(phases + alpha))
            fringes = FringeData(phases, p0, np.zeros(16, np.int64))
            est = extract_visibility(fringes)
            assert est.v == pytest.approx(v, abs=1e-12)
            # compare on the circle: alpha is arbitrary when v ~ 0
            if v > 1e-6:
                assert v * np.exp(1j * est.alpha) == pytest.approx(
                    v * np.exp(1j * alpha), abs=1e-10
                )
            assert est.stderr_v == 0.0

    def test_complex_cycle_trace_phase(self):
        """A 3-cycle expectation Tr(r0 r1 r2) is genuinely complex; the fit
        must recover modulus and argument."""
        rng = np.random.default_rng(12)
        layout = RegisterLayout((2, 2, 2))
        states = [ginibre_state(2, 2, rng) for _ in range(3)]
        perm = PermutationUnitary(layout, (1, 2, 0))
        z = permutation_expectation(perm, states)
        assert abs(z.imag) > 1e-4  # the case is non-trivial
        spec = InterferometerSpec(perm, tuple(states), default_phase_grid())
        est = extract_visibility(run_interferometer(spec))
        assert est.v == pytest.approx(abs(z), abs=1e-12)
        assert est.v * np.exp(1j * est.alpha) == pytest.approx(z, abs=1e-12)

    def test_degenerate_grid_rejected(self):
        fr = FringeData(
            np.array([0.5, 0.5, 0.5 + 2 * np.pi]),
            np.array([0.2, 0.2, 0.2]),
            np.zeros(3, np.int64),
        )
        with pytest.raises(ValueError, match="degenerate"):
            extract_visibility(fr)

    def test_sampled_fit_reports_uncertainty(self):
        rng = np.random.default_rng(13)
        ra = ginibre_state(2, 2, rng)
        rb = ginibre_state(2, 2, rng)
        spec = InterferometerSpec(
            build_u1(Q4), (ra, ra, rb, rb), default_phase_grid(),
            mode="sampled", shots_per_phase=2000, seed=1,
        )
        est = extract_visibility(run_interferometer(spec))
        assert est.stderr_v > 0.0
        exact = extract_visibility(
            run_interferometer(
                InterferometerSpec(build_u1(Q4), (ra, ra, rb, rb), default_phase_grid())
            )
        )
        assert abs(est.v - exact.v) <= 6.0 * est.stderr_v


    def test_extreme_sampled_frequencies_keep_a_variance(self):
        """A frequency of 0 or 1 is sampled, not exact: stderr_v stays > 0."""
        fr = FringeData(np.asarray(default_phase_grid(3)), np.array([1.0, 0.0, 1.0]),
                        np.ones(3, np.int64))
        assert extract_visibility(fr).stderr_v > 0.0

    def test_interior_frequencies_keep_their_binomial_variance(self):
        phases = np.asarray(default_phase_grid(8))
        shots = np.full(8, 40)
        p0 = np.array([37, 30, 18, 6, 2, 9, 21, 33]) / 40
        est = extract_visibility(FringeData(phases, p0, shots))
        # p (1 - p) / shots propagated through the least-squares solve by hand
        x = np.column_stack([np.ones(8), np.cos(phases), np.sin(phases)])
        _, c1, c2 = np.linalg.lstsq(x, p0, rcond=None)[0]
        g = np.linalg.inv(x.T @ x)
        cov = (g @ x.T @ np.diag(p0 * (1.0 - p0) / shots) @ x @ g)[1:, 1:]
        grad = 2.0 * np.array([c1, c2]) / np.hypot(c1, c2)
        assert est.stderr_v == pytest.approx(np.sqrt(grad @ cov @ grad), rel=1e-12)


class TestVisibilityEstimate:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            VisibilityEstimate(v=-0.1, alpha=0.0)
        with pytest.raises(ValueError):
            VisibilityEstimate(v=0.5, alpha=4.0)
        with pytest.raises(ValueError, match="exceeds"):
            VisibilityEstimate(v=1.2, alpha=0.0, stderr_v=0.0)

    def test_noisy_overshoot_within_three_sigma_allowed(self):
        est = VisibilityEstimate(v=1.05, alpha=0.0, stderr_v=0.02)
        assert est.v == 1.05


class TestDefaultPhaseGrid:
    def test_equally_spaced_open_interval(self):
        grid = default_phase_grid(8)
        assert len(grid) == 8
        np.testing.assert_allclose(np.diff(grid), np.pi / 4.0, atol=1e-15)
        assert grid[0] == 0.0 and grid[-1] < 2.0 * np.pi

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            default_phase_grid(2)


class TestInterferometricQuantumness:
    def test_exact_mode_matches_algebraic_q(self):
        rng = np.random.default_rng(14)
        for dim in (2, 3):
            for _ in range(25):
                ra = ginibre_state(dim, int(rng.integers(1, dim + 1)), rng)
                rb = ginibre_state(dim, int(rng.integers(1, dim + 1)), rng)
                res = interferometric_quantumness(ra, rb)
                oracle = quantumness(ra, rb)
                assert res.q_value == pytest.approx(oracle.q_value, abs=1e-9)
                assert res.v1_term == pytest.approx(oracle.v1_term, abs=1e-9)
                assert res.v2_term == pytest.approx(oracle.v2_term, abs=1e-9)
                assert res.method == "interferometer"
                assert res.stderr_q == 0.0

    def test_sampled_mode_reproducible(self):
        rng = np.random.default_rng(15)
        ra = ginibre_state(2, 2, rng)
        rb = ginibre_state(2, 2, rng)
        one = interferometric_quantumness(ra, rb, mode="sampled", shots=1000, seed=42)
        two = interferometric_quantumness(ra, rb, mode="sampled", shots=1000, seed=42)
        assert one.q_value == two.q_value
        assert one.stderr_q == two.stderr_q
        other = interferometric_quantumness(ra, rb, mode="sampled", shots=1000, seed=43)
        assert one.q_value != other.q_value

    def test_sampled_estimate_near_truth(self):
        rng = np.random.default_rng(16)
        ra = ginibre_state(2, 2, rng)
        rb = ginibre_state(2, 2, rng)
        truth = quantumness(ra, rb).q_value
        res = interferometric_quantumness(ra, rb, mode="sampled", shots=50000, seed=0)
        assert res.stderr_q > 0.0
        assert abs(res.q_value - truth) <= 6.0 * res.stderr_q

    def test_dim_mismatch_raises(self):
        with pytest.raises(LayoutError):
            interferometric_quantumness(
                DensityMatrix(np.eye(2) / 2.0), DensityMatrix(np.eye(3) / 3.0)
            )
