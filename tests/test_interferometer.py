"""Permutation unitaries, cycle-trace expectations, fringe simulation and fits."""

import itertools
import re
import warnings

import numpy as np
import pytest

import qwitness.interferometer as interferometer
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

# The message of every phase grid the fit cannot use.
UNFITTABLE = r"^phase grid cannot be fitted: .* needs numerical rank 3$"

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

    def test_cycles_partition_the_slots_and_follow_mapping(self):
        for mapping in itertools.permutations(range(5)):
            cycles = PermutationUnitary(RegisterLayout((2,) * 5), mapping).cycles()
            assert sorted(s for cycle in cycles for s in cycle) == list(range(5))
            for cycle in cycles:
                for s, nxt in zip(cycle, cycle[1:] + cycle[:1]):
                    assert mapping[s] == nxt

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

    @pytest.mark.parametrize(
        "mapping, bad",
        # int() made the swap (1, 0, 2, 3) of the first two.
        [((1.9, 0, 2, 3), "1.9"), ((1.0, 0, 2, 3), "1.0"), ((True, False, 2, 3), "True"),
         ((0, 1, 2, "3"), "'3'")],
    )
    def test_slots_follow_the_integer_rule(self, mapping, bad):
        with pytest.raises(ValueError, match=re.escape(f"mapping slot must be an integer, got {bad}")):
            PermutationUnitary(Q4, mapping)

    def test_numpy_integer_slots_stored_as_python_ints(self):
        perm = PermutationUnitary(Q4, np.array([1, 0, 2, 3]))
        assert perm.mapping == (1, 0, 2, 3)
        assert {type(s) for s in perm.mapping} == {int}

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

    @pytest.mark.parametrize(
        "i, j, name, bad", [(0.0, 1.9, "i", 0.0), (0, 1.9, "j", 1.9), (True, 0, "i", True),
                            (1, np.float64(0.0), "j", np.float64(0.0))]
    )
    def test_swap_indices_must_be_integers(self, i, j, name, bad):
        message = f"{name} must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generalized_swap(i, j, Q2)

    def test_swap_takes_numpy_integer_indices(self):
        assert generalized_swap(np.int64(0), np.int64(1), Q2).mapping == (1, 0)

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

    def test_two_phases_rejected(self):
        with pytest.raises(ValueError, match=UNFITTABLE):
            InterferometerSpec(build_u1(Q4), self._inputs(), (0.0, 1.0))

    def test_phases_distinct_only_mod_2pi_rejected(self):
        # 0 and 2 pi are the same interference setting
        with pytest.raises(ValueError, match=UNFITTABLE):
            InterferometerSpec(
                build_u1(Q4), self._inputs(), (0.0, 1.0, 2.0 * np.pi)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected(self, bad, capfd):
        # Rejected before the fit basis evaluates cos and sin, which warn on inf.
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

    def test_input_of_the_wrong_dim_rejected(self):
        inputs = (*self._inputs()[:3], DensityMatrix(np.eye(3) / 3.0))
        with pytest.raises(LayoutError, match="^input 3 has dim 3, layout expects 2$"):
            InterferometerSpec(build_u1(Q4), inputs, default_phase_grid())

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            # 2.5 shots drew binomial(2, p) and divided by 2.5.
            ("shots_per_phase", 2.5, "shots_per_phase must be an integer"),
            ("shots_per_phase", True, "shots_per_phase must be an integer"),
            # numpy's binomial draw takes an int64 count.
            ("shots_per_phase", 2**63,
             f"shots_per_phase must be an integer <= {2**63 - 1}, got {2**63}"),
            # 1.5 silently became seed 1; -1 failed mid-run in numpy.
            ("seed", 1.5, "seed must be a 64-bit unsigned integer"),
            ("seed", -1, "seed must be a 64-bit unsigned integer"),
            ("seed", 2**64, "seed must be a 64-bit unsigned integer"),
            ("seed", False, "seed must be a 64-bit unsigned integer"),
        ],
    )
    def test_shots_and_seed_must_be_integers_at_construction(self, field, bad, message):
        kwargs = {"mode": "sampled", "shots_per_phase": 2, "seed": 0, field: bad}
        with pytest.raises(ValueError, match=message):
            InterferometerSpec(build_u1(Q4), self._inputs(), default_phase_grid(), **kwargs)

    @pytest.mark.parametrize(
        "mode, shots, message",
        [
            # The exact run ignored these counts and recorded shots 0.
            ("exact", -5, "exact mode needs shots_per_phase 0, got -5"),
            ("exact", 5, "exact mode needs shots_per_phase 0, got 5"),
            ("exact", np.int64(1), "exact mode needs shots_per_phase 0, got 1"),
            ("sampled", 0, "sampled mode needs shots_per_phase >= 1"),
            ("sampled", -5, "sampled mode needs shots_per_phase >= 1"),
        ],
    )
    def test_shot_count_must_fit_the_mode(self, mode, shots, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            InterferometerSpec(build_u1(Q4), self._inputs(), default_phase_grid(),
                               mode=mode, shots_per_phase=shots)

    def test_largest_seed_and_numpy_integers_accepted(self):
        spec = InterferometerSpec(build_u1(Q4), self._inputs(), default_phase_grid(),
                                  mode="sampled", shots_per_phase=np.int64(3),
                                  seed=np.uint64(2**64 - 1))
        assert np.all(run_interferometer(spec).shots == 3)

    def test_numpy_integer_settings_stored_as_python_ints(self):
        spec = InterferometerSpec(build_u1(Q4), self._inputs(), default_phase_grid(),
                                  mode="sampled", shots_per_phase=np.int64(3),
                                  seed=np.uint64(2**64 - 1))
        assert (type(spec.shots_per_phase), type(spec.seed)) == (int, int)

    def test_largest_shot_count_accepted(self):
        spec = InterferometerSpec(build_u1(Q4), self._inputs(), default_phase_grid(),
                                  mode="sampled", shots_per_phase=2**63 - 1)
        assert np.all(run_interferometer(spec).shots == 2**63 - 1)


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

    @pytest.mark.parametrize("build", [build_u1, build_u2])
    def test_sampled_grid_at_the_cli_ceiling_is_one_draw(self, build):
        """All 2^16 phases of the CLI's largest grid are drawn as one binomial
        from one generator seeded by the spec's seed."""
        rng = np.random.default_rng(11)
        ra, rb = ginibre_state(2, 2, rng), ginibre_state(2, 1, rng)
        spec = InterferometerSpec(build(Q4), (ra, ra, rb, rb), default_phase_grid(2**16),
                                  mode="sampled", shots_per_phase=1000, seed=1)
        fringes = run_interferometer(spec)
        phases, p0, counts = reference_fringes(spec)
        assert fringes.phases.tobytes() == phases.tobytes()
        assert fringes.p0.tobytes() == p0.tobytes()
        assert fringes.shots.tobytes() == counts.tobytes()


class TestFringeData:
    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FringeData(np.array([0.0, 1.0, 2.0]), np.array([0.1, 1.2, 0.3]),
                       np.zeros(3, dtype=np.int64))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FringeData(np.array([0.0, 1.0]), np.array([0.5]), np.zeros(1, np.int64))

    @pytest.mark.parametrize(
        "shots",
        # Read as exact, truncated to 1, an OverflowError, and three more
        # that are not integer counts.
        [[-5] * 8, [1.7] * 8, [2**70] * 8, [True] * 8, [2.0] * 8,
         np.full(8, 2**63, np.uint64)],
        ids=["negative", "fraction", "beyond-int64", "bool", "integral-float", "uint64"],
    )
    def test_shots_follow_the_integer_rule(self, shots):
        phases = np.asarray(default_phase_grid(8))
        with pytest.raises(ValueError, match=r"^shots must be integers in \[0, "):
            FringeData(phases, np.full(8, 0.5), shots)

    @pytest.mark.parametrize("shots", [[0] * 8, [2**63 - 1] * 8, np.full(8, 7, np.uint8)])
    def test_integer_shot_counts_accepted(self, shots):
        fr = FringeData(np.asarray(default_phase_grid(8)), np.full(8, 0.5), shots)
        assert fr.shots.dtype == np.int64
        assert fr.shots.tolist() == np.asarray(shots).tolist()

    def test_freezes_copies_of_the_callers_arrays(self):
        ph, p0, shots = np.linspace(0.0, 6.0, 8), np.full(8, 0.5), np.zeros(8, np.int64)
        fr = FringeData(ph, p0, shots)
        ph[0], p0[0], shots[0] = 1.0, 0.25, 3
        assert (fr.phases[0], fr.p0[0], fr.shots[0]) == (0.0, 0.5, 0)
        for arr in (fr.phases, fr.p0, fr.shots):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

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
        with pytest.raises(ValueError, match=UNFITTABLE):
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

    @pytest.mark.parametrize("v, stderr_v", [(np.nan, 0.0), (0.5, np.nan)])
    def test_nan_rejected(self, v, stderr_v):
        with pytest.raises(ValueError, match="nonnegative"):
            VisibilityEstimate(v=v, alpha=0.0, stderr_v=stderr_v)

    def test_infinite_stderr_rejected(self):
        """An infinite stderr would make the overshoot bound pass any v."""
        with pytest.raises(ValueError, match="finite"):
            VisibilityEstimate(v=7.0, alpha=0.0, stderr_v=float("inf"))

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

    @pytest.mark.parametrize("n", [3.5, 8.0, np.float64(8.0), True, "8"])
    def test_size_must_be_an_integer(self, n):
        """Neither a float nor a bool (read as 1) is a grid size."""
        message = f"n_phases must be an integer, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            default_phase_grid(n)

    def test_numpy_integer_size(self):
        assert default_phase_grid(np.int64(8)) == default_phase_grid(8)


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"shots": 2.5}, "shots must be an integer"),
            ({"shots": True}, "shots must be an integer"),
            # Passed every check, then numpy's binomial draw raised
            # OverflowError partway through the run.
            ({"shots": 2**63}, f"shots must be an integer <= {2**63 - 1}, got {2**63}"),
            ({"seed": 1.5}, "seed must be a 64-bit unsigned integer"),
            ({"seed": -1}, "seed must be a 64-bit unsigned integer"),
            ({"seed": 2**64}, "seed must be a 64-bit unsigned integer"),
        ],
    )
    def test_shots_and_seed_checked_before_the_seed_is_split(self, kwargs, message):
        rho = DensityMatrix(np.eye(2) / 2.0)
        args = {"mode": "sampled", "shots": 10, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=message):
            interferometric_quantumness(rho, rho, **args)

    @pytest.mark.parametrize(
        "mode, shots, message",
        [
            # The exact run returned Q and ignored the count.
            ("exact", -7, "exact mode needs shots_per_phase 0, got -7"),
            ("exact", 7, "exact mode needs shots_per_phase 0, got 7"),
            ("sampled", 0, "sampled mode needs shots_per_phase >= 1"),
            ("sampled", -7, "sampled mode needs shots_per_phase >= 1"),
        ],
    )
    def test_shot_count_must_fit_the_mode_before_any_run(self, mode, shots, message,
                                                         monkeypatch):
        def no_run(spec):
            raise AssertionError("ran an experiment")

        monkeypatch.setattr(interferometer, "run_interferometer", no_run)
        rho = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            interferometric_quantumness(rho, rho, mode=mode, shots=shots, seed=0)

    def test_largest_shot_count_accepted(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        res = interferometric_quantumness(rho, rho, mode="sampled", shots=2**63 - 1, seed=0)
        assert np.isfinite(res.q_value)


def reference_fringes(spec):
    """run_interferometer by its formulas, each evaluated per call."""
    z = permutation_expectation(spec.unitary, list(spec.inputs))
    phases = np.asarray(spec.phases, dtype=np.float64)
    model = np.clip(0.5 * (1.0 + (np.exp(1j * phases) * z).real), 0.0, 1.0)
    if spec.mode == "exact":
        return phases, model, np.zeros(len(phases), dtype=np.int64)
    n = spec.shots_per_phase
    freqs = np.random.default_rng(spec.seed).binomial(n, model) / n
    return phases, freqs, np.full(len(phases), n, dtype=np.int64)


def reference_fit(phases, p0, shots):
    """extract_visibility by its formulas, each evaluated per call:
    (v, alpha, stderr_v)."""
    assert len(np.unique(np.round(np.mod(phases, 2.0 * np.pi), 12))) >= 3
    design = np.column_stack([np.ones(len(phases)), np.cos(phases), np.sin(phases)])
    solve = np.linalg.pinv(design)
    _, c1, c2 = solve @ p0
    r = float(np.hypot(c1, c2))
    alpha = float(np.arctan2(-c2, c1))
    if alpha <= -np.pi:
        alpha = np.pi
    stderr_v = 0.0
    if np.any(shots > 0):
        var = np.zeros(len(phases))
        n = shots[shots > 0]
        p = np.clip(p0[shots > 0], 0.5 / n, 1.0 - 0.5 / n)
        var[shots > 0] = p * (1.0 - p) / n
        cc = (solve[1:] * var) @ solve[1:].T
        if r > 1e-15:
            grad = 2.0 * np.array([c1, c2]) / r
            stderr_v = float(np.sqrt(max(grad @ cc @ grad, 0.0)))
        else:
            stderr_v = float(2.0 * np.sqrt(max(np.trace(cc), 0.0)))
    return 2.0 * r, alpha, stderr_v


def bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


def clear_setting_caches():
    for cache in SETTING_CACHES:
        cache.cache_clear()


SETTING_CACHES = (
    interferometer.build_u1, interferometer.build_u2,
    interferometer.default_phase_grid, interferometer._fit_basis,
)
GRIDS = {
    "default": lambda: default_phase_grid(),
    "3": lambda: default_phase_grid(3),
    "5": lambda: default_phase_grid(5),
    "16": lambda: default_phase_grid(16),
    "non-uniform": lambda: (-0.0, 0.4, 1.1, 1.15, 2.9, 4.0 + 2.0 * np.pi, -1.3),
}


class TestSettingCaches:
    """Setting-only data (cascades, phase grids, fit bases) is built
    once and shared; every output keeps the bits of a per-call evaluation."""

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("dim", [2, 3, 5, 16])
    def test_cold_and_warm_runs_bitwise_equal_per_call_formulas(self, dim, mode, grid):
        rng = np.random.default_rng([17, dim])
        ra = ginibre_state(dim, dim, rng)
        rb = ginibre_state(dim, 1 + dim // 2, rng)
        shots = 250 if mode == "sampled" else 0
        clear_setting_caches()
        for _ in ("cold", "warm"):
            for build in (build_u1, build_u2):
                layout = RegisterLayout((dim,) * 4)
                spec = InterferometerSpec(build(layout), (ra, ra, rb, rb), GRIDS[grid](),
                                          mode=mode, shots_per_phase=shots, seed=5)
                fringes = run_interferometer(spec)
                phases, p0, counts = reference_fringes(spec)
                assert fringes.phases.tobytes() == phases.tobytes()
                assert fringes.p0.tobytes() == p0.tobytes()
                assert fringes.shots.tobytes() == counts.tobytes()
                est = extract_visibility(fringes)
                assert bits(est.v, est.alpha, est.stderr_v) == bits(
                    *reference_fit(phases, p0, counts))

    @pytest.mark.parametrize("mode, shots", [("exact", 0), ("sampled", 400)])
    @pytest.mark.parametrize("dim", [2, 3, 5, 16])
    def test_interferometric_quantumness_bitwise_cold_and_warm(self, dim, mode, shots):
        rng = np.random.default_rng([18, dim])
        ra, rb = ginibre_state(dim, 2, rng), ginibre_state(dim, dim, rng)
        sub_seeds = np.random.SeedSequence(9).generate_state(2, np.uint64)
        v = []
        for build, sub_seed in zip((build_u1, build_u2), sub_seeds):
            spec = InterferometerSpec(build(RegisterLayout((dim,) * 4)), (ra, ra, rb, rb),
                                      default_phase_grid(), mode, shots, int(sub_seed))
            v.append(reference_fit(*reference_fringes(spec)))
        (v1, _, se1), (v2, _, se2) = v
        expected = bits(4.0 * (v1 - v2), v1, v2, 4.0 * float(np.hypot(se1, se2)))
        clear_setting_caches()
        for _ in ("cold", "warm"):
            res = interferometric_quantumness(ra, rb, mode=mode, shots=shots, seed=9)
            assert bits(res.q_value, res.v1_term, res.v2_term, res.stderr_q) == expected

    @pytest.mark.parametrize(
        "phases",
        [(0.0, -0.0, 2.0 * np.pi, 1.0), (0.5, 0.5, 0.5 + 2 * np.pi), (1e-13, 0.0, 3.0),
         (0.0, 1e-11, 2e-11), (-np.pi, np.pi, 3 * np.pi, 0.1), default_phase_grid(1024),
         (0.0, 1e-7, 2e-7), (0.0, 1.0), (), default_phase_grid(3),
         default_phase_grid(2**16)],
        ids=["two-points", "one-point", "1e-13-apart", "1e-11-apart", "pi-wraps",
             "1024", "1e-7-apart", "two-phases", "empty", "cli-floor-3",
             "cli-ceiling-2^16"],
    )
    def test_grid_fits_iff_its_design_has_numerical_rank_3(self, phases):
        """One rule, the fit basis's: a grid is fitted iff np.linalg.matrix_rank
        gives its design rank 3, and then the fit's operator has the bits of
        np.linalg.pinv. A rank-3 grid may still be ill-conditioned: three
        phases 1e-7 apart have cond ~8e14."""
        phases = np.array(phases, dtype=np.float64)
        design = np.column_stack([np.ones(len(phases)), np.cos(phases), np.sin(phases)])
        if np.linalg.matrix_rank(design) == 3:
            solve = interferometer._fit_basis(phases.tobytes()).solve
            assert solve.tobytes() == np.linalg.pinv(design).tobytes()
        else:
            with pytest.raises(ValueError, match=UNFITTABLE):
                interferometer._fit_basis(phases.tobytes())

    def test_shared_arrays_are_read_only(self):
        rng = np.random.default_rng(19)
        ra = ginibre_state(3, 3, rng)
        spec = InterferometerSpec(build_u1(RegisterLayout((3,) * 4)), (ra,) * 4,
                                  default_phase_grid(), mode="sampled", shots_per_phase=9)
        fringes = run_interferometer(spec)
        extract_visibility(fringes)
        basis = interferometer._fit_basis(fringes.phases.tobytes())
        for arr in (fringes.phases, basis.phases, basis.rotors, basis.solve):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_cycles_returns_a_new_list_each_call(self):
        perm = build_u2(Q4)
        first = perm.cycles()
        first.append((9,))
        again = perm.cycles()
        assert again is not first
        assert len(again) == 1 and len(again[0]) == 4

    def test_each_cache_keeps_its_fixed_size(self):
        clear_setting_caches()
        for n in range(3, 3 + 3 * interferometer._GRIDS_CACHED):
            fr = FringeData(np.asarray(default_phase_grid(n)), np.full(n, 0.5),
                            np.ones(n, np.int64))
            extract_visibility(fr)
        for d in range(1, 2 + interferometer._LAYOUTS_CACHED):
            for build in (build_u1, build_u2):
                build(RegisterLayout((d,) * 4))
        for cache in SETTING_CACHES:
            info = cache.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize, cache

    @pytest.mark.parametrize(
        "phases", [(0.0, 1e-11, 2e-11), (0.5, 0.5, 0.5 + 2 * np.pi), ()],
        ids=["1e-11-apart", "one-point", "empty"],
    )
    def test_unfittable_grid_refused_by_spec_and_both_fits_on_every_call(self, phases):
        """cos rounds to 1.0 on three phases 1e-11 apart, so the design's
        first two columns are equal; the exact fit returned an arbitrary v
        with stderr_v 0. A failed grid is not cached, so it raises again."""
        inputs = (DensityMatrix(np.eye(2) / 2.0),) * 4
        n = len(phases)
        for _ in range(2):
            with pytest.raises(ValueError, match=UNFITTABLE):
                InterferometerSpec(build_u1(Q4), inputs, phases)
            for shots in (0, 10):
                fr = FringeData(np.array(phases, dtype=np.float64), np.full(n, 0.5),
                                np.full(n, shots, np.int64))
                with pytest.raises(ValueError, match=UNFITTABLE):
                    extract_visibility(fr)
