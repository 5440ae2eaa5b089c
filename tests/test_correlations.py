"""Conditional states, the bipartite correlation witness, and its optimizer."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import qwitness.correlations as correlations
from qwitness.correlations import (
    PROB_FLOOR,
    BipartiteState,
    ConditionalState,
    CqSpec,
    DiscordReport,
    MeasurementAngles,
    OptimizerConfig,
    PovmElement,
    ZeroProbabilityError,
    build_cq_state,
    conditional_state,
    correlation_witness,
    epr_state,
    maximize_witness,
    projector_pair,
    separable_example_state,
)
from qwitness.correlations import (
    _hyperspherical_ket,
    _qubit_kets,
    _scan_points,
    _scan_values,
    _witness_kernel,
)
from qwitness.qcore import (
    DensityMatrix,
    LayoutError,
    RegisterLayout,
    ginibre_state,
    partial_trace,
    pure_state,
    tensor_product,
)

P0 = np.array([[1.0, 0.0], [0.0, 0.0]])
P1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def product_state(rho_a, rho_b):
    dm = DensityMatrix(tensor_product(rho_a, rho_b))
    return BipartiteState(dm, rho_a.dim, rho_b.dim)


def random_cq_spec(rng, dim_a, dim_b, terms):
    """Random CQ ingredients: full-rank A states, exact orthonormal B kets."""
    probs = rng.dirichlet(np.ones(terms))
    a_states = tuple(ginibre_state(dim_a, dim_a, rng) for _ in range(terms))
    g = rng.normal(size=(dim_b, dim_b)) + 1j * rng.normal(size=(dim_b, dim_b))
    basis, _ = np.linalg.qr(g)
    return CqSpec(tuple(probs), a_states, tuple(basis[:, i] for i in range(terms)))


class TestTypes:
    def test_bipartite_split_must_factor_total_dim(self):
        dm = DensityMatrix(np.eye(4) / 4.0)
        assert BipartiteState(dm, 2, 2).dim_b == 2
        with pytest.raises(LayoutError, match="does not match"):
            BipartiteState(dm, 2, 3)
        with pytest.raises(LayoutError):
            BipartiteState(dm, 0, 4)

    def test_povm_element_hermiticity_and_psd(self):
        assert PovmElement(P0).dim == 2
        with pytest.raises(ValueError, match="Hermitian"):
            PovmElement(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="PSD"):
            PovmElement(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_measurement_angles_must_be_finite(self):
        MeasurementAngles(100.0, -3.0)  # periodic, any finite value is legal
        with pytest.raises(ValueError):
            MeasurementAngles(float("nan"), 0.0)
        with pytest.raises(ValueError):
            MeasurementAngles(0.0, float("inf"))

    def test_conditional_state_floor_coupling(self):
        dm = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="iff"):
            ConditionalState(0.5, None)
        with pytest.raises(ValueError, match="iff"):
            ConditionalState(PROB_FLOOR / 10.0, dm)
        assert ConditionalState(PROB_FLOOR / 10.0, None).state is None
        with pytest.raises(ValueError, match="outside"):
            ConditionalState(1.5, dm)

    def test_conditional_probability_clipped_to_unit_interval(self):
        dm = DensityMatrix(np.eye(2) / 2.0)
        assert ConditionalState(1.0 + 1e-12, dm).probability == 1.0
        assert ConditionalState(-1e-12, None).probability == 0.0

    def test_optimizer_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grid_points=1)
        with pytest.raises(ValueError):
            OptimizerConfig(starts=0)

    def test_discord_report_verdict_at_the_threshold(self):
        def report(best_q):
            kets = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            return DiscordReport(
                best_q=best_q, best_params=(0.0,), best_kets=kets,
                evaluations=1, trace=(),
            )

        assert report(1e-8).threshold == 1e-8
        assert report(1e-8).verdict == "no_violation_found"
        assert report(np.nextafter(1e-8, 1)).verdict == "quantum_correlated"


class TestCqSpec:
    def test_probs_must_sum_to_one(self):
        dm = DensityMatrix(np.eye(2) / 2.0)
        kets = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="sum to 1"):
            CqSpec((0.5, 0.4), (dm, dm), kets)

    def test_basis_must_be_orthonormal(self):
        dm = DensityMatrix(np.eye(2) / 2.0)
        skewed = (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2.0))
        with pytest.raises(ValueError, match="orthonormal"):
            CqSpec((0.5, 0.5), (dm, dm), skewed)

    def test_length_mismatch_rejected(self):
        dm = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError, match="equal nonzero length"):
            CqSpec((1.0,), (dm, dm), (np.array([1.0, 0.0]),))

    def test_too_many_terms_for_dim_b(self):
        dm = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(LayoutError, match="cannot fit"):
            CqSpec(
                (0.5, 0.5, 0.0), (dm, dm, dm),
                (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])),
            )

    def test_a_state_dims_must_agree(self):
        with pytest.raises(LayoutError, match="share one dimension"):
            CqSpec(
                (0.5, 0.5),
                (DensityMatrix(np.eye(2) / 2.0), DensityMatrix(np.eye(3) / 3.0)),
                (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            )


class TestConditionalState:
    def test_epr_conditioned_on_computational_projector(self):
        """Measuring |0><0| on half of (|00> + |11>)/sqrt(2) leaves |0><0|
        with probability 1/2."""
        cond = conditional_state(epr_state(), PovmElement(P0))
        assert cond.probability == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(cond.state.matrix, P0, atol=1e-12)

    def test_product_state_conditionals_ignore_the_measurement(self):
        rng = np.random.default_rng(21)
        ra = ginibre_state(2, 2, rng)
        rb = ginibre_state(3, 2, rng)
        rho = product_state(ra, rb)
        for _ in range(5):
            t, f = rng.uniform(0, np.pi, size=2)
            e1, e2 = projector_pair(MeasurementAngles(t, f))
            for e in (e1, e2):
                cond = conditional_state(rho, e)
                np.testing.assert_allclose(cond.state.matrix, rb.matrix, atol=1e-12)

    def test_complete_projector_pair_probabilities_sum_to_one(self):
        # phi = pi/2 makes the second projector the orthogonal complement
        e1, e2 = projector_pair(MeasurementAngles(0.7, np.pi / 2.0))
        rho = epr_state()
        p = conditional_state(rho, e1).probability + conditional_state(rho, e2).probability
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_returns_none_state(self):
        rho = product_state(DensityMatrix(P0), DensityMatrix(np.eye(2) / 2.0))
        cond = conditional_state(rho, PovmElement(P1))
        assert cond.state is None
        assert cond.probability == 0.0

    def test_element_dim_checked(self):
        with pytest.raises(LayoutError, match="does not match dim_a"):
            conditional_state(epr_state(), PovmElement(np.eye(3) / 3.0))


class TestProjectorPair:
    def test_theta_zero_gives_computational_projector(self):
        e1, _ = projector_pair(MeasurementAngles(0.0, 0.3))
        np.testing.assert_allclose(e1.op, P0, atol=1e-15)

    def test_phi_zero_collapses_the_pair(self):
        e1, e2 = projector_pair(MeasurementAngles(0.4, 0.0))
        np.testing.assert_allclose(e1.op, e2.op, atol=1e-15)

    def test_projectors_are_rank_one_idempotents(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            t, f = rng.uniform(0, 2 * np.pi, size=2)
            for e in projector_pair(MeasurementAngles(t, f)):
                np.testing.assert_allclose(e.op @ e.op, e.op, atol=1e-12)
                assert np.trace(e.op).real == pytest.approx(1.0, abs=1e-12)

    def test_second_projector_angle_offset(self):
        """psi2 sits at angle theta - phi in the real plane."""
        t, f = 0.9, 0.35
        _, e2 = projector_pair(MeasurementAngles(t, f))
        psi = np.array([math.cos(t - f), math.sin(t - f)])
        np.testing.assert_allclose(e2.op, np.outer(psi, psi), atol=1e-12)


class TestExampleStates:
    def test_epr_marginals_are_maximally_mixed(self):
        rho = epr_state()
        layout = RegisterLayout((2, 2))
        for keep in ((0,), (1,)):
            np.testing.assert_allclose(
                partial_trace(rho.state, layout, keep).matrix,
                np.eye(2) / 2.0, atol=1e-12,
            )

    def test_separable_example_matches_hand_built_mixture(self):
        zero = np.array([1.0, 0.0])
        one = np.array([0.0, 1.0])
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        total = np.zeros((4, 4), dtype=complex)
        for a, b in ((zero, plus), (one, minus), (plus, one), (minus, zero)):
            total += 0.25 * np.kron(np.outer(a, a), np.outer(b, b))
        np.testing.assert_allclose(
            separable_example_state().state.matrix, total, atol=1e-12
        )


class TestCorrelationWitness:
    def test_epr_closed_form(self):
        """On the maximally entangled pair the witness is sin^2(2 phi) for
        every theta."""
        rho = epr_state()
        for theta in (0.0, 0.3, 1.1):
            for phi in (0.1, 0.45, np.pi / 4.0, 1.3):
                e1, e2 = projector_pair(MeasurementAngles(theta, phi))
                q = correlation_witness(rho, e1, e2)
                assert q == pytest.approx(math.sin(2 * phi) ** 2, abs=1e-12)

    def test_separable_example_closed_form(self):
        """The zero-entanglement example reaches sin^2(2 phi) / 16, again
        independent of theta."""
        rho = separable_example_state()
        for theta in (0.0, 0.52, 1.4):
            for phi in (0.2, np.pi / 4.0, 0.9):
                e1, e2 = projector_pair(MeasurementAngles(theta, phi))
                q = correlation_witness(rho, e1, e2)
                assert q == pytest.approx(math.sin(2 * phi) ** 2 / 16.0, abs=1e-12)

    def test_symmetric_in_the_two_elements(self):
        rng = np.random.default_rng(23)
        rho = BipartiteState(ginibre_state(4, 4, rng), 2, 2)
        e1, e2 = projector_pair(MeasurementAngles(0.6, 0.8))
        assert correlation_witness(rho, e1, e2) == pytest.approx(
            correlation_witness(rho, e2, e1), abs=1e-12
        )

    def test_same_element_gives_zero(self):
        rng = np.random.default_rng(24)
        rho = BipartiteState(ginibre_state(4, 4, rng), 2, 2)
        e1, _ = projector_pair(MeasurementAngles(0.3, 0.0))
        assert correlation_witness(rho, e1, e1) <= 1e-12

    def test_zero_probability_raises_with_position(self):
        rho = product_state(DensityMatrix(P0), DensityMatrix(np.eye(2) / 2.0))
        ok, dead = PovmElement(P0), PovmElement(P1)
        with pytest.raises(ZeroProbabilityError, match="first") as info:
            correlation_witness(rho, dead, ok)
        assert info.value.which == "first"
        with pytest.raises(ZeroProbabilityError, match="second") as info:
            correlation_witness(rho, ok, dead)
        assert info.value.probability <= PROB_FLOOR

    def test_product_states_score_zero_everywhere(self):
        rng = np.random.default_rng(25)
        rho = product_state(ginibre_state(2, 2, rng), ginibre_state(2, 2, rng))
        for _ in range(20):
            t, f = rng.uniform(0, np.pi, size=2)
            e1, e2 = projector_pair(MeasurementAngles(t, f))
            assert correlation_witness(rho, e1, e2) <= 1e-12


class TestBuildCqState:
    def test_single_term_is_a_product(self):
        rng = np.random.default_rng(26)
        ra = ginibre_state(2, 2, rng)
        spec = CqSpec((1.0,), (ra,), (np.array([0.0, 1.0, 0.0]),))
        rho = build_cq_state(spec)
        assert (rho.dim_a, rho.dim_b) == (2, 3)
        expected = tensor_product(ra.matrix, np.diag([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(rho.state.matrix, expected, atol=1e-12)

    def test_witness_vanishes_on_cq_states(self):
        """Conditional B states of a CQ state share the b_basis eigenbasis,
        so every element pair commutes and the witness is zero."""
        rng = np.random.default_rng(27)
        for dim_b in (2, 3):
            rho = build_cq_state(random_cq_spec(rng, 2, dim_b, 2))
            for _ in range(25):
                t, f = rng.uniform(0, np.pi, size=2)
                e1, e2 = projector_pair(MeasurementAngles(t, f))
                assert correlation_witness(rho, e1, e2) <= 1e-10


class TestMaximizeWitness:
    def test_epr_reaches_the_global_maximum(self):
        report = maximize_witness(epr_state())
        assert report.best_q >= 0.999
        assert report.verdict == "quantum_correlated"
        assert report.evaluations >= len(report.trace)

    def test_separable_example_reaches_one_sixteenth(self):
        report = maximize_witness(separable_example_state())
        assert 0.9 / 16.0 <= report.best_q <= 1.0 / 16.0 + 1e-6
        assert report.verdict == "quantum_correlated"

    def test_product_state_reports_no_violation(self):
        rng = np.random.default_rng(28)
        rho = product_state(ginibre_state(2, 2, rng), ginibre_state(2, 2, rng))
        report = maximize_witness(rho)
        assert report.best_q <= 1e-8
        assert report.verdict == "no_violation_found"

    def test_deterministic_for_fixed_config(self):
        rng = np.random.default_rng(29)
        rho = BipartiteState(ginibre_state(4, 3, rng), 2, 2)
        cfg = OptimizerConfig(grid_points=6, starts=2, max_evals=400, seed=5)
        a, b = maximize_witness(rho, cfg), maximize_witness(rho, cfg)
        assert a.best_q == b.best_q
        assert a.best_params == b.best_params
        assert a.evaluations == b.evaluations
        assert a.trace == b.trace

    def test_best_kets_reproduce_best_q(self):
        """Feeding the winning kets back through the public witness gives
        the reported optimum."""
        rng = np.random.default_rng(30)
        rho = BipartiteState(ginibre_state(4, 2, rng), 2, 2)
        report = maximize_witness(
            rho, OptimizerConfig(grid_points=6, starts=2, max_evals=400)
        )
        k1, k2 = report.best_kets
        e1 = PovmElement(np.outer(k1, k1.conj()))
        e2 = PovmElement(np.outer(k2, k2.conj()))
        assert correlation_witness(rho, e1, e2) == pytest.approx(
            report.best_q, abs=1e-9
        )

    def test_trace_values_never_exceed_best(self):
        rng = np.random.default_rng(31)
        rho = BipartiteState(ginibre_state(4, 4, rng), 2, 2)
        report = maximize_witness(
            rho, OptimizerConfig(grid_points=6, starts=3, max_evals=300)
        )
        assert len(report.trace) == 1 + 3
        assert all(q <= report.best_q + 1e-12 for _, q in report.trace)

    def test_higher_dimensional_a_entangled(self):
        """dim_a = 3 exercises the hyperspherical parametrization; a
        maximally entangled 3x2 pure state reaches q = 1."""
        ket = np.zeros(6)
        ket[0] = ket[3] = 1.0 / math.sqrt(2.0)
        rho = BipartiteState(pure_state(ket), 3, 2)
        report = maximize_witness(rho, OptimizerConfig(seed=0))
        assert report.best_q >= 0.99
        assert report.verdict == "quantum_correlated"

    def test_higher_dimensional_a_product_is_null(self):
        rng = np.random.default_rng(32)
        rho = product_state(ginibre_state(3, 3, rng), ginibre_state(2, 2, rng))
        report = maximize_witness(rho, OptimizerConfig(seed=0))
        assert report.best_q <= 1e-8
        assert report.verdict == "no_violation_found"

    def test_dim_a_one_rejected(self):
        dm = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(LayoutError, match="dim_a"):
            maximize_witness(BipartiteState(dm, 1, 2))


# The small search the benchmark's cli-session runs: 4^4 scan points, 2 starts.
SMALL = OptimizerConfig(grid_points=4, starts=2, max_evals=200)
QUBIT_AXES = [(0.0, math.pi / 2.0, False), (0.0, 2.0 * math.pi, True)] * 2


def rho4_of(rho):
    return rho.state.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)


def qutrit_kets(points):
    """Ket pairs of the dim_a = 3 search family, as maximize_witness builds them."""
    return _hyperspherical_ket(points.reshape(points.shape[:-1] + (2, -1)), 3)


class TestWitnessKernel:
    def test_batched_scan_is_bitwise_the_single_point_objective(self, monkeypatch):
        """The scan's one stacked evaluation and the refinement's one-point
        calls share arithmetic, so every scan value matches bit for bit."""
        rng = np.random.default_rng(33)
        rho = BipartiteState(ginibre_state(6, 3, rng), 2, 3)
        points = _scan_points(QUBIT_AXES, OptimizerConfig())
        assert points.shape == (12**4, 4)
        batched = _witness_kernel(rho4_of(rho), _qubit_kets(points))
        single = [_witness_kernel(rho4_of(rho), _qubit_kets(p)) for p in points]
        assert batched.tobytes() == np.array(single).tobytes()

        rho = BipartiteState(ginibre_state(6, 4, rng), 3, 2)
        axes = ([(0.0, math.pi / 2.0, False)] * 2 + [(0.0, 2.0 * math.pi, True)] * 2) * 2
        monkeypatch.setattr(correlations, "SCAN_CAP", 3000)
        points = _scan_points(axes, OptimizerConfig(seed=9))
        assert points.shape == (3000, 8)
        batched = _witness_kernel(rho4_of(rho), qutrit_kets(points))
        single = [_witness_kernel(rho4_of(rho), qutrit_kets(p)) for p in points]
        assert batched.tobytes() == np.array(single).tobytes()

    def test_blocked_scan_is_bitwise_one_kernel_call(self, monkeypatch):
        """A 2x8 default-config scan runs in many blocks; its values and its
        report match the unblocked scan bit for bit."""
        rng = np.random.default_rng(37)
        rho = BipartiteState(ginibre_state(16, 16, rng), 2, 8)
        points = _scan_points(QUBIT_AXES, OptimizerConfig())
        assert len(points) > 2 * (correlations._SCAN_BLOCK_ENTRIES // 8**2)
        blocked = _scan_values(rho4_of(rho), _qubit_kets, points)
        whole = _witness_kernel(rho4_of(rho), _qubit_kets(points))
        assert blocked.tobytes() == whole.tobytes()

        def fields(report):
            out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
            out["best_kets"] = [k.tobytes() for k in report.best_kets]
            return out

        report = maximize_witness(rho)
        monkeypatch.setattr(correlations, "_SCAN_BLOCK_ENTRIES", len(points) * 8**2)
        assert fields(report) == fields(maximize_witness(rho))

    def test_matches_correlation_witness_on_the_same_kets(self):
        rng = np.random.default_rng(34)
        cases = (
            (BipartiteState(ginibre_state(4, 2, rng), 2, 2), _qubit_kets, 4),
            (BipartiteState(ginibre_state(6, 6, rng), 2, 3), _qubit_kets, 4),
            (BipartiteState(ginibre_state(6, 3, rng), 3, 2), qutrit_kets, 8),
        )
        for rho, kets_of, n_params in cases:
            for x in rng.uniform(-math.pi, math.pi, size=(20, n_params)):
                k1, k2 = kets_of(x)
                e1 = PovmElement(np.outer(k1, k1.conj()))
                e2 = PovmElement(np.outer(k2, k2.conj()))
                q = _witness_kernel(rho4_of(rho), kets_of(x))
                assert q == pytest.approx(correlation_witness(rho, e1, e2), abs=1e-12)

    def test_zero_weight_outcomes_score_zero_without_warnings(self):
        """On |0><0| (x) rho_B, grid kets near |1> give outcome weight ~1e-33
        and the pairs below weight exactly 0; all score 0 and are never
        divided by."""
        rng = np.random.default_rng(35)
        rho = product_state(pure_state(np.array([1.0, 0.0])), ginibre_state(2, 2, rng))
        points = _scan_points(QUBIT_AXES, SMALL)
        exact = np.array([[[0, 1], [1, 0]], [[1, 0], [0, 1]]], dtype=np.complex128)
        kets = np.concatenate([_qubit_kets(points), exact])
        dead = (np.abs(kets[..., 0]) ** 2 <= PROB_FLOOR).any(axis=-1)
        assert dead.any() and not dead.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _witness_kernel(rho4_of(rho), kets)
            single = [_witness_kernel(rho4_of(rho), k) for k in kets[dead]]
            report = maximize_witness(rho, SMALL)
        assert np.all(np.isfinite(values))
        assert np.all(values[dead] == 0.0) and single == [0.0] * int(dead.sum())
        assert values.max() <= 1e-12
        assert report.verdict == "no_violation_found"

    def test_evaluations_are_scan_points_plus_refine_calls(self, monkeypatch):
        scanned, nfev = [], []

        def scan_points(axes_span, config):
            points = real_scan(axes_span, config)
            scanned.append(len(points))
            return points

        def minimize(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        real_scan, real_minimize = correlations._scan_points, correlations.minimize
        monkeypatch.setattr(correlations, "_scan_points", scan_points)
        monkeypatch.setattr(correlations, "minimize", minimize)
        # The 3x2 search scans 2000 random points; the EPR grid stays full.
        monkeypatch.setattr(correlations, "SCAN_CAP", 2000)
        rng = np.random.default_rng(36)
        for rho, config in (
            (epr_state(), SMALL),
            (BipartiteState(ginibre_state(6, 2, rng), 3, 2),
             OptimizerConfig(starts=3, max_evals=300)),
        ):
            scanned.clear()
            nfev.clear()
            report = maximize_witness(rho, config)
            assert len(nfev) == config.starts
            assert report.evaluations == scanned[0] + sum(nfev)

    @pytest.mark.parametrize(
        "make, best_q",
        [(epr_state, 0.9999999993926598), (separable_example_state, 0.06249999185038768)],
    )
    def test_small_search_results_are_pinned(self, make, best_q):
        report = maximize_witness(make(), SMALL)
        assert report.best_q == pytest.approx(best_q, abs=1e-12)
        assert report.evaluations == 4**4 + 200
        assert report.verdict == "quantum_correlated"


def assert_matches_scipy(fun, x0, **options):
    """correlations.minimize and scipy's Nelder-Mead under the same options
    call ``fun`` at the same points and return bitwise-equal results."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    ours_calls, ref_calls = [], []

    def recording(calls):
        def wrapped(x):
            calls.append(x.tobytes())
            return fun(x)
        return wrapped

    ours = correlations.minimize(recording(ours_calls), x0, **options)
    ref = scipy_optimize.minimize(
        recording(ref_calls), x0, method="Nelder-Mead", options=options
    )
    assert ours_calls == ref_calls
    assert ours.x.tobytes() == ref.x.tobytes()
    assert np.float64(ours.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert (ours.nfev, ours.nit, ours.status) == (ref.nfev, ref.nit, ref.status)
    return ours


class TestNelderMead:
    """The in-package simplex search is scipy's Nelder-Mead, bit for bit."""

    @pytest.mark.parametrize(
        "make, config, scan_cap",
        [
            (epr_state, SMALL, correlations.SCAN_CAP),
            (separable_example_state, OptimizerConfig(grid_points=6, starts=3),
             correlations.SCAN_CAP),
            (lambda: BipartiteState(ginibre_state(4, 3, np.random.default_rng(40)), 2, 2),
             OptimizerConfig(grid_points=6, starts=4, max_evals=400), correlations.SCAN_CAP),
            # Eight calls per start: the 9-vertex initial simplex runs out.
            (lambda: BipartiteState(ginibre_state(6, 2, np.random.default_rng(41)), 3, 2),
             OptimizerConfig(starts=5, max_evals=40), 500),
        ],
        ids=["epr", "separable", "ginibre-2x2", "ginibre-3x2-short-budget"],
    )
    def test_witness_loss_from_every_start(self, monkeypatch, make, config, scan_cap):
        starts = []
        real_minimize = correlations.minimize

        def minimize(fun, x0, **options):
            starts.append((fun, np.array(x0), options))
            return real_minimize(fun, x0, **options)

        monkeypatch.setattr(correlations, "SCAN_CAP", scan_cap)
        monkeypatch.setattr(correlations, "minimize", minimize)
        maximize_witness(make(), config)
        monkeypatch.undo()
        assert len(starts) == config.starts
        for fun, x0, options in starts:
            assert_matches_scipy(fun, x0, **options)

    @pytest.mark.parametrize("maxfev", range(5, 41))
    def test_flat_witness_loss_of_a_product_state(self, maxfev):
        """Most points score exactly 0 here, so the vertex order after each
        sort hangs on argsort's order of ties."""
        rng = np.random.default_rng(28)
        rho = product_state(ginibre_state(2, 2, rng), ginibre_state(2, 2, rng))

        def loss(x):
            return -_witness_kernel(rho4_of(rho), _qubit_kets(x))

        x0 = np.array([0.0, math.pi / 2.0, math.pi / 4.0, 0.0])
        assert_matches_scipy(loss, x0, maxfev=maxfev, xatol=1e-10, fatol=1e-10)

    def test_budget_spent_inside_a_shrink_step(self):
        """On a constant objective every iteration reflects, contracts
        inside and shrinks: 1 + 1 + 4 calls after the 5 initial ones. A
        budget of 9 stops at the second shrink call, in the first iteration."""
        res = assert_matches_scipy(
            lambda x: 0.0, np.array([0.3, 0.0, 1.0, 2.0]),
            maxfev=9, xatol=1e-10, fatol=1e-10,
        )
        assert (res.nfev, res.nit, res.status) == (9, 1, 1)

    def test_converges_on_a_quadratic_that_overwrites_its_argument(self):
        """The objective gets a copy: writing into it leaves the simplex alone."""
        def quadratic(x):
            value = float(np.sum((x - np.array([1.0, -2.0])) ** 2))
            x[:] = np.nan
            return value

        res = assert_matches_scipy(
            quadratic, np.array([0.0, 0.0]), maxfev=2000, xatol=1e-10, fatol=1e-10
        )
        assert res.status == 0
        assert res.x == pytest.approx([1.0, -2.0], abs=1e-9)
