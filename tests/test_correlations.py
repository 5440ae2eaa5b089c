"""Conditional states, the bipartite correlation witness, and its optimizer."""

import dataclasses
import math
import types
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
    _disjoint_pairs,
    _hyperspherical_ket,
    _ket_params,
    _pair_scores,
    _param_kets,
    _refine_loss,
    _scan_points,
    _steered_states,
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
        assert np.linalg.norm(k1) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(k2) == pytest.approx(1.0, abs=1e-15)
        assert report.best_params == tuple(_ket_params(np.array([k1, k2])).tolist())
        e1 = PovmElement(np.outer(k1, k1.conj()))
        e2 = PovmElement(np.outer(k2, k2.conj()))
        assert correlation_witness(rho, e1, e2) == pytest.approx(
            report.best_q, abs=1e-10
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


# The small search the benchmark's cli-session runs: 4^2 kets, 120 pairs, 2 starts.
SMALL = OptimizerConfig(grid_points=4, starts=2, max_evals=200)


def rho4_of(rho):
    return rho.state.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)


def scan_kets(dim_a, config):
    """The kets on A that maximize_witness scans under ``config``."""
    return _hyperspherical_ket(_scan_points(dim_a, config), dim_a)


def random_ket_pairs(rng, dim_a, n):
    """n random ket pairs (n, 2, dim_a) of the search family."""
    return _hyperspherical_ket(rng.uniform(-math.pi, math.pi, size=(n, 2, 2 * dim_a - 2)), dim_a)


def report_fields(report):
    """Every DiscordReport field plus verdict, best_q and best_kets as bytes."""
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    out["best_q"] = np.float64(report.best_q).tobytes()
    out["best_kets"] = [k.tobytes() for k in report.best_kets]
    out["verdict"] = report.verdict
    return out


def unit_params(x):
    """(Re k1, Im k1, Re k2, Im k2) of x with each ket scaled to unit norm,
    as maximize_witness reports its points."""
    kets = _param_kets(np.asarray(x))
    return tuple(_ket_params(kets / np.linalg.norm(kets, axis=-1, keepdims=True)).tolist())


def record_starts(monkeypatch):
    """Wrap correlations._bfgs, the search of each refinement start, and
    return the list it fills: per start, x0, options, the points asked for
    (as bytes), the (value, gradient) pairs sent back and the result."""
    starts = []
    real_bfgs = correlations._bfgs

    def bfgs(x0, **options):
        start = types.SimpleNamespace(
            x0=np.array(x0), options=options, points=[], values=[], result=None
        )
        starts.append(start)
        run = real_bfgs(x0, **options)
        x = next(run)
        while True:
            start.points.append(x.tobytes())
            sent = yield x
            start.values.append(sent)
            try:
                x = run.send(sent)
            except StopIteration as done:
                start.result = done.value
                return done.value

    monkeypatch.setattr(correlations, "_bfgs", bfgs)
    return starts


class TestWitnessKernel:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 3)], ids=str)
    def test_batched_refine_loss_is_bitwise_one_point(self, dims):
        """The lockstep refinement scores its starts together: each value
        and gradient has the bits of a call on that point alone."""
        da, db = dims
        rng = np.random.default_rng(38)
        rho4 = rho4_of(BipartiteState(ginibre_state(da * db, da * db, rng), da, db))
        xs = rng.normal(size=(7, 4 * da))
        losses, grads = _refine_loss(rho4, xs)
        for x, f, g in zip(xs, losses, grads):
            f1, g1 = _refine_loss(rho4, x[None])
            assert f1[0].tobytes() == f.tobytes()
            assert g1[0].tobytes() == g.tobytes()

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 3)], ids=str)
    def test_gradient_matches_central_differences(self, dims):
        da, db = dims
        rng = np.random.default_rng(39)
        rho4 = rho4_of(BipartiteState(ginibre_state(da * db, da * db, rng), da, db))
        h = 1e-6
        for x in rng.normal(size=(3, 4 * da)):
            _, grad = _refine_loss(rho4, x[None])
            steps = h * np.eye(len(x))
            ahead, _ = _refine_loss(rho4, x + steps)
            behind, _ = _refine_loss(rho4, x - steps)
            central = (ahead - behind) / (2.0 * h)
            assert np.linalg.norm(central - grad[0]) <= 1e-6 * np.linalg.norm(grad[0])

    def test_matches_correlation_witness_on_the_same_kets(self):
        rng = np.random.default_rng(34)
        for rho in (
            BipartiteState(ginibre_state(4, 2, rng), 2, 2),
            BipartiteState(ginibre_state(6, 6, rng), 2, 3),
            BipartiteState(ginibre_state(6, 3, rng), 3, 2),
        ):
            kets = random_ket_pairs(rng, rho.dim_a, 20)
            values = _witness_kernel(rho4_of(rho), kets)[0]
            for (k1, k2), q in zip(kets, values):
                e1 = PovmElement(np.outer(k1, k1.conj()))
                e2 = PovmElement(np.outer(k2, k2.conj()))
                assert q == pytest.approx(correlation_witness(rho, e1, e2), abs=1e-12)

    @staticmethod
    def floor_checks(rho):
        """Scan and kernel results for the scan kets plus |1> and the unit
        ket along (1e-17, 1), which weigh at most PROB_FLOOR on rho."""
        floor = np.array([[0.0, 1.0], [1e-17, 1.0]], dtype=np.complex128)
        kets = np.concatenate([scan_kets(2, SMALL), floor / np.linalg.norm(floor, axis=1)[:, None]])
        pairs = np.stack([np.stack([kets[i], kets[-1 - i]]) for i in range(len(kets))])
        pairs = np.concatenate([pairs, kets[[-2, -1, -1, -2]].reshape(2, 2, 2)])
        dead = (np.abs(pairs[..., 0]) ** 2 <= PROB_FLOOR).any(axis=-1)
        assert dead.any() and not dead.all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = _steered_states(rho4_of(rho), kets)
            board = _pair_scores(states)
            values, grads = _witness_kernel(rho4_of(rho), pairs)
            losses, loss_grads = _refine_loss(rho4_of(rho), _ket_params(pairs[dead]))
            report = maximize_witness(rho, SMALL)
        assert np.all(states[-2:] == 0.0)
        assert np.all(board[:-2, -2:] == 0.0) and board[-2, -1] == 0.0
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(grads))
        assert np.all(values[dead] == 0.0) and np.all(grads[dead] == 0.0)
        assert np.all(losses == 0.0) and np.all(loss_grads == 0.0)
        return values, board, report

    def test_zero_weight_outcomes_score_zero_without_warnings(self):
        """On |0><0| (x) rho_B the ket |1> has outcome weight exactly 0, the
        ket along (1e-17, 1) about 1e-34, and the scan kets at least
        sin^2(pi/16). The scan steers the two into the zero matrix, so their
        pairs score 0; the kernel scores the pairs with them 0 with gradient
        0. Nothing is divided by them."""
        rng = np.random.default_rng(35)
        rho = product_state(pure_state(np.array([1.0, 0.0])), ginibre_state(2, 2, rng))
        values, board, report = self.floor_checks(rho)
        assert values.max() <= 1e-12 and board.max() <= 1e-12
        assert report.verdict == "no_violation_found"

    def test_sub_floor_outcomes_score_zero(self):
        """On (1 - w) |0><0| (x) sigma + w |1><1| (x) tau with w = 1e-13, |1>
        and the ket along (1e-17, 1) weigh about w: nonzero, yet below
        PROB_FLOOR. Steered, they would give tau, which does not commute
        with sigma, so their pairs would score well above 0. The floor, not
        a test for zero weight, makes those pairs score 0."""
        rng = np.random.default_rng(36)
        w, sigma, tau = 1e-13, ginibre_state(2, 2, rng).matrix, ginibre_state(2, 2, rng).matrix
        assert np.abs(sigma @ tau - tau @ sigma).max() > 0.1
        matrix = (1 - w) * np.kron(np.diag([1.0, 0.0]), sigma) + w * np.kron(np.diag([0.0, 1.0]), tau)
        self.floor_checks(BipartiteState(DensityMatrix(matrix), 2, 2))


def upper_pairs(n):
    return list(zip(*np.triu_indices(n, 1)))


class TestPerKetScan:
    """The scan steers each ket once and scores every pair from the stack."""

    @pytest.mark.parametrize(
        "dims, config",
        [
            ((2, 2), OptimizerConfig(grid_points=5)),
            ((2, 3), OptimizerConfig(grid_points=4)),
            ((2, 8), OptimizerConfig(grid_points=3)),
            ((3, 2), OptimizerConfig(grid_points=2)),
            ((4, 3), OptimizerConfig(grid_points=2)),
        ],
        ids=["2x2-grid-5", "2x3-grid-4", "2x8-grid-3", "3x2-grid-2", "4x3-grid-2"],
    )
    def test_every_pair_score_is_the_correlation_witness(self, dims, config):
        da, db = dims
        rho = BipartiteState(ginibre_state(da * db, da * db, np.random.default_rng(40)), da, db)
        kets = scan_kets(da, config)
        board = _pair_scores(_steered_states(rho4_of(rho), kets))
        for i, j in upper_pairs(len(kets)):
            e1, e2 = (PovmElement(np.outer(k, k.conj())) for k in kets[[i, j]])
            assert board[i, j] == pytest.approx(correlation_witness(rho, e1, e2), abs=1e-12)
        assert np.all(board[np.tri(len(kets), dtype=bool)] == -np.inf)

    @pytest.mark.parametrize("dim_a, grid", [(2, 2), (2, 12), (2, 17), (3, 3), (3, 4), (4, 2)])
    def test_scan_grid_has_no_repeated_ray(self, dim_a, grid):
        """Half-step polar angles keep every grid ket off the poles, so no two
        grid points give the same ray."""
        kets = scan_kets(dim_a, OptimizerConfig(grid_points=grid))
        assert len(kets) == grid ** (2 * dim_a - 2)
        overlap = np.abs(kets.conj() @ kets.T) ** 2
        np.fill_diagonal(overlap, 0.0)
        assert overlap.max() < 1.0 - 1e-6

    def test_pairs_above_the_cap_fall_back_to_random_kets(self, monkeypatch):
        """A grid with more pairs than SCAN_CAP is replaced by the most seeded
        random kets whose pairs fit."""
        assert len(scan_kets(2, OptimizerConfig(grid_points=17))) == 17**2  # 41,616 pairs
        for cap, n in ((correlations.SCAN_CAP, 316), (2000, 63), (1, 2)):
            monkeypatch.setattr(correlations, "SCAN_CAP", cap)
            for dim_a in (2, 3):
                kets = scan_kets(dim_a, OptimizerConfig(grid_points=18, seed=4))
                assert len(kets) == n
                assert n * (n - 1) // 2 <= cap < (n + 1) * n // 2
                assert kets.tobytes() == scan_kets(dim_a, OptimizerConfig(grid_points=18, seed=4)).tobytes()
                assert kets.tobytes() != scan_kets(dim_a, OptimizerConfig(grid_points=18, seed=5)).tobytes()

    @pytest.mark.parametrize("dim_a", [2, 3, 5])
    def test_random_kets_are_haar_distributed(self, dim_a):
        """Haar-random unit kets in C^d have squared moduli uniform on the
        simplex: each is Beta(1, d - 1), with mean 1/d and variance
        (d - 1) / (d^2 (d + 1)). Uniform polar angles would miss this (at
        d = 2 their variance is 1/8, not 1/12)."""
        weights = np.concatenate([
            np.abs(scan_kets(dim_a, OptimizerConfig(grid_points=40, seed=s))) ** 2
            for s in range(10)
        ])
        assert weights.shape == (3160, dim_a)
        var = (dim_a - 1) / (dim_a**2 * (dim_a + 1))
        assert np.abs(weights.mean(axis=0) - 1 / dim_a).max() < 0.02
        assert np.abs(weights.var(axis=0) / var - 1).max() < 0.1

    def test_pair_scoring_is_tiled(self, monkeypatch):
        """No pair product handed to the trace terms holds more than
        _SCAN_BLOCK_ENTRIES entries, whatever the scan size (a 41,616-pair
        scan at dim_b = 8 unblocked would hold 2.7M), and tiles of any size
        give the same scores to rounding."""
        rng = np.random.default_rng(37)
        rho = BipartiteState(ginibre_state(16, 16, rng), 2, 8)
        states = _steered_states(rho4_of(rho), scan_kets(2, OptimizerConfig(grid_points=17)))
        sizes = []
        real_terms = correlations._trace_terms

        def trace_terms(ab):
            sizes.append(ab.size)
            return real_terms(ab)

        monkeypatch.setattr(correlations, "_trace_terms", trace_terms)
        board = _pair_scores(states)
        assert len(sizes) > 10 and max(sizes) <= correlations._SCAN_BLOCK_ENTRIES
        upper = np.triu(np.ones(board.shape, dtype=bool), 1)
        for entries in (64 * 5, 64, 10**9):  # one row in chunks, single pairs, one tile
            monkeypatch.setattr(correlations, "_SCAN_BLOCK_ENTRIES", entries)
            sizes.clear()
            other = _pair_scores(states)
            assert max(sizes) <= max(entries, 64)
            assert np.abs(other[upper] - board[upper]).max() <= 1e-15
            assert np.all(other[~upper] == -np.inf)

    def test_disjoint_pairs_are_best_first_with_ties_to_the_first(self):
        board = np.full((5, 5), -np.inf)
        for (i, j), q in zip(upper_pairs(5), [3, 7, 1, 7, 7, 2, 0, 5, 7, 4]):
            board[i, j] = q
        # 7 at (0, 2), (0, 4), (1, 2) and (2, 4): (0, 2) goes first. Without
        # kets 0 and 2, (1, 3), (1, 4) and (3, 4) are left, and (3, 4) leads.
        assert _disjoint_pairs(board.copy(), 5) == [(0, 2), (3, 4)]
        assert _disjoint_pairs(board.copy(), 1) == [(0, 2)]

    @pytest.mark.parametrize(
        "dims, config",
        [
            ((2, 2), OptimizerConfig()),
            ((2, 3), OptimizerConfig(grid_points=3, starts=4)),
            ((3, 2), OptimizerConfig(starts=6, max_evals=300)),
            ((2, 2), OptimizerConfig(grid_points=2, starts=5)),
        ],
        ids=["2x2-default", "2x3-grid-3", "3x2-random", "2x2-four-kets"],
    )
    def test_starts_are_the_best_pairs_sharing_no_ket(self, monkeypatch, dims, config):
        """Greedy over the pairs in order of score: a pair starts a refinement
        unless it shares a ket with a better start. Four kets allow only two
        starts."""
        da, db = dims
        rho = BipartiteState(ginibre_state(da * db, da * db, np.random.default_rng(41)), da, db)
        kets = scan_kets(da, config)
        board = _pair_scores(_steered_states(rho4_of(rho), kets))
        expected, used = [], set()
        for i, j in sorted(upper_pairs(len(kets)), key=lambda p: -board[p]):
            if len(expected) < config.starts and not {i, j} & used:
                expected.append((i, j))
                used |= {i, j}
        starts = record_starts(monkeypatch)
        report = maximize_witness(rho, config)
        assert [s.x0.tobytes() for s in starts] == [
            _ket_params(kets[[i, j]]).tobytes() for i, j in expected
        ]
        assert len(starts) == min(config.starts, len(kets) // 2)
        assert report.trace[0][1] == board[expected[0]]

    @pytest.mark.parametrize("max_evals", [1, 2, 3, 9, 10, 11, 25])
    def test_max_evals_is_the_refinement_budget(self, monkeypatch, max_evals):
        """Only the best min(starts, max_evals) starts run, on max_evals // n
        evaluations each, so the refinement never spends more than max_evals."""
        starts = record_starts(monkeypatch)
        rho = BipartiteState(ginibre_state(4, 4, np.random.default_rng(42)), 2, 2)
        config = OptimizerConfig(starts=10, max_evals=max_evals)
        report = maximize_witness(rho, config)
        n = min(10, max_evals)
        assert len(starts) == n
        assert all(s.options["maxfev"] == max_evals // n for s in starts)
        spent = sum(s.result.nfev for s in starts)
        assert spent <= max_evals
        assert report.evaluations == 144 * 143 // 2 + spent

    def test_evaluations_are_scored_pairs_plus_refine_calls(self, monkeypatch):
        scanned = []

        def scan_points(dim_a, config):
            points = real_scan(dim_a, config)
            scanned.append(len(points))
            return points

        real_scan = correlations._scan_points
        monkeypatch.setattr(correlations, "_scan_points", scan_points)
        starts = record_starts(monkeypatch)
        # The 3x2 search scans 63 random kets; the EPR grid stays full.
        monkeypatch.setattr(correlations, "SCAN_CAP", 2000)
        rng = np.random.default_rng(36)
        for rho, config, kets in (
            (epr_state(), SMALL, 16),
            (BipartiteState(ginibre_state(6, 2, rng), 3, 2),
             OptimizerConfig(starts=3, max_evals=300), 63),
        ):
            scanned.clear()
            starts.clear()
            report = maximize_witness(rho, config)
            assert scanned == [kets]
            assert len(starts) == config.starts
            nfev = [start.result.nfev for start in starts]
            assert [len(start.points) for start in starts] == nfev
            assert report.evaluations == kets * (kets - 1) // 2 + sum(nfev)

    @pytest.mark.parametrize(
        "make, best_q", [(epr_state, 1.0), (separable_example_state, 1.0 / 16.0)]
    )
    def test_small_search_reaches_the_closed_form(self, monkeypatch, make, best_q):
        starts = record_starts(monkeypatch)
        report = maximize_witness(make(), SMALL)
        assert report.best_q == pytest.approx(best_q, abs=1e-12)
        assert report.evaluations == 16 * 15 // 2 + sum(start.result.nfev for start in starts)
        assert report.verdict == "quantum_correlated"


def bell_diagonal_state(c):
    """(I + sum_i c_i sigma_i (x) sigma_i) / 4, for c in the tetrahedron
    where all four Bell weights are nonnegative."""
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=np.complex128),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=np.complex128),
    )
    m = np.eye(4, dtype=np.complex128)
    for c_i, sigma in zip(c, paulis):
        m += c_i * np.kron(sigma, sigma)
    return BipartiteState(DensityMatrix(m / 4.0), 2, 2)


# The tetrahedron's vertices are the four Bell states; EPR is (1, -1, 1).
TETRAHEDRON = np.array([[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]], dtype=float)
BELL_DIAGONAL = [
    *(tuple(w @ TETRAHEDRON) for w in np.random.default_rng(8).dirichlet(np.ones(4), 10)),
    (0.3, 0.0, 0.0), (0.0, -0.7, 0.0), (0.0, 0.0, 1.0),  # classical on B
    (0.5, -0.5, 0.2), (0.4, 0.1, 0.4), (1.0, -1.0, 1.0),  # two largest |c_i| tie
]


class TestBellDiagonalFamily:
    """The steered B states fill the ellipsoid with semi-axes |c_i|, so the
    witness maximum is the squared product of the two largest |c_i| (0
    when at most one c_i is nonzero)."""

    @pytest.mark.parametrize("config", [OptimizerConfig(), SMALL], ids=["default", "small"])
    @pytest.mark.parametrize(
        "c", BELL_DIAGONAL, ids=lambda c: "c=" + ",".join(f"{x:.3f}" for x in c)
    )
    def test_search_reaches_the_closed_form(self, c, config):
        largest = sorted(np.abs(c))[::-1]
        q_max = (largest[0] * largest[1]) ** 2
        report = maximize_witness(bell_diagonal_state(c), config)
        assert report.best_q == pytest.approx(q_max, abs=1e-12)
        expected = "quantum_correlated" if q_max > 0 else "no_violation_found"
        assert report.verdict == expected


class TestMinimize:
    """The one-start driver of the BFGS refinement."""

    @staticmethod
    def rosenbrock(x):
        value = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        grad = np.array([
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ])
        return value, grad

    @pytest.mark.parametrize("maxfev", [1, 2, 3, 5, 8, 13, 21])
    def test_spends_exactly_the_budget(self, maxfev):
        calls = []

        def fun(x):
            calls.append(x.copy())
            return self.rosenbrock(x)

        res = correlations.minimize(fun, np.array([-1.2, 1.0]), maxfev=maxfev, gtol=1e-10)
        assert (res.nfev, res.status, len(calls)) == (maxfev, 1, maxfev)
        assert res.fun == min(self.rosenbrock(x)[0] for x in calls)

    def test_converges_on_a_quadratic(self):
        a = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
        center = np.array([1.0, -2.0, 0.5])

        def quadratic(x):
            d = x - center
            return float(d @ a @ d), 2.0 * a @ d

        res = correlations.minimize(quadratic, np.zeros(3), maxfev=200, gtol=1e-10)
        assert res.status == 0 and res.nfev < 50
        assert res.x == pytest.approx(center, abs=1e-8)


def sequential_search(rho, config):
    """maximize_witness as it reads with its starts refined one after
    another: ``minimize`` on the one-point loss from each start in order,
    best_q raised only by a strictly larger value. Returns the report and
    each start's result."""
    rho4 = rho4_of(rho)
    kets = scan_kets(rho.dim_a, config)
    board = _pair_scores(_steered_states(rho4, kets))
    best_q = float(board.max())
    evaluations = len(kets) * (len(kets) - 1) // 2
    pairs = _disjoint_pairs(board, min(config.starts, config.max_evals))
    best_x = _ket_params(kets[list(pairs[0])])
    trace = [(best_x, best_q)]

    def loss(x):
        nonlocal evaluations, best_q, best_x
        evaluations += 1
        f, g = _refine_loss(rho4, x[None])
        if -f[0] > best_q:
            best_q, best_x = float(-f[0]), np.array(x)
        return float(f[0]), g[0]

    maxfev = config.max_evals // len(pairs)
    results = []
    for i, j in pairs:
        res = correlations.minimize(
            loss, _ket_params(kets[[i, j]]), maxfev=maxfev, gtol=correlations.REFINE_TOL
        )
        results.append(res)
        trace.append((res.x, -res.fun))
    best_params = unit_params(best_x)
    report = DiscordReport(
        best_q=best_q,
        best_params=best_params,
        best_kets=tuple(_param_kets(np.array(best_params))),
        evaluations=evaluations,
        trace=tuple((unit_params(x), q) for x, q in trace),
    )
    return report, results


class TestLockstepRefinement:
    """maximize_witness refines all starts in lockstep, one batched kernel
    call per step, and reports exactly what the sequential search does."""

    @pytest.mark.parametrize(
        "make, config",
        [
            (epr_state, OptimizerConfig(grid_points=5, starts=3, max_evals=300)),
            (separable_example_state, OptimizerConfig(grid_points=6, starts=4, max_evals=600)),
            (lambda: BipartiteState(ginibre_state(4, 4, np.random.default_rng(50)), 2, 2),
             OptimizerConfig(grid_points=5, starts=4, max_evals=800)),
            (lambda: BipartiteState(ginibre_state(6, 6, np.random.default_rng(51)), 2, 3),
             OptimizerConfig(grid_points=5, starts=3, max_evals=600)),
            (lambda: BipartiteState(ginibre_state(6, 3, np.random.default_rng(52)), 3, 2),
             OptimizerConfig(grid_points=3, starts=4, max_evals=800)),
            (separable_example_state, OptimizerConfig(grid_points=4, starts=1, max_evals=300)),
        ],
        ids=["epr", "separable", "ginibre-2x2", "ginibre-2x3", "ginibre-3x2", "one-start"],
    )
    def test_matches_the_sequential_search(self, make, config):
        rho = make()
        report, results = sequential_search(rho, config)
        assert len(results) == config.starts
        assert report_fields(maximize_witness(rho, config)) == report_fields(report)

    def test_ties_go_to_the_first_start(self, monkeypatch):
        """Stub refinements yield preset points with preset values. The
        maximum, 5, is reached by every start, and by the later ones in
        fewer steps: best_params is still the first start's first point at
        it. Each step scores every start still running in one call."""
        rng = np.random.default_rng(53)
        a, b, c, top0, top1, top2 = (unit_params(x) for x in rng.normal(size=(6, 8)))
        paths = iter([[a, b, top0, top1], [top1], [c, top2]])
        scores = {a: 0.5, b: 0.75, c: 0.25, top0: 5.0, top1: 5.0, top2: 5.0}
        batches = []

        def loss(rho4, xs):
            batches.append(len(xs))
            return -np.array([scores[tuple(x.tolist())] for x in xs]), np.zeros_like(xs)

        def refine(x0, *, maxfev, gtol):
            path = next(paths)
            for x in path:
                f, _ = yield np.array(x)
            return correlations._Refined(x=np.array(path[-1]), fun=f, nfev=len(path), status=0)

        monkeypatch.setattr(correlations, "_refine_loss", loss)
        monkeypatch.setattr(correlations, "_bfgs", refine)
        report = maximize_witness(epr_state(), OptimizerConfig(grid_points=4, starts=3))
        assert report.best_q == 5.0 and report.best_params == unit_params(top0)
        assert batches == [3, 2, 1, 1]
        assert report.evaluations == 16 * 15 // 2 + 4 + 1 + 2
        assert [q for _, q in report.trace[1:]] == [5.0, 5.0, 5.0]

    def test_starts_leave_the_lockstep_at_different_steps(self):
        """Some starts converge while others spend their budget, so the
        batch shrinks step by step."""
        rho = BipartiteState(ginibre_state(4, 4, np.random.default_rng(50)), 2, 2)
        config = OptimizerConfig(grid_points=6, starts=7, max_evals=105)
        report, results = sequential_search(rho, config)
        assert {res.status for res in results} == {0, 1}
        assert len({res.nfev for res in results}) > 2
        assert report_fields(maximize_witness(rho, config)) == report_fields(report)
