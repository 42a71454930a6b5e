import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nigt_lab.core import NORM_FLOOR, RngStream, TrajectoryRecord
from nigt_lab.errors import (
    InvalidGBound,
    InvalidInput,
    NonFiniteGradient,
    PartitionMismatch,
)
from nigt_lab.harness import RunConfig, run
from nigt_lab.optimizers import (
    LayerPartition,
    Schedule,
    SelfTuning,
    StepState,
    apply_schedule,
    blockwise_move,
    full_partition,
    normalized_move,
    plain_move,
    transport_step,
)
from nigt_lab.problems import (
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
    taylor_remainder,
)

QUAD_11 = make_noisy_quadratic(2, [1.0, 1.0], 0.0, w1=[1.0, 0.0])


def fixed(g):
    """Oracle stub that returns one fixed sample wherever it is queried."""
    g = np.asarray(g, dtype=np.float64)
    return lambda x: g


def oracle(pb, rng):
    """The problem's sampling oracle on one stream."""
    return lambda x: pb.sample_grad(x, rng)


def start(w1, m=None) -> StepState:
    w1 = np.asarray(w1, dtype=np.float64)
    return StepState(w=w1, w_prev=w1, m=np.zeros(w1.size) if m is None else m)


def transport(s, pb, rng, eta, beta, move=normalized_move) -> StepState:
    """The nigt coefficients: k = beta/(1-beta), alpha = 1 - beta; the
    first step passes beta = 0, which makes m the first sample."""
    return transport_step(s, oracle(pb, rng), eta, beta / (1.0 - beta), beta, 1.0 - beta, move)[0]


def self_tuning_step(s, tuner, pb, rng, rng_paired):
    """One step of the self-tuning method, composed as the runner does;
    returns the new state and the step's alpha."""
    eta, alpha = tuner.rates(s.t)
    out, x, g = transport_step(s, oracle(pb, rng), eta, (1.0 - alpha) / alpha, 1.0 - alpha, alpha, normalized_move)
    tuner.accumulate(s.t, g, pb.sample_grad(x, rng_paired))
    return out, alpha


def step_length_tol(w, eta):
    # ulp budget at the iterate's own scale: the stored w_{t+1} quantizes at
    # spacing(||w||), which dominates spacing(eta) whenever ||w|| >> eta
    d = np.asarray(w).size
    return 8.0 * (np.spacing(eta) + math.sqrt(d) * np.spacing(float(np.linalg.norm(w)) + eta))


class TestNsgdmStep:
    def test_no_momentum_reduces_to_normalized_sgd(self):
        s = StepState(w=np.zeros(2), w_prev=np.zeros(2), m=np.array([9.0, -9.0]))
        out, _, _ = transport_step(s, fixed([3.0, 4.0]), 0.1, 0.0, 0.0, 1.0, normalized_move)
        np.testing.assert_allclose(out.w, [-0.06, -0.08], rtol=0, atol=1e-16)
        np.testing.assert_array_equal(out.m, [3.0, 4.0])  # beta=0 keeps the sample exactly

    def test_collinear_step_length_exact(self):
        s = StepState(w=np.array([1.0, 0.0]), w_prev=np.array([1.0, 0.0]), m=np.array([1.0, 0.0]), t=3)
        out, _, _ = transport_step(s, fixed([1.0, 0.0]), 0.5, 0.0, 0.7, 1.0 - 0.7, normalized_move)
        np.testing.assert_array_equal(out.w, [0.5, 0.0])
        assert float(np.linalg.norm(out.w - s.w)) == 0.5

    @settings(deadline=None, derandomize=True, database=None, max_examples=150)
    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(
        *(st.lists(st.floats(-b, b), min_size=d, max_size=d).map(np.array) for b in (100.0, 1e3, 1e3)),
        st.floats(1e-6, 10.0), st.floats(0.0, 0.99))))
    def test_every_normalized_step_has_length_eta(self, case):
        w, m, g, eta, beta = case
        out, _, _ = transport_step(StepState(w, w, m), fixed(g),
                                   eta, 0.0, beta, 1.0 - beta, normalized_move)
        assume(np.linalg.norm(out.m) > NORM_FLOOR)  # else a recorded no-move
        assert not out.no_move
        length = float(np.linalg.norm(out.w - w))
        assert length == pytest.approx(eta, rel=1e-12, abs=1e-13 * float(np.linalg.norm(w)))

    @settings(deadline=None, derandomize=True, database=None, max_examples=100)
    @given(st.integers(1, 6).flatmap(lambda d: st.lists(st.tuples(
        *(st.lists(st.floats(-b, b), min_size=d, max_size=d) for b in (100.0, 1e3, 1e3)),
        st.sampled_from([0, -160, -200, 160, 200]), st.floats(1e-6, 10.0)), min_size=1, max_size=5)),
        st.floats(0.0, 0.99))
    def test_every_row_of_a_batch_moves_eta(self, rows, beta):
        # momenta inside and outside the squarable range (1e-150, 1e150) in one batch
        w, m, g = (np.array([r[i] for r in rows]) for i in range(3))
        scale = np.array([[10.0 ** r[3]] for r in rows])
        m, g = m * scale, g * scale
        eta = np.array([[r[4]] for r in rows])
        out, _, _ = transport_step(StepState(w, w, m), fixed(g), eta, 0.0, beta, 1.0 - beta, normalized_move)
        for i in range(len(rows)):
            alone, _, _ = transport_step(StepState(w[i], w[i], m[i]), fixed(g[i]), eta[i, 0], 0.0, beta, 1.0 - beta,
                                         normalized_move)
            assert out.w[i].tobytes() == alone.w.tobytes() and bool(out.no_move[i]) == bool(alone.no_move)
            if not out.no_move[i]:
                length = float(np.linalg.norm(out.w[i] - w[i]))
                assert length == pytest.approx(eta[i, 0], rel=1e-12, abs=1e-13 * float(np.linalg.norm(w[i])))

    def test_singular_momentum_is_no_move(self):
        s = start([1.0, 2.0])
        out, _, _ = transport_step(s, fixed([0.0, 0.0]), 0.1, 0.0, 0.5, 0.5, normalized_move)
        assert out.no_move
        np.testing.assert_array_equal(out.w, s.w)

    def test_rejects_nonfinite_gradient(self):
        s = start(np.zeros(2))
        with pytest.raises(NonFiniteGradient):
            transport_step(s, fixed([np.nan, 0.0]), 0.1, 0.0, 0.0, 1.0, normalized_move)

    def test_rejects_bad_beta(self):
        cfg = RunConfig(problem=make_sign_noise(0.25), optimizer_id="nsgdm", T=1, seeds=(1,), eta=0.1, beta=1.0)
        with pytest.raises(InvalidInput):
            run(cfg)


class TestIgtExtrapolate:
    @staticmethod
    def query_point(w, w_prev, beta):
        s = StepState(w=np.asarray(w, dtype=np.float64), w_prev=np.asarray(w_prev, dtype=np.float64),
                      m=np.zeros(len(w)))
        return transport_step(s, fixed(np.ones(len(w))), 0.0, beta / (1.0 - beta),
                              beta, 1.0 - beta, plain_move)[1]

    def test_beta_09(self):
        assert self.query_point([1.0], [0.0], 0.9)[0] == pytest.approx(10.0, rel=1e-12)

    def test_beta_zero_is_identity(self):
        np.testing.assert_array_equal(self.query_point([2.0, 3.0], [0.0, 0.0], 0.0), [2.0, 3.0])

    def test_sample_count_schedule_multiplier(self):
        # beta_t = t/(t+1) at t=3 gives multiplier 3: x = 2 + 3*(2-1) = 5
        t = 3
        beta_t = t / (t + 1)
        assert self.query_point([2.0], [1.0], beta_t)[0] == pytest.approx(5.0, rel=1e-12)


class TestNigt:
    def test_init_hand_values(self):
        pb = make_noisy_quadratic(1, [1.0], 0.0, w1=[2.0])
        s = transport(start(pb.w1), pb, RngStream(0), 0.5, 0.0)
        np.testing.assert_array_equal(s.m, [2.0])
        np.testing.assert_array_equal(s.w, [1.5])
        np.testing.assert_array_equal(s.w_prev, [2.0])
        assert s.t == 2 and not s.no_move

    def test_init_at_critical_point_logs_no_move(self):
        pb = make_trig_bowl(1, 1.0, 1.0, 0.0, w1=[0.0])  # gradient sin(0) = 0
        s = transport(start(pb.w1), pb, RngStream(0), 0.1, 0.0)
        assert s.no_move
        np.testing.assert_array_equal(s.w, [0.0])

    def test_one_step_after_init_moves_exactly_eta(self):
        s = transport(start(QUAD_11.w1), QUAD_11, RngStream(0), 0.1, 0.0)
        np.testing.assert_allclose(s.w, [0.9, 0.0], atol=1e-16)
        out = transport(s, QUAD_11, RngStream(0), 0.1, 0.5)
        np.testing.assert_allclose(out.w, [0.8, 0.0], atol=1e-15)
        assert abs(np.linalg.norm(out.w - s.w) - 0.1) <= step_length_tol(s.w, 0.1)

    def test_unit_step_length_generic(self):
        pb = make_trig_bowl(4, 1.0, 1.0, 0.5)
        rng = RngStream(5)
        s = transport(start(pb.w1), pb, rng, 0.05, 0.0)
        prev_w = pb.w1
        for _ in range(200):
            prev_w = s.w
            s = transport(s, pb, rng, 0.05, 0.9)
            if not s.no_move:
                assert abs(np.linalg.norm(s.w - prev_w) - 0.05) <= step_length_tol(prev_w, 0.05)

    def test_momentum_error_recursion_constant_hessian(self):
        # with a constant Hessian the transported momentum error contracts as
        # err_{t+1} = (1-alpha) err_t + alpha eps_{t+1} exactly
        pb = make_noisy_quadratic(3, [1.0, 2.0, 4.0], 1.0, w1=[1.0, -1.0, 2.0])
        rng = RngStream(77)
        beta = 0.9
        alpha = 1.0 - beta
        eta = 0.05
        s = transport(start(pb.w1), pb, rng, eta, 0.0)
        err = s.m - pb.exact_grad(s.w_prev)  # m_1 - gradF(w_1)
        for _ in range(100):
            nxt, x_next, g = transport_step(s, oracle(pb, rng), eta, beta / (1.0 - beta), beta, alpha, normalized_move)
            eps_next = g - pb.exact_grad(x_next)
            predicted = (1.0 - alpha) * err + alpha * eps_next
            actual = nxt.m - pb.exact_grad(s.w)  # anchored at the pre-move iterate
            np.testing.assert_allclose(actual, predicted, atol=1e-10)
            err = actual
            s = nxt

    def test_momentum_error_recursion_with_curvature_terms(self):
        # slowly drifting Hessian: same identity plus two second-order
        # remainder corrections, checked to finite-difference slack
        pb = make_trig_bowl(3, 1.0, 1.0, 0.3)
        rng = RngStream(78)
        beta = 0.8
        alpha = 1.0 - beta
        eta = 0.02
        s = transport(start(pb.w1), pb, rng, eta, 0.0)
        err = s.m - pb.exact_grad(s.w_prev)  # anchored at the pre-move iterate
        for _ in range(60):
            nxt, x_t, g = transport_step(s, oracle(pb, rng), eta, beta / (1.0 - beta), beta, alpha, normalized_move)
            eps_t = g - pb.exact_grad(x_t)
            z_step = taylor_remainder(pb, s.w_prev, s.w)
            z_extrap = taylor_remainder(pb, x_t, s.w)
            predicted = (1.0 - alpha) * (err + z_step) + alpha * (z_extrap + eps_t)
            actual = nxt.m - pb.exact_grad(s.w)
            np.testing.assert_allclose(actual, predicted, atol=1e-8)
            err = actual
            s = nxt


class TestAdaptive:
    def test_constants_for_unit_bound(self):
        # re-derived from the closed forms: C = sqrt(7/26), D = C^{-14/3},
        # G_1 = 3 + D, eta_0 = C / D^{2/7}
        s = SelfTuning(1.0)
        assert s.C == pytest.approx(0.5188745216627708, rel=1e-12)
        assert s.D == pytest.approx(21.365302783188163, rel=1e-12)
        assert s.G == pytest.approx(24.365302783188163, rel=1e-12)
        assert s.eta_prev == pytest.approx(0.21634430830677104, rel=1e-12)
        # five-significant-digit contract on the derived values
        assert s.C == pytest.approx(0.51887, rel=1e-4)
        assert s.D == pytest.approx(21.365, rel=1e-4)
        assert s.eta_prev == pytest.approx(0.21634, rel=1e-4)

    def test_defining_identities_within_ulps(self):
        for gb in (1.0, 0.5, 2.8660254037844384):
            s = SelfTuning(gb)
            lhs = s.C**2 * gb ** (6.0 / 7.0)
            assert abs(lhs - 7.0 / 26.0) <= 4 * np.spacing(7.0 / 26.0)
            # D^{3/7} = C^{-2}, the identity that pins alpha_1 = 1
            assert abs(s.D ** (3.0 / 7.0) - s.C**-2) <= 4 * np.spacing(s.C**-2)

    def test_invalid_g_bound(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidGBound):
                SelfTuning(bad)

    def test_first_alpha_is_one(self):
        pb = make_trig_bowl(2, 1.0, 1.0, 0.5)
        tuner = SelfTuning(pb.g_bound)
        _, alpha = self_tuning_step(start(pb.w1), tuner, pb, RngStream(1, 0), RngStream(1, 1))
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert not tuner.events

    def test_zero_noise_increments_equal_drift(self):
        pb = make_trig_bowl(2, 1.0, 1.0, 0.0)
        tuner = SelfTuning(pb.g_bound)
        s = start(pb.w1)
        gb2 = pb.g_bound**2
        for t in range(1, 50):
            s, _ = self_tuning_step(s, tuner, pb, RngStream(2, 0), RngStream(2, 1))
            drift = gb2 * ((t + 1) ** 0.25 - t**0.25)
            assert tuner.delta == pytest.approx(drift, rel=1e-12)
            assert not tuner.events

    def test_accounting_identity(self):
        # G_{T+1} = D + 2 g^2 + g^2 (T+1)^{1/4} + sum of squared paired diffs
        pb = make_trig_bowl(2, 1.0, 1.0, 0.4)
        tuner = SelfTuning(pb.g_bound)
        s = start(pb.w1)
        rng, rng2 = RngStream(3, 0), RngStream(3, 1)
        sum_sq = 0.0
        T = 200
        for t in range(1, T + 1):
            before = tuner.G
            drift = pb.g_bound**2 * ((t + 1) ** 0.25 - t**0.25)
            s, _ = self_tuning_step(s, tuner, pb, rng, rng2)
            sum_sq += (tuner.G - before) - drift
        expected = tuner.D + 2 * pb.g_bound**2 + pb.g_bound**2 * (T + 1) ** 0.25 + sum_sq
        assert tuner.G == pytest.approx(expected, rel=1e-10)

    def test_invariants_hold_over_long_run(self):
        pb = make_trig_bowl(2, 1.0, 1.0, 0.5)
        tuner = SelfTuning(pb.g_bound)
        s = start(pb.w1)
        rng, rng2 = RngStream(4, 0), RngStream(4, 1)
        for t in range(1, 500):
            prev_eta = tuner.eta_prev
            prev_G = tuner.G
            s, alpha = self_tuning_step(s, tuner, pb, rng, rng2)
            assert not tuner.events
            assert alpha <= 1.0 + 1e-12
            assert tuner.eta_prev <= prev_eta * (1 + 1e-12)
            assert tuner.G >= prev_G
            assert tuner.G_prev >= pb.g_bound**2 * t**0.25 * (1 - 1e-12)

    def test_corrupted_accumulator_trips_alpha_violation(self):
        pb = make_trig_bowl(2, 1.0, 1.0, 0.5)
        tuner = SelfTuning(pb.g_bound)
        tuner.G_prev = tuner.D / 1000.0
        self_tuning_step(start(pb.w1), tuner, pb, RngStream(5, 0), RngStream(5, 1))
        kinds = {e.kind for e in tuner.events}
        assert "alpha_above_one" in kinds
        assert tuner.events[0].t == 1

    def test_understated_g_bound_trips_increment_cap(self):
        # declared bound far below the true gradient scale: the paired-sample
        # squared difference exceeds 4 g^2 + drift
        pb = make_trig_bowl(2, 1.0, 1.0, 0.5)
        tuner = SelfTuning(0.01)
        s = start(pb.w1)
        rng, rng2 = RngStream(6, 0), RngStream(6, 1)
        kinds = set()
        for _ in range(50):
            s, _ = self_tuning_step(s, tuner, pb, rng, rng2)
            kinds |= {e.kind for e in tuner.events}
        assert "g_increment_above_bound" in kinds


class TestBaselines:
    def test_sgd_step(self):
        s = start(np.zeros(2))
        out, _, _ = transport_step(s, fixed([1.0, 0.0]), 0.1, 0.0, 0.0, 1.0, plain_move)
        np.testing.assert_allclose(out.w, [-0.1, 0.0], atol=1e-16)

    def test_heavy_ball_beta_zero_equals_sgd(self):
        s = StepState(w=np.array([1.0, 1.0]), w_prev=np.array([1.0, 1.0]), m=np.array([5.0, 5.0]), t=2)
        g = np.array([0.5, -0.25])
        np.testing.assert_array_equal(
            transport_step(s, fixed(g), 0.2, 0.0, 0.0, 1.0, plain_move)[0].w, s.w - 0.2 * g
        )

    def test_heavy_ball_pure_momentum(self):
        s = StepState(w=np.zeros(2), w_prev=np.zeros(2), m=np.array([1.0, 0.0]), t=2)
        out, _, _ = transport_step(s, fixed([0.0, 0.0]), 1.0, 0.0, 0.5, 0.5, plain_move)
        np.testing.assert_allclose(out.w, [-0.5, 0.0], atol=1e-16)


class TestMomentumHull:
    def test_sign_noise_momentum_stays_in_sample_hull(self):
        pb = make_sign_noise(0.25)
        rng = RngStream(31)
        m = pb.sample_grad(pb.w1, rng)
        s = StepState(w=pb.w1, w_prev=pb.w1, m=m, t=2)
        for _ in range(2000):
            s, _, _ = transport_step(s, oracle(pb, rng), 0.01, 0.0, 0.9, 1.0 - 0.9, normalized_move)
            assert -0.75 <= s.m[0] <= 0.25


class TestSchedules:
    def test_linear_decay_midpoint(self):
        sch = Schedule(kind="warmup_poly_decay", power=1)
        assert apply_schedule(sch, 50, 100, 1.0) == pytest.approx(0.5)

    def test_quadratic_decay_endpoint_is_zero(self):
        sch = Schedule(kind="warmup_poly_decay", power=2)
        assert apply_schedule(sch, 100, 100, 1.0) == 0.0

    def test_warmup_ramp(self):
        sch = Schedule(kind="warmup_poly_decay", warmup_steps=10, power=1)
        assert apply_schedule(sch, 5, 100, 1.0) == pytest.approx(0.5)

    def test_continuity_at_warmup_boundary(self):
        base = 0.37
        for p in (1, 2):
            sch = Schedule(kind="warmup_poly_decay", warmup_steps=10, power=p)
            ramp_end = apply_schedule(sch, 10, 100, base)
            just_after = apply_schedule(sch, 11, 100, base)
            assert abs(ramp_end - base) <= 1e-12 * base
            # one step later the decay has barely moved
            assert abs(just_after - base) <= base * (1.5 * p / 90 + 1e-12)

    def test_positive_before_horizon(self):
        sch = Schedule(kind="warmup_poly_decay", warmup_steps=3, power=2)
        for t in range(1, 100):
            assert apply_schedule(sch, t, 100, 0.1) > 0.0

    def test_weight_norm_scaling(self):
        sch = Schedule(kind="constant", weight_norm_scaling=True)
        assert apply_schedule(sch, 1, 10, 0.1, w_layer_norm=2.0) == pytest.approx(0.2)
        # floored for vanishing weights
        assert apply_schedule(sch, 1, 10, 0.1, w_layer_norm=0.0) == pytest.approx(0.1 * 1e-8)
        # skipped when no norm is supplied
        assert apply_schedule(sch, 1, 10, 0.1) == 0.1

    def test_validation(self):
        with pytest.raises(InvalidInput):
            Schedule(kind="warmup_poly_decay", power=3)
        with pytest.raises(InvalidInput):
            apply_schedule(Schedule(), 0, 10, 0.1)


class TestLayerwise:
    def test_partition_validation(self):
        with pytest.raises(PartitionMismatch):
            LayerPartition(ranges=((0, 2), (3, 4)), lr_scale=(1.0, 1.0)).validate_cover(4)
        with pytest.raises(PartitionMismatch):
            LayerPartition(ranges=((0, 2),), lr_scale=(1.0,)).validate_cover(4)
        with pytest.raises(PartitionMismatch):
            LayerPartition(ranges=((0, 2), (2, 4)), lr_scale=(1.0,))
        LayerPartition(ranges=((0, 2), (2, 4)), lr_scale=(1.0, 2.0)).validate_cover(4)

    def test_single_layer_matches_global_step(self):
        pb = make_trig_bowl(4, 1.0, 1.0, 0.5)
        blocks = blockwise_move(full_partition(4))
        a = transport(start(pb.w1), pb, RngStream(40), 0.05, 0.0)
        b = transport(start(pb.w1), pb, RngStream(40), 0.05, 0.0, blocks)
        np.testing.assert_array_equal(a.w, b.w)
        for _ in range(20):
            a = transport(a, pb, RngStream(41, a.t), 0.05, 0.9)
            b = transport(b, pb, RngStream(41, b.t), 0.05, 0.9, blocks)
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.m, b.m)

    def test_momentum_confined_to_one_layer(self):
        # gradient lives in block 1 only: block 2 no-moves, block 1 moves eta
        pb = make_noisy_quadratic(4, [1.0, 1.0, 1.0, 1.0], 0.0, w1=[1.0, 0.5, 0.0, 0.0])
        part = LayerPartition(ranges=((0, 2), (2, 4)), lr_scale=(1.0, 1.0))
        s = transport(start(pb.w1), pb, RngStream(42), 0.05, 0.0, blockwise_move(part))
        assert s.no_move  # block 2 had zero gradient
        np.testing.assert_array_equal(s.w[2:], [0.0, 0.0])
        assert np.linalg.norm(s.w[:2] - pb.w1[:2]) == pytest.approx(0.05, abs=1e-15)

    def test_per_layer_step_lengths_and_scales(self):
        pb = make_trig_bowl(4, 1.0, 1.0, 0.3)
        part = LayerPartition(ranges=((0, 2), (2, 4)), lr_scale=(1.0, 3.0))
        blocks = blockwise_move(part)
        s = transport(start(pb.w1), pb, RngStream(43), 0.02, 0.0, blocks)
        for _ in range(30):
            prev = s.w
            s = transport(s, pb, RngStream(44, s.t), 0.02, 0.9, blocks)
            if s.no_move:
                continue
            for (lo, hi), scale in zip(part.ranges, part.lr_scale):
                eta_layer = 0.02 * scale
                got = float(np.linalg.norm(s.w[lo:hi] - prev[lo:hi]))
                assert abs(got - eta_layer) <= step_length_tol(prev[lo:hi], eta_layer)


class TestBetaZeroDegeneracy:
    @settings(deadline=None, derandomize=True, database=None, max_examples=25)
    @given(st.sampled_from(["noisy_quadratic", "sign_noise", "trig_bowl", "streaming_least_squares"]),
           st.lists(st.integers(0, 2**32), min_size=1, max_size=3, unique=True),
           st.floats(1e-4, 0.5), st.integers(1, 40))
    def test_momentum_methods_at_beta_zero_are_memoryless_property(self, kind, seeds, eta, T):
        # with beta = 0 the momentum is the latest sample and the transport
        # point is w itself: nsgdm and nigt are the same run, heavy ball is sgd
        pb = {"noisy_quadratic": lambda: make_noisy_quadratic(3, [1.0, 2.0, 3.0], 0.5),
              "sign_noise": lambda: make_sign_noise(0.25),
              "trig_bowl": lambda: make_trig_bowl(3, 1.0, 1.0, 0.5),
              "streaming_least_squares": lambda: make_streaming_least_squares(3, [1.0, 2.0, 3.0], 0.5)}[kind]()
        for a_id, b_id in (("nsgdm", "nigt"), ("heavy_ball", "sgd")):
            a, b = (run(RunConfig(problem=pb, optimizer_id=o, T=T, seeds=tuple(seeds), eta=eta, beta=0.0))
                    for o in (a_id, b_id))
            for ra, rb in zip(a, b):
                for name in TrajectoryRecord.COLUMNS + ("no_move", "final_w"):
                    ca, cb = getattr(ra, name), getattr(rb, name)
                    assert (ca is None and cb is None) or ca.tobytes() == cb.tobytes(), (a_id, name)
                assert ra.max_displacement == rb.max_displacement


    def test_nsgdm_nigt_and_reference_agree_bitwise(self):
        pb = make_trig_bowl(3, 1.0, 1.0, 0.5)
        eta, T = 0.04, 60

        # reference: memoryless normalized descent, one sample per step
        rng = RngStream(99, 0)
        w_ref = [pb.w1]
        w = pb.w1
        for _ in range(T):
            g = pb.sample_grad(w, rng)
            w = w - eta * (g / np.linalg.norm(g))
            w_ref.append(w)

        # momentum method with beta = 0 (first step uses the sample as m_1)
        rng = RngStream(99, 0)
        s = start(pb.w1)
        w_nsgdm = [pb.w1]
        for _ in range(T):
            s, _, _ = transport_step(s, oracle(pb, rng), eta, 0.0, 0.0, 1.0, normalized_move)
            w_nsgdm.append(s.w)

        # transport method with beta = 0 (extrapolation collapses to w)
        rng = RngStream(99, 0)
        st = transport(start(pb.w1), pb, rng, eta, 0.0)
        w_nigt = [pb.w1, st.w]
        for _ in range(T - 1):
            st = transport(st, pb, rng, eta, 0.0)
            w_nigt.append(st.w)

        for a, b, c in zip(w_ref, w_nsgdm, w_nigt):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)
