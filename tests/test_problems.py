import math
import re

import numpy as np
import pytest

from nigt_lab.core import RngStream
from nigt_lab.errors import CertificationFailure, InvalidInput
from nigt_lab.problems import (
    MIN_SEP,
    ball_pairs,
    ball_point,
    certify_constants,
    fd_slack,
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
    taylor_remainder,
    with_constants,
)

ALL_PROBLEMS = {
    "quad": lambda: make_noisy_quadratic(2, [1.0, 4.0], 1.0),
    "sign": lambda: make_sign_noise(0.25),
    "trig": lambda: make_trig_bowl(2, 1.0, 2.0, 0.5),
    "ls": lambda: make_streaming_least_squares(2, [1.0, 2.0], 0.5),
}


def fd_hessian(problem, w, h=1e-5):
    """Value-based central-difference Hessian, independent of exact_grad."""
    d = problem.dim
    H = np.zeros((d, d))
    E = np.eye(d)
    f0 = problem.exact_value(w)
    for i in range(d):
        for j in range(i, d):
            if i == j:
                pij = (
                    problem.exact_value(w + 2 * h * E[i])
                    - 2 * f0
                    + problem.exact_value(w - 2 * h * E[i])
                ) / (4 * h * h)
            else:
                pij = (
                    problem.exact_value(w + h * E[i] + h * E[j])
                    - problem.exact_value(w + h * E[i] - h * E[j])
                    - problem.exact_value(w - h * E[i] + h * E[j])
                    + problem.exact_value(w - h * E[i] - h * E[j])
                ) / (4 * h * h)
            H[i, j] = H[j, i] = pij
    return H


def fd_third_directional(problem, w, u, h=1e-3):
    """Third derivative of eps -> F(w + eps u) by five-point differences."""
    f = lambda eps: problem.exact_value(w + eps * u)
    return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)


class TestNoisyQuadratic:
    def test_hand_values(self):
        pb = make_noisy_quadratic(2, [1.0, 4.0], 1.0, w1=[1.0, 1.0])
        np.testing.assert_array_equal(pb.exact_grad([1.0, 1.0]), [1.0, 4.0])
        assert pb.exact_value([1.0, 1.0]) == 2.5
        assert pb.R == 2.5 and pb.rho == 0.0 and pb.L == 4.0

    def test_zero_noise_oracle_is_exact(self):
        pb = make_noisy_quadratic(1, [1.0], 0.0)
        rng = RngStream(0)
        w = np.array([3.0])
        np.testing.assert_array_equal(pb.noisy_grad(w, pb.sample_noise(rng, 1)[0]), pb.exact_grad(w))

    def test_certified_constants_by_fd_sweep(self):
        # independent oracle: value-based FD Hessian at random points
        pb = make_noisy_quadratic(2, [1.0, 4.0], 0.0)
        rng = np.random.default_rng(11)
        max_op = 0.0
        for _ in range(50):
            w = rng.normal(scale=3.0, size=2)
            H = fd_hessian(pb, w)
            max_op = max(max_op, float(np.linalg.norm(H, 2)))
        assert max_op == pytest.approx(4.0, rel=1e-4)
        assert max_op <= pb.L * 1.001
        # constant Hessian: third derivative vanishes
        third = abs(fd_third_directional(pb, np.ones(2), np.array([0.6, 0.8])))
        assert third <= 1e-6

    def test_gradient_homogeneity(self):
        pb = make_noisy_quadratic(3, [1.0, 2.0, 3.0], 0.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.normal(size=3)
            np.testing.assert_allclose(pb.exact_grad(2 * w), 2 * pb.exact_grad(w), rtol=1e-15)

    def test_mean_squared_grad_error_at_origin(self):
        # sigma=1 at w=0: mean ||grad||^2 over 1e5 draws within 5% of 1
        pb = make_noisy_quadratic(2, [1.0, 4.0], 1.0)
        rng = RngStream(21)
        w = np.zeros(2)
        sq = [float(np.sum(pb.noisy_grad(w, pb.sample_noise(rng, 1)[0]) ** 2)) for _ in range(100_000)]
        assert abs(np.mean(sq) - 1.0) <= 0.05

    def test_validation(self):
        with pytest.raises(InvalidInput, match=r"^eigenvalues must be positive and finite, got \[1\.0, -1\.0\]$"):
            make_noisy_quadratic(2, [1.0, -1.0], 0.0)
        with pytest.raises(InvalidInput, match=r"^expected 3 eigenvalues, got shape \(2,\)$"):
            make_noisy_quadratic(3, [1.0, 2.0], 0.0)


class TestSignNoise:
    def test_constants(self):
        pb = make_sign_noise(0.25)
        # variance of the two-point law: (1-p) p^2 + p (1-p)^2
        assert pb.sigma**2 == pytest.approx(0.1875, abs=1e-15)
        assert pb.g_bound == 0.75 and pb.R == 1.0 and pb.L == 0.0
        np.testing.assert_array_equal(pb.exact_grad(pb.w1), [0.0])
        assert pb.exact_value(pb.w1) == 1.0

    def test_oracle_law(self):
        pb = make_sign_noise(0.25)
        rng = RngStream(17)
        draws = np.array([pb.noisy_grad(pb.w1, pb.sample_noise(rng, 1)[0])[0] for _ in range(100_000)])
        values = set(np.unique(draws))
        assert values == {0.25, -0.75}
        # unbiased: CLT radius 3 sqrt(sigma^2 / n)
        assert abs(draws.mean()) <= 3.0 * math.sqrt(0.1875 / draws.size)
        # normalized sample mean: 1 - 2p
        assert np.mean(np.sign(draws)) == pytest.approx(0.5, abs=0.02)

    def test_validation(self):
        for bad in (0.0, 0.5, 0.75, -0.1):
            with pytest.raises(InvalidInput, match=re.escape(f"p must lie in (0, 1/2), got {bad}")):
                make_sign_noise(bad)


class TestTrigBowl:
    def test_hand_values(self):
        pb = make_trig_bowl(1, 1.0, 1.0, 0.0)
        assert pb.exact_value([math.pi]) == pytest.approx(2.0, rel=1e-15)
        assert pb.exact_grad([math.pi])[0] == pytest.approx(0.0, abs=1e-15)
        assert pb.exact_grad([math.pi / 2])[0] == pytest.approx(1.0, rel=1e-15)

    def test_declared_constants_match_fd_oracle(self):
        # d=2, a=1, b=2: L = a b^2 = 4, rho = a b^3 = 8
        pb = make_trig_bowl(2, 1.0, 2.0, 0.0)
        assert pb.L == 4.0 and pb.rho == 8.0
        rng = np.random.default_rng(3)
        max_op = 0.0
        max_third = 0.0
        for _ in range(200):
            w = rng.uniform(-4, 4, size=2)
            H = fd_hessian(pb, w)
            max_op = max(max_op, float(np.linalg.norm(H, 2)))
            for u in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
                max_third = max(max_third, abs(fd_third_directional(pb, w, u)))
        assert max_op <= pb.L * 1.001
        assert max_op == pytest.approx(4.0, rel=0.01)
        assert max_third <= pb.rho * 1.001
        assert max_third == pytest.approx(8.0, rel=0.05)

    def test_noise_is_bounded_and_scaled(self):
        pb = make_trig_bowl(4, 1.0, 1.0, 0.5)
        rng = RngStream(9)
        w = pb.w1
        g_exact = pb.exact_grad(w)
        errs = np.array(
            [np.linalg.norm(pb.noisy_grad(w, pb.sample_noise(rng, 1)[0]) - g_exact) for _ in range(20_000)]
        )
        assert errs.max() <= math.sqrt(3.0) * 0.5 + 1e-12  # a.s. bound
        assert np.mean(errs**2) == pytest.approx(0.25, rel=0.05)  # E||zeta||^2 = sigma^2

    def test_gradient_bound_holds(self):
        pb = make_trig_bowl(4, 1.0, 1.0, 0.5)
        rng = RngStream(10)
        worst = 0.0
        rnd = np.random.default_rng(0)
        for _ in range(5000):
            w = rnd.uniform(-10, 10, size=4)
            worst = max(worst, float(np.linalg.norm(pb.noisy_grad(w, pb.sample_noise(rng, 1)[0]))))
        assert worst <= pb.g_bound + 1e-12


class TestStreamingLeastSquares:
    def test_interpolation_point(self):
        pb = make_streaming_least_squares(2, [1.0, 2.0], 0.0, w1=[0.0, 0.0], w_star=[0.0, 0.0])
        rng = RngStream(4)
        np.testing.assert_array_equal(pb.exact_grad(pb.w_star), [0.0, 0.0])
        for _ in range(50):
            np.testing.assert_allclose(pb.noisy_grad(pb.w_star, pb.sample_noise(rng, 1)[0]), 0.0, atol=1e-16)

    def test_one_dim_gradient(self):
        pb = make_streaming_least_squares(1, [1.0], 0.0, w1=[1.0], w_star=[0.0])
        assert pb.exact_grad([1.0])[0] == pytest.approx(1.0, rel=1e-15)

    def test_certified_l_by_sample_covariance(self):
        # independent oracle: max eigenvalue of the sample covariance of x
        pb = make_streaming_least_squares(2, [1.0, 2.0], 0.0)
        rng = RngStream(12)
        n = 100_000
        xs = rng.generator.normal(size=(n, 2)) * np.sqrt(pb.cov_eigs)
        cov = xs.T @ xs / n
        L_hat = float(np.linalg.norm(cov, 2))
        assert L_hat == pytest.approx(2.0, rel=0.03)
        assert pb.L == 2.0

    def test_sigma_declared_matches_measurement_at_w1(self):
        pb = make_streaming_least_squares(2, [1.0, 2.0], 0.5)
        assert pb.sigma_at_w1_only
        rng = RngStream(13)
        g_exact = pb.exact_grad(pb.w1)
        sq = [
            float(np.sum((pb.noisy_grad(pb.w1, pb.sample_noise(rng, 1)[0]) - g_exact) ** 2))
            for _ in range(40_000)
        ]
        assert math.sqrt(np.mean(sq)) == pytest.approx(pb.sigma, rel=0.05)


class TestSharedInvariants:
    @pytest.mark.parametrize("name", sorted(ALL_PROBLEMS))
    def test_non_negative_values(self, name):
        pb = ALL_PROBLEMS[name]()
        rng = np.random.default_rng(100)
        for _ in range(1000):
            w = rng.uniform(-15, 15, size=pb.dim)
            assert pb.exact_value(w) >= 0.0

    @pytest.mark.parametrize("name", sorted(ALL_PROBLEMS))
    def test_value_at_start_within_declared_r(self, name):
        pb = ALL_PROBLEMS[name]()
        assert pb.exact_value(pb.w1) <= pb.R

    @pytest.mark.parametrize("name", sorted(ALL_PROBLEMS))
    def test_oracle_unbiased_per_coordinate(self, name):
        pb = ALL_PROBLEMS[name]()
        rng = RngStream(55, 1)
        w = pb.w1 if pb.sigma_at_w1_only else pb.w1 + 0.3
        g_exact = pb.exact_grad(w)
        n = 10_000
        errs = np.array([pb.noisy_grad(w, pb.sample_noise(rng, 1)[0]) - g_exact for _ in range(n)])
        mean = errs.mean(axis=0)
        se = errs.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean) <= 4.0 * np.maximum(se, 1e-300))

    @pytest.mark.parametrize("name", sorted(ALL_PROBLEMS))
    def test_certification_passes(self, name):
        pb = ALL_PROBLEMS[name]()
        report = certify_constants(pb, n_pairs=300, radius=10.0, rng=RngStream(7, 2))
        assert report.passed
        if pb.rho == 0.0:
            assert report.rho_hat <= report.fd_slack

    def test_sign_noise_sigma_window(self):
        report = certify_constants(make_sign_noise(0.25), n_pairs=100, rng=RngStream(8, 2))
        assert 0.411 <= report.sigma_hat <= 0.455

    def test_quadratic_l_hat_approaches_top_eigenvalue(self):
        report = certify_constants(
            make_noisy_quadratic(2, [1.0, 4.0], 1.0), n_pairs=400, rng=RngStream(9, 2)
        )
        assert 3.5 <= report.L_hat <= 4.0 * 1.0000001

    def test_underdeclared_l_fails(self):
        pb = with_constants(make_noisy_quadratic(2, [1.0, 4.0], 1.0), L=2.0)
        with pytest.raises(CertificationFailure) as exc:
            certify_constants(pb, n_pairs=200, rng=RngStream(10, 2))
        assert exc.value.report is not None
        assert not exc.value.report.passed

    def test_overdeclared_sigma_fails(self):
        pb = with_constants(make_trig_bowl(2, 1.0, 1.0, 0.5), sigma=1.0)
        with pytest.raises(CertificationFailure):
            certify_constants(pb, n_pairs=100, rng=RngStream(11, 2))

    @pytest.mark.parametrize("name, value", [
        ("L", math.nan), ("L", math.inf), ("L", -1.0), ("rho", math.nan), ("rho", math.inf),
        ("sigma", math.nan), ("sigma", -0.5), ("g_bound", math.nan), ("g_bound", 0.0),
        ("g_bound", -math.inf), ("R", math.nan), ("R", math.inf), ("R", -math.inf),
    ])
    def test_each_constant_refuses_a_value_outside_its_domain(self, name, value):
        with pytest.raises(InvalidInput, match=f"^{name} must be "):
            with_constants(make_trig_bowl(2, 1.0, 1.0, 0.5), **{name: value})

    @pytest.mark.parametrize("overrides, names", [
        ({"dim": 3}, "['dim']"), ({"w1": [0.0, 0.0]}, "['w1']"), ({"sigma": 1.0, "dim": 3, "a": 2.0}, "['a', 'dim']"),
    ], ids=["dim", "w1", "two_of_three"])
    def test_only_declared_constants_are_overridden(self, overrides, names):
        message = f"cannot override {names}; allowed: ['L', 'R', 'g_bound', 'rho', 'sigma']"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            with_constants(make_trig_bowl(2, 1.0, 1.0, 0.5), **overrides)

    @pytest.mark.parametrize("make, message", [
        (lambda: make_noisy_quadratic(2, [1.0, 4.0], w1=[1.0]), "w1 has dim 1, expected 2"),
        (lambda: make_noisy_quadratic(2, [1.0, 4.0], w1=[1.0, 2.0, 3.0]), "w1 has dim 3, expected 2"),
        (lambda: make_trig_bowl(0, 1.0, 1.0), "dimension must be >= 1, got 0"),
        (lambda: make_trig_bowl(2, 1.0, 1.0, w1=[1.0, 2.0, 3.0]), "w1 has dim 3, expected 2"),
    ], ids=["quad_w1_short", "quad_w1_long", "trig_dim_zero", "trig_w1_long"])
    def test_a_start_point_off_the_dimension_is_refused(self, make, message):
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            make()

    def test_domain_edges_are_accepted(self):
        pb = with_constants(make_trig_bowl(2, 1.0, 1.0, 0.5), L=0.0, rho=0.0, g_bound=math.inf, R=-1.0)
        assert (pb.L, pb.g_bound, pb.R) == (0.0, math.inf, -1.0)

    def test_taylor_remainder_zero_at_equal_points(self):
        pb = make_trig_bowl(2, 1.0, 1.0, 0.0)
        np.testing.assert_array_equal(taylor_remainder(pb, pb.w1, pb.w1), np.zeros(2))

    def test_fd_slack_floor(self):
        pb = make_noisy_quadratic(2, [1.0, 4.0], 0.0)
        assert fd_slack(pb, 10.0) == pytest.approx(1e-6)

    def test_certify_rejects_tiny_pair_budget(self):
        with pytest.raises(InvalidInput):
            certify_constants(make_sign_noise(0.25), n_pairs=10)


class _ZerosFirst:
    """A generator whose first ``n`` normal draws are all zero, the rest
    those of a seeded one."""

    def __init__(self, n):
        self.n, self.rest, self.normals = n, np.random.default_rng(0), 0

    def normal(self, size):
        self.normals += 1
        return np.zeros(size) if self.normals <= self.n else self.rest.normal(size=size)

    def random(self):
        return self.rest.random()


class TestBallDraws:
    def test_a_zero_direction_draws_the_center(self):
        rng = RngStream(0)
        rng.generator = _ZerosFirst(1)
        center = np.array([1.0, -2.0])
        point = ball_point(rng, center, 0.5)
        assert point is not center and point.tolist() == [1.0, -2.0]
        assert rng.generator.rest.random() == np.random.default_rng(0).random()  # it drew no radius

    def test_a_pair_too_close_is_skipped(self):
        rng = RngStream(0)
        rng.generator = _ZerosFirst(2)  # the first pair is the center twice
        (x, y, sep), = ball_pairs(rng, np.zeros(3), 1.0, 1)
        assert rng.generator.normals == 4 and sep == pytest.approx(np.linalg.norm(x - y)) and sep >= MIN_SEP
