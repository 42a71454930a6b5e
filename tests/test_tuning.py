import math
import re

import numpy as np
import pytest

from nigt_lab.errors import InvalidInput
from nigt_lab.problems import make_noisy_quadratic, make_streaming_least_squares, make_trig_bowl, with_constants
from nigt_lab.tuning import (
    bound_check,
    nigt_bound,
    nigt_params,
    nsgdm_bound,
    nsgdm_params,
    tuned,
)


class TestNsgdmParams:
    def test_hand_evaluation(self):
        p = nsgdm_params(R=1.0, L=1.0, sigma=1.0, T=100)
        assert p.alpha == pytest.approx(0.1, abs=1e-15)
        assert p.eta == pytest.approx(math.sqrt(0.1) / 10.0, rel=1e-15)
        assert p.beta == pytest.approx(0.9, abs=1e-15)

    def test_zero_noise_clamps_alpha(self):
        p = nsgdm_params(R=2.0, L=3.0, sigma=0.0, T=50)
        assert p.alpha == 1.0
        assert p.eta == pytest.approx(math.sqrt(2.0 / (50 * 3.0)), rel=1e-15)

    def test_clamp_at_low_horizon(self):
        p = nsgdm_params(R=4.0, L=1.0, sigma=1.0, T=4)
        assert p.alpha == 1.0
        assert p.eta == pytest.approx(1.0, rel=1e-15)

    def test_alpha_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = nsgdm_params(
                R=float(10 ** rng.uniform(-3, 3)),
                L=float(10 ** rng.uniform(-3, 3)),
                sigma=float(10 ** rng.uniform(-6, 3)) if rng.random() > 0.1 else 0.0,
                T=int(rng.integers(1, 10**6)),
            )
            assert 0.0 < p.alpha <= 1.0
            assert p.eta > 0.0

    def test_validation(self):
        with pytest.raises(InvalidInput):
            nsgdm_params(0.0, 1.0, 1.0, 10)
        with pytest.raises(InvalidInput):
            nsgdm_params(1.0, -1.0, 1.0, 10)
        with pytest.raises(InvalidInput):
            nsgdm_params(1.0, 1.0, 1.0, 0)


class TestNsgdmBound:
    def test_noise_free(self):
        assert nsgdm_bound(1.0, 1.0, 0.0, 100) == pytest.approx(2.9, rel=1e-15)

    def test_unit_constants_large_horizon(self):
        # 29/100 + 21/10 + 8/100
        assert nsgdm_bound(1.0, 1.0, 1.0, 10_000) == pytest.approx(2.47, rel=1e-15)

    def test_monotone_decreasing_in_horizon(self):
        grid = np.unique(np.logspace(0, 9, 60).astype(int))
        vals = [nsgdm_bound(2.0, 0.5, 0.7, int(T)) for T in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)


class TestNigtParams:
    def test_zero_noise_branches(self):
        p = nigt_params(R=1.0, L=1.0, rho=0.0, sigma=0.0, T=25)
        assert p.alpha == 1.0
        assert p.eta == pytest.approx(0.2, rel=1e-15)

    def test_powers_of_two(self):
        p = nigt_params(R=1.0, L=1.0, rho=1.0, sigma=1.0, T=2**7)
        assert p.eta == pytest.approx(2.0**-5, rel=1e-13)
        assert p.alpha == pytest.approx(2.0**-4, rel=1e-13)

    def test_defining_identity_when_unclamped(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            R = float(10 ** rng.uniform(-2, 2))
            rho = float(10 ** rng.uniform(-2, 2))
            sigma = float(10 ** rng.uniform(-1, 2))
            T = int(rng.integers(2, 10**6))
            p = nigt_params(R, 1.0, rho, sigma, T)
            assert 0.0 < p.alpha <= 1.0
            if p.alpha < 1.0:
                ident = p.alpha * T ** (4 / 7) * sigma ** (6 / 7) / (R ** (4 / 7) * rho ** (2 / 7))
                assert ident == pytest.approx(1.0, rel=1e-12)

    def test_curvature_sweep_clamps(self):
        R, L, sigma, T = 1.0, 1.0, 0.5, 1000
        etas, alphas = [], []
        for rho in 10.0 ** np.arange(-10, 14):
            p = nigt_params(R, L, rho, sigma, T)
            etas.append(p.eta)
            alphas.append(p.alpha)
        # growing curvature shrinks eta monotonically and saturates alpha at 1
        assert all(a <= b + 1e-18 for a, b in zip(etas[1:], etas[:-1]))
        assert all(a >= b for a, b in zip(alphas[1:], alphas[:-1]))
        assert alphas[-1] == 1.0
        # vanishing curvature blows up the noise branch, leaving sqrt(R/(TL))
        assert etas[0] == pytest.approx(math.sqrt(R / (T * L)), rel=1e-15)

    def test_rho_zero_with_noise_rejected(self):
        with pytest.raises(InvalidInput):
            nigt_params(1.0, 1.0, 0.0, 1.0, 100)


class TestNigtBound:
    def test_zero_noise(self):
        assert nigt_bound(1.0, 1.0, 0.0, 0.0, 25) == pytest.approx(1.0, rel=1e-15)

    def test_powers_of_two(self):
        # 5 * 2^{-7/2} + 8 * 2^{-3} + 27 * 2^{-2}
        expected = 5 * 2.0**-3.5 + 1.0 + 6.75
        assert nigt_bound(1.0, 1.0, 1.0, 1.0, 2**7) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(8.191941738241594, rel=1e-15)

    def test_dominant_scaling_is_two_sevenths(self):
        # bound(T) / bound(128 T) -> 128^{2/7} = 4 as T grows
        for T in (2**14, 2**21, 2**28):
            ratio = nigt_bound(1.0, 1.0, 1.0, 1.0, T) / nigt_bound(1.0, 1.0, 1.0, 1.0, 128 * T)
            assert ratio == pytest.approx(4.0, rel=0.15)
        big = 2**40
        ratio = nigt_bound(1.0, 1.0, 1.0, 1.0, big) / nigt_bound(1.0, 1.0, 1.0, 1.0, 128 * big)
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_monotone_decreasing_in_horizon(self):
        grid = np.unique(np.logspace(0, 9, 60).astype(int))
        vals = [nigt_bound(1.5, 2.0, 0.8, 0.6, int(T)) for T in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_rho_zero_with_noise_rejected(self):
        with pytest.raises(InvalidInput):
            nigt_bound(1.0, 1.0, 0.0, 1.0, 100)


class TestTheoremTable:
    def test_tuned_is_the_closed_form_pair(self):
        pb = make_trig_bowl(4, 1.0, 1.0, 0.5)
        assert tuned("nsgdm", pb, 100) == (nsgdm_params(pb.R, pb.L, pb.sigma, 100),
                                           nsgdm_bound(pb.R, pb.L, pb.sigma, 100))
        assert tuned("nigt", pb, 100) == (nigt_params(pb.R, pb.L, pb.rho, pb.sigma, 100),
                                          nigt_bound(pb.R, pb.L, pb.rho, pb.sigma, 100))

    def test_no_tuning_for_other_methods(self):
        with pytest.raises(InvalidInput):
            tuned("nigt_adaptive", make_noisy_quadratic(2, [1.0, 2.0], 0.5), 100)

    @pytest.mark.parametrize("opt", ["nsgdm", "nigt"])
    def test_no_tuning_where_sigma_is_certified_at_w1_only(self, opt):
        # both ceilings bound the noise by sigma at every point; a method no
        # theorem is about is named first
        pb = make_streaming_least_squares(2, [1.0, 2.0], 0.5)
        with pytest.raises(InvalidInput, match=r"^oracle variance is only certified at the start point for "
                                               r"streaming_least_squares\(.*\); the tuned ceilings need it "
                                               r"at every point$"):
            tuned(opt, pb, 100)
        with pytest.raises(InvalidInput, match="^no closed-form tuning for 'sgd'$"):
            tuned("sgd", pb, 100)


    @pytest.mark.parametrize("opt, constants, T, rates", [
        ("nsgdm", {"R": 1e-30}, 10_000, "eta = 4.4721359549995796e-26, beta = 1.0"),  # 1 - alpha rounds to 1
        ("nsgdm", {"R": 1e-300}, 100, "eta = 0.0, beta = 1.0"),  # R alpha underflows
        ("nsgdm", {"L": 1e308}, 10_000, "eta = 0.0, beta = 0.0"),  # T L overflows
        ("nigt", {"R": 1e-300}, 100, "eta = 2.869005799170234e-216, beta = 1.0"),
        ("nigt", {"L": 1e308}, 100, "eta = 0.0, beta = 0.6488032883945224"),
    ])
    def test_a_tuning_that_rounds_out_of_its_domain_is_refused(self, opt, constants, T, rates):
        pb = with_constants(make_trig_bowl(4, 1.0, 1.0, 0.5), **constants)
        named = f"R = {pb.R}, L = {pb.L}, rho = 1.0, sigma = 0.5, T = {T}"
        with pytest.raises(InvalidInput, match=f"^the {opt} tuning at {re.escape(named)} rounds out of its domain: "
                                               f"{re.escape(rates)}$"):
            tuned(opt, pb, T)

    def test_a_tuning_just_inside_its_domain_is_kept(self):
        # alpha = 2e-16 leaves beta = 1 - 2**-52, below 1
        params, _ = tuned("nsgdm", with_constants(make_trig_bowl(4, 1.0, 1.0, 0.5), R=1e-30), 100)
        assert params.eta > 0.0 and params.beta == 1.0 - 2.0**-52

class TestBoundCheck:
    def test_mean_plus_three_standard_errors(self):
        mean, stderr, passed = bound_check([1.0, 2.0, 3.0], bound=10.0)
        assert mean == 2.0 and stderr == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15) and passed
        assert not bound_check([1.0, 2.0, 3.0], bound=2.0 + 3.0 * stderr - 1e-9)[2]

    def test_one_seed_has_no_allowance(self):
        assert bound_check([0.5], bound=0.5) == (0.5, 0.0, True)

    def test_no_ceiling_passes(self):
        assert bound_check([0.5, 7.0], bound=None)[2]
