import math
import pickle

import numpy as np
import pytest

from nigt_lab import errors
from nigt_lab.core import (
    RngStream,
    gaussian_noise,
    normalize,
    pow_sevenths,
)
from nigt_lab.errors import InvalidInput
from nigt_lab.problems import certify_constants, make_trig_bowl, with_constants


class TestNormalize:
    def test_three_four_five(self):
        unit, ok = normalize([3.0, 4.0])
        np.testing.assert_allclose(unit, [0.6, 0.8], rtol=0, atol=1e-16)
        assert ok

    def test_zero_vector_is_singular(self):
        assert not normalize([0.0, 0.0])[1]

    def test_axis_vector_with_floor(self):
        np.testing.assert_array_equal(normalize([-2.0, 0.0, 0.0], floor=1e-12)[0], [-1.0, 0.0, 0.0])

    def test_norm_below_floor_is_singular(self):
        assert not normalize([1e-13, 0.0], floor=1e-12)[1]

    def test_reconstruction_within_four_ulps(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            v = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=d)
            if np.linalg.norm(v) == 0.0:
                continue
            recon = normalize(v)[0] * np.linalg.norm(v)
            assert np.all(np.abs(recon - v) <= 4.0 * np.spacing(np.abs(v)))

    @pytest.mark.parametrize("scale", [1e-157, 1e-200, 1e-310, 1e200])
    def test_unit_length_outside_the_squarable_range(self, scale):
        # the squares of these entries are subnormal or overflow (at 1e-310
        # the entries themselves are subnormal, so the direction is inexact)
        u, ok = normalize(np.array([3.0, 4.0]) * scale, floor=1e-320)
        assert ok
        np.testing.assert_allclose(u, [0.6, 0.8], rtol=1e-13)
        assert float(np.linalg.norm(u)) == pytest.approx(1.0, rel=1e-15)

    def test_batch_rows_equal_rows_alone(self):
        # rows inside and outside the squarable range, and a singular one
        v = np.array([[3.0, 4.0], [3e-157, 4e-157], [0.0, 0.0], [3e200, -4e200], [1e-13, 0.0]])
        unit, ok = normalize(v, floor=1e-12)
        np.testing.assert_array_equal(ok, [True, False, False, True, False])
        for row, u_row, ok_row in zip(v, unit, ok):
            u_alone, ok_alone = normalize(row, floor=1e-12)
            assert ok_alone == ok_row
            if ok_row:
                assert u_row.tobytes() == u_alone.tobytes()

    def test_rejects_negative_floor_and_nonfinite(self):
        with pytest.raises(InvalidInput):
            normalize([1.0], floor=-1.0)
        with pytest.raises(InvalidInput):
            normalize([np.inf, 0.0])


class TestGaussianNoise:
    def test_zero_sigma_is_exact_zero(self):
        z = gaussian_noise(RngStream(1), 3, 0.0)
        np.testing.assert_array_equal(z, np.zeros(3))

    def test_sample_mean_clt_radius(self):
        # sigma=1, d=1: mean of 1e5 draws within 3 standard errors of 0
        rng = RngStream(42)
        n = 100_000
        draws = np.array([gaussian_noise(rng, 1, 1.0)[0] for _ in range(n)])
        assert abs(draws.mean()) <= 3.0 / math.sqrt(n)

    def test_total_squared_norm_scale(self):
        # sigma=2, d=4: empirical mean of ||zeta||^2 within 5% of 4.0
        rng = RngStream(3)
        n = 100_000
        total = np.mean([float(np.sum(gaussian_noise(rng, 4, 2.0) ** 2)) for _ in range(n)])
        assert abs(total - 4.0) <= 0.05 * 4.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_second_moment_convergence(self, seed):
        # |mean(||zeta||^2) - sigma^2| <= 5 sigma^2 / sqrt(n) at n = 1e4
        sigma, d, n = 1.5, 3, 10_000
        rng = RngStream(seed, 5)
        sq = [float(np.sum(gaussian_noise(rng, d, sigma) ** 2)) for _ in range(n)]
        assert abs(np.mean(sq) - sigma**2) <= 5.0 * sigma**2 / math.sqrt(n)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            gaussian_noise(RngStream(0), 0, 1.0)
        with pytest.raises(InvalidInput):
            gaussian_noise(RngStream(0), 2, -1.0)
        with pytest.raises(InvalidInput):
            gaussian_noise(RngStream(0), (5, 0), 1.0)

    def test_batch_rows_equal_successive_draws(self):
        # one (n, d) draw consumes the stream exactly as n draws of d
        batch = gaussian_noise(RngStream(6), (4, 3), 0.7)
        rng = RngStream(6)
        rows = np.stack([gaussian_noise(rng, 3, 0.7) for _ in range(4)])
        np.testing.assert_array_equal(batch, rows)
        np.testing.assert_array_equal(gaussian_noise(RngStream(6), (4, 3), 0.0), np.zeros((4, 3)))


class TestRngStream:
    def test_replay_is_bit_identical(self):
        a = RngStream(123, 4).generator.integers(0, 2**63, size=64)
        b = RngStream(123, 4).generator.integers(0, 2**63, size=64)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(123, 0).generator.integers(0, 2**63, size=64)
        b = RngStream(123, 1).generator.integers(0, 2**63, size=64)
        assert not np.array_equal(a, b)

    def test_seed_range_validation(self):
        with pytest.raises(InvalidInput):
            RngStream(-1)
        with pytest.raises(InvalidInput):
            RngStream(2**64)


class TestPowSevenths:
    def test_matches_pow(self):
        for x in (0.3, 1.0, 7.7, 128.0):
            for k in (1, 2, 4, 5, 13):
                assert pow_sevenths(x, k) == pytest.approx(x ** (k / 7.0), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            pow_sevenths(0.0, 2)


def _report():
    try:
        certify_constants(with_constants(make_trig_bowl(2, 1.0, 1.0, 0.3), L=0.2))
    except errors.CertificationFailure as e:
        return e.report


ERRORS = [
    errors.NigtLabError("message"), errors.InvalidInput("message"), errors.ConfigError("message"),
    errors.NonFiniteGradient("message", 2), errors.NonFiniteGradient("message"), errors.Diverged("message", 5),
    errors.CertificationFailure("message", _report()), errors.CertificationFailure("message"),
    errors.ConstantRefuted("message"),
]


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def test_every_error_class_is_covered():
    assert {type(e) for e in ERRORS} == set(_subclasses(errors.NigtLabError))


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_an_error_survives_pickling(error):
    # a split run sends its forked child's error back pickled
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error) == "message"
    assert back.__dict__ == error.__dict__
