"""The array printer of seed CSVs and chart points against Python's "%":
each value's text must be Python's, whether the arrays settle it or leave it
to Python for that cell alone."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nigt_lab import reports
from nigt_lab.core import TrajectoryRecord


def g17_texts(x: np.ndarray) -> list[str]:
    """The text :func:`reports._g17_words` gives each value, a cell a line."""
    slots = np.zeros((4, len(x)), np.uint64)
    bad = reports._g17_words(x, slots)
    lines = slots.T.copy()
    lines[:, 3] |= np.uint64(ord("\n") << 56)
    text = reports._text(lines, (bad * 32).tolist(), [reports._G17 % v for v in x[bad].tolist()])
    return text.split("\n")[:-1]


def f2_texts(x: np.ndarray) -> list[str]:
    """The text :func:`reports._f2_words` gives each value, a cell a line."""
    words, bad = reports._f2_words(x)
    text = reports._text(words | np.uint64(ord("\n") << 56), (bad * 8).tolist(), [reports._fmt(v) for v in x[bad]])
    return text.split("\n")[:-1]


def assert_g17(x) -> None:
    x = np.asarray(x, np.float64)
    assert g17_texts(x) == ["%.17g" % v for v in x.tolist()]


def assert_f2(x) -> None:
    x = np.asarray(x, np.float64)
    assert f2_texts(x) == ["%.2f" % v for v in x.tolist()]


def neighbours(x: np.ndarray, ulps: int = 3) -> np.ndarray:
    """``x`` and the ``ulps`` floats on either side of each entry."""
    out, up, down = [x], x, x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


# any float64: hypothesis's floats, or a raw 64-bit pattern (NaN payloads,
# subnormals and every exponent alike)
ANY_FLOAT = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, np.uint64).view(np.float64))))
# chart points: mostly inside the kernel's [0, 10**4), some outside it
POINT = st.one_of(st.floats(0.0, 1e4), st.integers(0, 10**6).map(lambda c: c / 100), ANY_FLOAT)

POWERS = np.array([10.0**k for k in range(-307, 309)])
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan,
            float(np.array(0x7FF8000000000123, np.uint64).view(np.float64)),  # a NaN with a payload
            float(np.array(0xFFF0000000000001, np.uint64).view(np.float64)),
            5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


class TestPercent17g:
    @settings(max_examples=300)
    @given(st.lists(ANY_FLOAT, min_size=1, max_size=40))
    def test_any_floats(self, values):
        assert_g17(values)

    @settings(max_examples=100)
    @given(st.lists(st.floats(-1e20, 1e20), min_size=1, max_size=40), st.integers(-30, 30))
    def test_floats_at_every_notation(self, values, scale):
        assert_g17(np.array(values) * 10.0**scale)

    def test_powers_of_ten_and_their_neighbours(self):
        # across the tables' exponents and past them, either sign
        x = neighbours(POWERS)
        assert_g17(np.concatenate([x, -x]))

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
    def test_where_the_notation_changes(self, edge):
        assert_g17(neighbours(np.array([edge, -edge, 10 * edge, edge / 10]), ulps=40))

    def test_integers_near_two_to_the_53(self):
        ints = np.arange(2**53 - 8, 2**53 + 16, dtype=np.int64)
        assert_g17(np.concatenate([ints.astype(np.float64), np.arange(1.0, 10_001.0), 10.0 ** np.arange(17)]))

    def test_zeros_infinities_and_nans(self):
        assert_g17(SPECIALS)

    def test_a_point_after_each_digit(self):
        # 10 <= |x| < 10**16 puts the point after the second to sixteenth
        # digit: the digits after it move up a byte
        digits = 1.2345678901234567
        x = np.array([digits * 10.0**k for k in range(17)] + [1.5 * 10.0**k for k in range(17)])
        assert_g17(np.concatenate([x, -x, x + 0.25]))

    def test_each_table_pair_is_the_nearest_float_and_its_rest(self):
        pow10 = reports._g17_tables()[0]
        for i, k in enumerate(range(reports._K_LO, reports._K_HI + 1)):
            exact = Fraction(10) ** (16 - k)
            hi, lo = pow10[:2, i].tolist()
            assert hi == float(exact)
            assert lo == float(exact - Fraction(hi))


class TestPercent2f:
    @settings(max_examples=300)
    @given(st.lists(POINT, min_size=1, max_size=40))
    def test_any_points(self, values):
        assert_f2(values)

    def test_ties_and_their_neighbours(self):
        # x * 100 a half: exact in binary (0.125), or just off it (2.675)
        halves = (np.arange(0, 2_000_000, 20) + 1) / 200
        assert_f2(neighbours(np.concatenate([halves, [0.125, 2.675, 9999.995, 0.005, 1.005]]), ulps=2))

    def test_the_edges_of_the_range(self):
        assert_f2(neighbours(np.array([0.0, 1e-300, 0.005, 9999.99, 9999.994999, 9999.995, 1e4]), ulps=3))
        assert_f2(np.array(SPECIALS + [-0.001, -1.0, 1e300, -1e300]))


def leave_every_third(kernel):
    """``kernel``, leaving every third value of each call to Python too."""
    def leaving(x, *out):
        got = kernel(x, *out)
        extra = np.arange(0, len(x), 3)
        if out:  # the "%.17g" slots
            out[0][:, extra] = 0
            return np.union1d(got, extra)
        words, bad = got
        words[extra] = 0
        return words, np.union1d(bad, extra)
    return leaving


class TestCellsLeftToPython:
    """A value the arrays leave to Python gets its text at its own place in
    the file, wherever it falls in a chunk or a polyline."""

    def test_seed_csv(self, monkeypatch):
        rng = np.random.default_rng(3)
        rec = TrajectoryRecord(
            problem_id="p", optimizer_id="o", seed=1, eta=np.full(1100, 0.01), alpha=rng.random(1100),
            m_norm=rng.standard_normal(1100) * 1e5, no_move=np.zeros(1100, bool), f_val=None,
            grad_norm=rng.random(1100) * 1e-6, mhat_err=np.zeros(1100), descent_residual=-rng.random(1100))
        whole = io.StringIO()
        reports.record_to_csv(rec, whole)
        monkeypatch.setattr(reports, "_g17_words", leave_every_third(reports._g17_words))
        left = io.StringIO()
        reports.record_to_csv(rec, left)
        assert left.getvalue() == whole.getvalue()

    @pytest.mark.parametrize("log", [False, True])
    def test_chart(self, monkeypatch, log):
        ys = np.abs(np.random.default_rng(4).standard_normal((3, 300)))
        ys[1, ::5] = 0.0  # dropped from the log chart
        ys[2, ::7] = np.nan  # dropped from both
        whole, left = io.StringIO(), io.StringIO()
        reports.svg_line_chart(whole, list(ys), "title", "y", log)
        f2_words, leaving = reports._f2_words, leave_every_third(reports._f2_words)
        calls = []

        def y_words(x):  # the first call prints the steps' pixels, which no value leaves to Python
            calls.append(len(x))
            return (f2_words if len(calls) == 1 else leaving)(x)

        monkeypatch.setattr(reports, "_f2_words", y_words)
        reports.svg_line_chart(left, list(ys), "title", "y", log)
        assert left.getvalue() == whole.getvalue() and len(calls) == 5
