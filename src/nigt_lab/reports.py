"""Deterministic result files: CSV trajectories, JSON summaries, SVG charts.

CSV numbers carry 17 significant digits (exact float64 round-trip), JSON uses
shortest round-trip decimals, and SVG charts are hand-emitted primitives so
identical inputs produce identical bytes on every platform. Every file is
written atomically through one handle (:func:`open_atomic`: a temporary file
in the target directory, then a rename), and seed CSVs and charts are written
as they are formatted, a chunk of rows or one polyline at a time, so the text
of a whole file is never held in memory.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from pathlib import Path

import numpy as np

from .core import TrajectoryRecord
from .errors import ConfigError

# Wire-format column names; the last column is fixed by the file-format
# contract even though the in-memory field is called descent_residual.
CSV_HEADER = "t,f_val,grad_norm,eta,alpha,m_norm,mhat_err,lemma1_residual"

_CSV_FIELDS = ("f_val", "grad_norm", "eta", "alpha", "m_norm", "mhat_err", "descent_residual")

_G17 = "%.17g"  # a CSV float: 17 significant digits, an exact float64 round trip

# -- float text as arrays -----------------------------------------------------
# Seed CSVs and chart points print their floats as arrays. Each value's text
# goes into a slot of little-endian uint64 words, padded with NULs anywhere,
# so that one compaction, deleting the NULs of a buffer of slots and
# separators, turns it into text. A value the arrays cannot settle (not
# finite, out of the tables' range, or too near a rounding tie) keeps an
# empty slot and gets Python's text for that cell alone (:func:`_text`):
# every byte is what Python's "%" prints.

# "%.17g" of a value with decimal exponent k (10**k <= |x| < 10**(k+1)) is
# the integer N = round(|x| * 10**(16-k)), 10**16 <= N < 10**17, in a slot of
# four words: w0 holds the sign at byte 0, "0." and leading zeros for
# -4 <= k < 0 at bytes 1-5, the first digit at byte 6 and the point after it
# at byte 7; w1 and w2 hold the other 16 digits, trailing zeros after the
# point dropped; w3 holds the exponent "e+XX" at bytes 0-4 when k < -4 or
# k > 16, and byte 7 is left for a separator. A point after a later digit
# (10 <= |x| < 10**16) shifts the digits after it up a byte, the last into w3.
_K_LO, _K_HI = -284, 296  # the tables' exponents: 10**(16-k) and its split stay normal
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant: a float64 into two 26-bit halves


def _split(a):
    """``(hi, lo)`` with ``hi + lo == a`` and each half's product with
    another split half exact (Dekker's two-product)."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10(lo: int, hi: int) -> np.ndarray:
    """Rows ``near`` and ``rest`` for each 10**p, p from ``lo`` < 0 to
    ``hi`` >= 0: the float64 nearest 10**p and the one nearest
    ``10**p - near``, by exact integer arithmetic (an int over an int is
    correctly rounded)."""
    above, n = [], 1
    for _ in range(hi + 1):
        near = float(n)
        above.append((near, float(n - int(near))))
        n *= 10
    below, d = [], 1
    for _ in range(-lo):
        d *= 10
        near = 1 / d
        num, den = near.as_integer_ratio()  # den a power of two: dividing by it is exact
        below.append((near, math.ldexp((den - num * d) / d, 1 - den.bit_length())))
    return np.array(below[::-1] + above).T


def _word(text: str) -> int:
    return int.from_bytes(text.encode("ascii"), "little")


# the first digit at byte 6, after a sign at byte 0: d0, or 10 + d0 below zero
_FIRST_DIGIT = np.array([(48 + d) << 48 | (45 if neg else 0) for neg in (0, 1) for d in range(10)], np.uint64)
_LOW_BYTES = np.array([(1 << 8 * c) - 1 for c in range(9)], np.uint64)  # the low c bytes of a word


def _four_digits() -> np.ndarray:
    """Each number below 10**4 as four ASCII digits at bytes 0-3 of a word."""
    g = np.arange(10**4, dtype=np.uint64)
    return (g // 1000 | g // 100 % 10 << 8 | g // 10 % 10 << 16 | g % 10 << 24) + _word("0000")


@functools.cache
def _g17_tables():
    """10**(16-k) as hi, lo and the halves of hi, per exponent k from
    ``_K_LO`` to ``_K_HI``; the slot's words that depend on k alone (see
    :func:`_g17_words`); the chars of each four digits, whole and with
    trailing zeros dropped."""
    ks = np.arange(_K_LO, _K_HI + 1)
    hi, lo = _pow10(16 - _K_HI, 16 - _K_LO)[:, ::-1]
    sci = (ks < -4) | (ks > 16)
    P = np.where(sci, 1, np.maximum(ks + 1, 0))  # the digits before the point
    neg = np.where(sci, 0, np.clip(-ks, 0, 4))  # 0 < -k <= 4: "0." and -k-1 zeros
    prefix = np.array([0] + [_word("\0" + "0." + "0" * (i - 1)) for i in range(1, 5)], np.uint64)
    # "e", the sign, then two or three digits of |k|
    four = _four_digits()
    e = np.abs(ks)
    expo = (four[e] >> np.uint64(8) & ~(np.uint64(0xFF) * (e < 100))) << np.uint64(16)
    expo |= np.where(ks < 0, _word("e-"), _word("e+")).astype(np.uint64)
    zeros, dots = np.uint64(0x3030303030303030), np.uint64(0x2E2E2E2E2E2E2E2E)
    in1, in2 = np.clip(P - 1, 0, 8), np.clip(P - 9, 0, 8)  # the integer digits in w1, w2
    after = (P > 0) & (P < 17)  # digits can follow the point
    dot_at = lambda c, on: (_LOW_BYTES[c + 1] ^ _LOW_BYTES[c]) & dots * on
    layout = np.stack([
        prefix[neg],
        expo * sci,
        _LOW_BYTES[in1] & zeros,  # zeros restored to the integer digits
        _LOW_BYTES[in2] & zeros,
        ~_LOW_BYTES[in1] * after,  # the digits after the point
        ~_LOW_BYTES[in2] * after,
        np.uint64(ord(".") << 56) * (P == 1),  # the point after the first digit
        dot_at(np.clip(P - 1, 0, 7), (P >= 2) & (P <= 8)),  # or after a later one
        dot_at(np.clip(P - 9, 0, 7), (P >= 9) & (P <= 16)),
    ])
    g = np.arange(10**4)
    trailing_zeros = sum(g % 10**j == 0 for j in range(1, 5))
    chars = np.concatenate([four, four & _LOW_BYTES[4 - trailing_zeros]])
    return np.stack([hi, lo, *_split(hi)]), layout, chars


def _scaled(a, ki, pow10):
    """``(N, frac)``: |x| * 10**(16-k) to about 1e-15 as the int64 ``N``
    nearest it, ties to even, and the rest, a float64 in [-0.5, 0.5]."""
    hi, lo, bh, bl = np.take(pow10, ki, axis=1)
    p = a * hi
    ah, al = _split(a)
    # summed left to right, a * hi - p exactly (Dekker's two-product), then a * lo
    e = ah * bh - p + al * bh + ah * bl + al * bl + a * lo
    r = np.rint(e)
    e -= r
    N = p.astype(np.int64)
    N += r.astype(np.int64)
    return N, e


def _g17_words(x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Write the "%.17g" text of each float64 of ``x`` to the columns of the
    ``(4, len(x))`` uint64 ``slots``; return the indices of the values left
    empty for Python: those not finite, with 0 < |x| < 1e-282 or
    |x| >= 1e295, or within 1e-6 of a rounding tie."""
    pow10, layout, chars = _g17_tables()
    n = len(x)
    a = np.abs(x)
    ok = (a >= 1e-282) & (a < 1e295)  # k and a corrected k are in the tables
    zero = a == 0.0
    a = np.where(ok, a, 1.0)  # a zero prints as 1, then its digit is made 0
    ki = (np.floor(np.log10(a)) - _K_LO).astype(np.intp)
    ok |= zero
    N, frac = _scaled(a, ki, pow10)
    # log10 can round up to k+1 just below 10**(k+1); N can round up to 10**17
    over = N - 10**16  # below zero is below 10**16 as an unsigned int
    fix = np.flatnonzero((over.view(np.uint64) >= 9 * 10**16) | ((over == 0) & (frac < 0)))
    if len(fix):
        Nf, ff, kf = N[fix], frac[fix], ki[fix]
        kf += (Nf > 10**17) | ((Nf == 10**17) & (ff >= 0))
        kf -= (Nf < 10**16) | ((Nf == 10**16) & (ff < 0))
        Nf, ff = _scaled(a[fix], kf, pow10)
        top = Nf == 10**17
        Nf[top] = 10**16
        kf[top] += 1
        ok[fix] &= (Nf >= 10**16) & (Nf < 10**17)
        N[fix], frac[fix], ki[fix] = Nf, ff, kf
    ok &= np.abs(frac) < 0.5 - 1e-6
    # N's digits: d0, then groups g1..g4 of four, from its two uint32 halves
    q = np.empty((2, n), np.uint32)
    np.floor_divide(N, 10**8, out=q[0], casting="unsafe")
    np.subtract(N, q[0] * np.int64(10**8), out=q[1], casting="unsafe")
    d = q // 10**4
    g = np.empty((5, n), np.intp)  # g1..g4, then d0
    np.subtract(q, d * 10**4, out=g[1:4:2])
    np.floor_divide(d[0], 10**4, out=g[4])
    g[0] = d[0] - g[4] * 10**4
    g[2] = d[1]
    # a group's trailing zeros go when every later group is zero
    z = g[1:4] == 0
    z[1] &= z[2]
    z[0] &= z[1]
    g[:3] += z * 10**4
    g[3] += 10**4
    words = chars[g[:4]]
    words[1::2] <<= np.uint64(32)
    # per k: w0's prefix, w3, the integer digits' zeros and the masks of the
    # digits after the point in w1 and w2, the point after the first digit
    k_words = np.take(layout[:7], ki, axis=1)
    w12 = slots[1:3]
    np.bitwise_or(words[0::2], words[1::2], out=w12)
    w12 |= k_words[2:4]
    frac_digits = ((w12 & k_words[4:6]) != 0).any(axis=0)
    d0 = g[4]
    d0 -= zero
    d0 += np.signbit(x) * 10
    np.bitwise_or(k_words[0], _FIRST_DIGIT[d0], out=slots[0])
    slots[0] |= k_words[6] * frac_digits
    slots[3] = k_words[1]
    # a point after a later digit: the digits from it on move up a byte
    shift = np.flatnonzero(frac_digits & (k_words[6] == 0))
    if len(shift):
        w1, w2 = slots[1, shift], slots[2, shift]
        h1, h2 = w1 & k_words[4, shift], w2 & k_words[5, shift]
        dot1, dot2 = np.take(layout[7:], ki[shift], axis=1)
        slots[1, shift] = (w1 ^ h1) | (h1 << 8) | dot1
        slots[2, shift] = (w2 ^ h2) | (h2 << 8) | (h1 >> 56) | dot2
        slots[3, shift] = h2 >> 56
    bad = np.flatnonzero(~ok)
    slots[:, bad] = 0
    return bad


def _text(buf: np.ndarray, at=(), cells=()) -> str:
    """The bytes of ``buf`` less its NULs, as text, with ``cells[i]`` put in
    at byte ``at[i]`` (in ascending order)."""
    b = buf.tobytes()
    out, lo = [], 0
    for i, cell in zip(at, cells):
        out += (b[lo:i].translate(None, b"\0").decode("ascii"), cell)
        lo = i
    out.append(b[lo:].translate(None, b"\0").decode("ascii"))
    return "".join(out)


# each cell's separator, at the last byte of its slot
_CSV_SEPARATORS = np.array([ord(",") << 56] * len(_CSV_FIELDS) + [ord("\n") << 56], np.uint64)

# Rows of a seed CSV printed per write, whatever the horizon: at most about
# 72 KB of text (a row of every column takes 100-140 B), and a tracemalloc
# peak of about 1.1 MB while it is printed. The reference run's seed CSVs
# printed faster in chunks of 2**9 rows than of 2**8 or 2**10.
CSV_CHUNK_ROWS = 2**9


def record_to_csv(record: TrajectoryRecord, fh) -> None:
    """One row per step, written to the text handle ``fh`` in chunks of
    :data:`CSV_CHUNK_ROWS` rows; a column the run did not record is empty cells.

    The step and each column's floats are printed as arrays, a chunk at a
    time; a column of one bit pattern (the rate of a constant-rate run) is
    printed once, by Python, into a slot every row shares.
    """
    T = len(record.eta)
    rows = min(T, CSV_CHUNK_ROWS)  # the rows of a chunk
    buf = np.zeros((rows, len(_CSV_SEPARATORS), 4), np.uint64)
    cols, at = [], [0]  # column 0 is the step
    for j, c in enumerate((getattr(record, f) for f in _CSV_FIELDS), 1):
        if c is None:
            continue
        if len(c) and (c.view(np.int64) == c.view(np.int64)[0]).all():
            buf[:, j] = np.frombuffer((_G17 % c[0]).encode("ascii").ljust(32, b"\0"), np.uint64)
        else:
            cols.append(c)
            at.append(j)
    buf[:, :, 3] |= _CSV_SEPARATORS
    at = np.array(at)
    values = np.empty((rows, len(at)))
    slots = np.empty((4, rows * len(at)), np.uint64)
    fh.write(CSV_HEADER + "\n")
    for lo in range(0, T, CSV_CHUNK_ROWS):
        n = min(rows, T - lo)
        values[:n, 0] = np.arange(lo + 1, lo + n + 1)
        for i, c in enumerate(cols, 1):
            values[:n, i] = c[lo:lo + n]
        flat = values[:n].reshape(-1)
        words = slots[:, :len(flat)].reshape(4, n, len(at))
        bad = _g17_words(flat, slots[:, :len(flat)])
        words[3] |= _CSV_SEPARATORS[at]
        buf[:n, at] = words.transpose(1, 2, 0)
        cell_at = (bad // len(at) * len(_CSV_SEPARATORS) + at[bad % len(at)]) * 32
        fh.write(_text(buf[:n], cell_at.tolist(), [_G17 % v for v in flat[bad].tolist()]))


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _G17 % v


def rows_to_csv(header: str, rows) -> str:
    """A table under ``header``: booleans as true/false, integers as they
    are, None as an empty cell and other numbers as in :func:`record_to_csv`."""
    return header + "\n" + "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def _finite(obj):
    """``obj`` with None in place of each non-finite float."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def json_dumps(obj) -> str:
    """Strict JSON: a non-finite float (an overflowed average) is null."""
    return json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


@contextlib.contextmanager
def open_atomic(path):
    """A text handle on a fresh temporary file in ``path``'s directory,
    renamed to ``path`` when the block ends and deleted if the block raises.
    A path that cannot be written is a :class:`ConfigError`."""
    path = Path(path)
    # a fresh name per call, so neither a concurrent writer nor a leftover
    # file or directory can collide with it ("x" refuses to reuse one)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from None


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`open_atomic`."""
    with open_atomic(path) as fh:
        fh.write(text)


def write_report(out_dir, name: str, payload: dict, header: str | None = None, rows=None) -> None:
    """A command's report: ``<name>.json`` and, given a CSV header, the
    table ``rows`` as ``<name>.csv``."""
    out_dir = Path(out_dir)
    write_text_atomic(out_dir / f"{name}.json", json_dumps(payload))
    if header is not None:
        write_text_atomic(out_dir / f"{name}.csv", rows_to_csv(header, rows))


def seed_csv_name(seed: int) -> str:
    return f"seed_{seed}.csv"


def refuse_stale_seeds(out_dir, seeds, formats) -> None:
    """One run per results directory, whatever reads it: refuse a directory
    that holds a seed CSV this run will not write."""
    written = {seed_csv_name(seed) for seed in seeds} if "csv" in formats else set()
    stale = sorted(p.name for p in Path(out_dir).glob("seed_*.csv") if p.name not in written)
    if stale:
        raise ConfigError(f"{out_dir} holds {stale[0]}, a seed CSV of another run: give each run its own directory")


def write_run_outputs(records, out_dir, formats, summary: dict) -> None:
    out_dir = Path(out_dir)
    if "csv" in formats:
        for rec in records:
            with open_atomic(out_dir / seed_csv_name(rec.seed)) as fh:
                record_to_csv(rec, fh)
    if "json" in formats:
        write_text_atomic(out_dir / "summary.json", json_dumps(summary))
    if "svg" in formats:
        write_plots(out_dir, records)


# -- SVG charts ---------------------------------------------------------------

_W, _H = 640.0, 420.0
_ML, _MR, _MT, _MB = 72.0, 16.0, 36.0, 48.0
_SEED_STYLE = 'fill="none" stroke="#9aa7b1" stroke-width="1"'
_MEAN_STYLE = 'fill="none" stroke="#1f3044" stroke-width="2"'


def _fmt(v: float) -> str:
    return f"{v:.2f}"


@functools.cache
def _f2_tables():
    """The words of "%.2f" of a value whose hundredths round to r < 10**6:
    r // 100 at bytes 0-3 without leading zeros and the point at byte 4,
    then r % 100 at bytes 5-6."""
    four, g = _four_digits(), np.arange(10**4)
    leading_zeros = sum(g < 10**j for j in range(1, 4))  # the units digit stays
    cents = four[:100] >> np.uint64(16) << np.uint64(40)
    return four & ~_LOW_BYTES[leading_zeros] | np.uint64(ord(".") << 32), cents


def _f2_words(x: np.ndarray):
    """``(words, bad)``: the "%.2f" text of each float64 of ``x`` at bytes
    0-6 of a uint64, byte 7 free for a separator, and the indices of the
    values left empty for Python: those not finite, negative (-0.0 too), or
    printing as 10000.00 or more."""
    ok = ~np.signbit(x) & (x < 1e4)
    x = np.where(ok, x, 0.0)
    p = x * 100.0
    r = np.rint(p)
    # rint takes a tie of p to even; x * 100 == p + e exactly (Dekker), and
    # e says on which side of the tie x * 100 lies
    tie = np.flatnonzero(np.abs(p - r) == 0.5)
    if len(tie):
        hi, lo = _split(x[tie])
        e = (hi * 100.0 - p[tie]) + lo * 100.0
        r[tie] += np.sign(e) * ((p[tie] - r[tie]) * e > 0)
    ok &= r < 1e6
    r = (r * ok).astype(np.intp)
    ints, cents = _f2_tables()
    q = r // 100
    words = ints[q] | cents[r - q * 100]
    bad = np.flatnonzero(~ok)
    words[bad] = 0
    return words, bad


def _ticks_linear(lo: float, hi: float, n: int = 5):
    if hi == lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _ticks_log(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(int(lo_e), int(hi_e) + 1)]


def _log10(v: np.ndarray) -> np.ndarray:
    """``math.log10`` of each entry (``np.log10`` differs in the last ulp)."""
    return np.fromiter(map(math.log10, v.tolist()), np.float64, len(v))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal float64 bit patterns, where ``==`` would take -0.0 for 0.0."""
    return a.shape == b.shape and bool((a.view(np.int64) == b.view(np.int64)).all())


def _range(arrays) -> tuple[float, float]:
    """The least and greatest entry over ``arrays``, without joining them."""
    return min(float(a.min()) for a in arrays), max(float(a.max()) for a in arrays)


def svg_line_chart(fh, columns, title: str, ylabel: str, log: bool = False) -> None:
    """A chart of a run's float columns over its steps t = 1..T, written to
    the text handle ``fh``: the frame, then each column as a gray polyline
    and their mean at each step as a dark one, each as soon as it is
    formatted. ``log`` makes both axes logarithmic.

    A step whose value is not finite (or, on the log chart, not positive)
    is dropped from its line. Purely textual output: same input, same bytes.
    """
    t = np.arange(1.0, len(columns[0]) + 1)
    # each step's mean sums one contiguous row of a (T, S) stack, in seed order
    lines = [(ys, _SEED_STYLE) for ys in columns] + [(np.stack(columns, axis=1).mean(axis=1), _MEAN_STYLE)]
    cleaned = []  # (the kept steps, their values, style)
    for ys, style in lines:
        keep = np.isfinite(ys) & (ys > 0.0) if log else np.isfinite(ys)
        if keep.any():  # a copy only of a line that loses steps
            cleaned.append((t, ys, style) if keep.all() else (t[keep], ys[keep], style))

    # with nothing to draw: t over [1, 10], y over one decade or over [0, 1]
    x_lo, x_hi = _range([xs for xs, _, _ in cleaned] or [np.array([1.0, 10.0])])
    y_lo, y_hi = _range([ys for _, ys, _ in cleaned] or [np.array([1.0, 10.0] if log else [0.0, 1.0])])
    tr = math.log10 if log else float
    ax_lo, ax_hi = tr(x_lo), tr(x_hi)
    ay_lo, ay_hi = tr(y_lo), tr(y_hi)
    if ax_hi == ax_lo:
        ax_hi = ax_lo + 1.0
    if ay_hi == ay_lo:
        ay_hi = ay_lo + 1.0
    pad_y = 0.05 * (ay_hi - ay_lo)
    ay_lo -= pad_y
    ay_hi += pad_y

    # pixels of axis values (logarithms on a log axis), of floats or arrays
    px = lambda a: _ML + (a - ax_lo) / (ax_hi - ax_lo) * (_W - _ML - _MR)
    py = lambda a: _H - _MB - (a - ay_lo) / (ay_hi - ay_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        f'<rect x="0" y="0" width="{int(_W)}" height="{int(_H)}" fill="#ffffff"/>',
        f'<rect x="{_fmt(_ML)}" y="{_fmt(_MT)}" width="{_fmt(_W - _ML - _MR)}" '
        f'height="{_fmt(_H - _MT - _MB)}" fill="none" stroke="#444444" stroke-width="1"/>',
        f'<text x="{_fmt(_W / 2)}" y="22" font-family="monospace" font-size="14" '
        f'text-anchor="middle">{title}</text>',
        f'<text x="{_fmt(_W / 2)}" y="{_fmt(_H - 10)}" font-family="monospace" font-size="12" '
        'text-anchor="middle">t</text>',
        f'<text x="16" y="{_fmt(_H / 2)}" font-family="monospace" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {_fmt(_H / 2)})">{ylabel}</text>',
    ]

    for v in _ticks_log(x_lo, x_hi) if log else _ticks_linear(x_lo, x_hi):
        if tr(v) < ax_lo - 1e-12 or tr(v) > ax_hi + 1e-12:
            continue
        X = px(tr(v))
        out.append(f'<line x1="{_fmt(X)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(X)}" '
                   f'y2="{_fmt(_H - _MB + 5)}" stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(X)}" y="{_fmt(_H - _MB + 18)}" font-family="monospace" '
                   f'font-size="10" text-anchor="middle">{v:.4g}</text>')
    y_lo_t, y_hi_t = (10.0 ** ay_lo, 10.0 ** ay_hi) if log else (ay_lo, ay_hi)
    # log ticks start at 1e-300 at the lowest: 10.0**-324 would round to 0
    y_ticks = _ticks_log(max(y_lo_t, 1e-300), y_hi_t) if log else _ticks_linear(y_lo_t, y_hi_t)
    for v in y_ticks:
        if tr(v) < ay_lo - 1e-12 or tr(v) > ay_hi + 1e-12:
            continue
        Y = py(tr(v))
        out.append(f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(Y)}" x2="{_fmt(_ML)}" '
                   f'y2="{_fmt(Y)}" stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(_ML - 8)}" y="{_fmt(Y + 3)}" font-family="monospace" '
                   f'font-size="10" text-anchor="end">{v:.4g}</text>')
    fh.write("\n".join(out) + "\n")

    # a point is two words, "x," and "y ". Each step's x text is printed
    # once (a kept step's pixel lies in [_ML, _W - _MR], which _f2_words
    # always prints) into the points of the lines that keep every step. A
    # line whose steps and ys are those of the one before reuses its text
    every_step = np.empty((len(t), 2), np.uint64)
    every_step[:, 0] = _f2_words(px(_log10(t) if log else t))[0] | np.uint64(ord(",") << 56)
    last_xs = last_ys = np.empty(0)  # matches no line
    for xs, ys, style in cleaned:
        if not (_same_bits(xs, last_xs) and _same_bits(ys, last_ys)):
            points = every_step if xs is t else every_step[xs.astype(np.intp) - 1]  # a copy: its own y words
            y = py(_log10(ys) if log else ys)
            words, bad = _f2_words(y)
            points[:, 1] = words | np.uint64(ord(" ") << 56)
            points[-1, 1] = words[-1]
            coords = _text(points, (16 * bad + 8).tolist(), [_fmt(v) for v in y[bad].tolist()])
        last_xs, last_ys = xs, ys
        fh.write(f'<polyline {style} points="')
        fh.write(coords)  # the largest string of a chart, written without a copy
        fh.write('"/>\n')
    fh.write("</svg>\n")


_METRICS = (  # column (and chart <column>.svg), title, log axes
    ("grad_norm", "exact gradient norm", True),
    ("f_val", "objective value", False),
    ("eta", "step size", False),
)


def write_plots(out_dir, records) -> None:
    """One chart per metric of the records, in seed order (see
    :func:`svg_line_chart`). A column the run did not record is charted as
    NaN: its chart keeps no line."""
    records = sorted(records, key=lambda r: r.seed)
    missing = np.full(len(records[0].eta), np.nan)  # the records of a run share their steps
    for column, title, log in _METRICS:
        cols = [missing if getattr(rec, column) is None else getattr(rec, column) for rec in records]
        with open_atomic(out_dir / f"{column}.svg") as fh:
            svg_line_chart(fh, cols, title, column, log)
