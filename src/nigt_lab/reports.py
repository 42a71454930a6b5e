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


# Rows of a seed CSV formatted per write, whatever the horizon: at most
# about 36 KB of text (a row of every column takes 100-140 B), and about
# 140 KB while it is formatted; larger chunks write no faster.
CSV_CHUNK_ROWS = 2**8


def record_to_csv(record: TrajectoryRecord, fh) -> None:
    """One row per step, written to the text handle ``fh`` in chunks of
    :data:`CSV_CHUNK_ROWS` rows; a column the run did not record is empty cells.

    A column of one bit pattern (the rate of a constant-rate run) is
    formatted once, into the row template: no formatted float holds a "%".
    """
    cells, cols = ["%d"], []
    for c in (getattr(record, f) for f in _CSV_FIELDS):
        if c is None:
            cells.append("")
        elif len(c) and (c.view(np.int64) == c.view(np.int64)[0]).all():
            cells.append("%.17g" % c[0])
        else:
            cells.append("%.17g")
            cols.append(c)
    row = ",".join(cells) + "\n"
    fh.write(CSV_HEADER + "\n")
    for lo in range(0, len(record.eta), CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, len(record.eta))
        data = [range(lo + 1, hi + 1)] + [c[lo:hi].tolist() for c in cols]
        fh.write("".join(map(row.__mod__, zip(*data))))


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % v


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


def svg_line_chart(fh, series, title: str, xlabel: str, ylabel: str,
                   xlog: bool = False, ylog: bool = False) -> None:
    """Multi-polyline chart, written to the text handle ``fh``: the frame,
    then each polyline as soon as it is formatted. ``series`` is a list of
    (xs, ys, style) triples of float arrays.

    Points with a non-finite or (on log axes) non-positive coordinate are
    dropped. Purely textual output: same input, same bytes.
    """
    cleaned = []
    for xs, ys, style in series:
        keep = np.isfinite(xs) & np.isfinite(ys)
        if xlog:
            keep &= xs > 0.0
        if ylog:
            keep &= ys > 0.0
        if keep.any():  # a copy only of a series that loses points
            cleaned.append((xs, ys, style) if keep.all() else (xs[keep], ys[keep], style))

    # with nothing to draw: x over [1, 10], y over one decade or over [0, 1]
    x_lo, x_hi = _range([xs for xs, _, _ in cleaned] or [np.array([1.0, 10.0])])
    y_lo, y_hi = _range([ys for _, ys, _ in cleaned] or [np.array([1.0, 10.0] if ylog else [0.0, 1.0])])
    tx = math.log10 if xlog else float
    ty = math.log10 if ylog else float
    ax_lo, ax_hi = tx(x_lo), tx(x_hi)
    ay_lo, ay_hi = ty(y_lo), ty(y_hi)
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
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_fmt(_H / 2)}" font-family="monospace" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {_fmt(_H / 2)})">{ylabel}</text>',
    ]

    # log ticks start at 1e-300 at the lowest: 10.0**-324 would round to 0
    x_ticks = _ticks_log(max(x_lo, 1e-300), x_hi) if xlog else _ticks_linear(x_lo, x_hi)
    for v in x_ticks:
        if tx(v) < ax_lo - 1e-12 or tx(v) > ax_hi + 1e-12:
            continue
        X = px(tx(v))
        out.append(f'<line x1="{_fmt(X)}" y1="{_fmt(_H - _MB)}" x2="{_fmt(X)}" '
                   f'y2="{_fmt(_H - _MB + 5)}" stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(X)}" y="{_fmt(_H - _MB + 18)}" font-family="monospace" '
                   f'font-size="10" text-anchor="middle">{v:.4g}</text>')
    y_lo_t = 10.0 ** ay_lo if ylog else ay_lo
    y_hi_t = 10.0 ** ay_hi if ylog else ay_hi
    y_ticks = _ticks_log(max(y_lo_t, 1e-300), y_hi_t) if ylog else _ticks_linear(y_lo_t, y_hi_t)
    for v in y_ticks:
        if ty(v) < ay_lo - 1e-12 or ty(v) > ay_hi + 1e-12:
            continue
        Y = py(ty(v))
        out.append(f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(Y)}" x2="{_fmt(_ML)}" '
                   f'y2="{_fmt(Y)}" stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(_ML - 8)}" y="{_fmt(Y + 3)}" font-family="monospace" '
                   f'font-size="10" text-anchor="end">{v:.4g}</text>')
    fh.write("\n".join(out) + "\n")

    # a polyline whose xs (and ys) are those of the one before reuses its
    # x text (and its points); "%.2f" formats a float exactly as _fmt does
    last_xs = last_ys = None
    for xs, ys, style in cleaned:
        same_x = last_xs is not None and _same_bits(xs, last_xs)
        if not (same_x and _same_bits(ys, last_ys)):
            if not same_x:  # the x text goes into the template, the y text is left for each line
                line = " ".join(["%.2f,%%.2f"] * len(xs)) % tuple(px(_log10(xs) if xlog else xs).tolist())
            coords = line % tuple(py(_log10(ys) if ylog else ys).tolist())
        last_xs, last_ys = xs, ys
        fh.write(f'<polyline {style} points="')
        fh.write(coords)  # the largest string of a chart, written without a copy
        fh.write('"/>\n')
    fh.write("</svg>\n")


_METRICS = (  # column (and chart <column>.svg), title, log x axis, log y axis
    ("grad_norm", "exact gradient norm", True, True),
    ("f_val", "objective value", False, False),
    ("eta", "step size", False, False),
)


def write_plots(out_dir, records) -> None:
    """One chart per metric: each record, in seed order, as a gray polyline,
    and their mean at each step as a dark line. A column the run did not
    record is charted as NaN: its chart keeps no line."""
    records = sorted(records, key=lambda r: r.seed)
    t = np.arange(1.0, len(records[0].eta) + 1)  # the records of a run share their steps
    missing = np.full(len(t), np.nan)
    for column, title, xlog, ylog in _METRICS:
        cols = [missing if getattr(rec, column) is None else getattr(rec, column) for rec in records]
        series = [(t, col, _SEED_STYLE) for col in cols]
        # each step's mean sums one contiguous row of a (T, S) stack, in seed order
        series.append((t, np.stack(cols, axis=1).mean(axis=1), _MEAN_STYLE))
        with open_atomic(out_dir / f"{column}.svg") as fh:
            svg_line_chart(fh, series, title, "t", column, xlog=xlog, ylog=ylog)
