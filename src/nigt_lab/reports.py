"""Deterministic result files: CSV trajectories, JSON summaries, SVG charts.

CSV numbers carry 17 significant digits (exact float64 round-trip), JSON uses
shortest round-trip decimals, and SVG charts are hand-emitted primitives so
identical inputs produce identical bytes on every platform. Files are written
atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .core import TrajectoryRecord
from .errors import NoResults

# Wire-format column names; the last column is fixed by the file-format
# contract even though the in-memory field is called descent_residual.
CSV_HEADER = "t,f_val,grad_norm,eta,alpha,m_norm,mhat_err,lemma1_residual"

_CSV_FIELDS = ("f_val", "grad_norm", "eta", "alpha", "m_norm", "mhat_err", "descent_residual")


def format_num(x: float | None) -> str:
    """17-significant-digit decimal; empty string for a missing value."""
    if x is None:
        return ""
    return format(float(x), ".17g")


def record_to_csv(record: TrajectoryRecord) -> str:
    """One row per step; a column the run did not record is empty cells.
    ``"%.17g" %`` formats exactly as :func:`format_num`."""
    cols = [getattr(record, f) for f in _CSV_FIELDS]
    row = ",".join(["%d"] + ["" if c is None else "%.17g" for c in cols]) + "\n"
    data = [range(1, len(record.eta) + 1)] + [c.tolist() for c in cols if c is not None]
    return CSV_HEADER + "\n" + "".join(map(row.__mod__, zip(*data)))


def parse_run_csv(text: str) -> dict[str, list]:
    """Columns of one run CSV; empty cells become None."""
    lines = text.strip("\n").split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise NoResults(f"unexpected CSV header: {lines[0] if lines else '(empty)'}")
    cols: dict[str, list] = {name: [] for name in CSV_HEADER.split(",")}
    names = CSV_HEADER.split(",")
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise NoResults(f"malformed CSV row: {line!r}")
        for name, cell in zip(names, cells):
            if name == "t":
                cols[name].append(int(cell))
            else:
                cols[name].append(float(cell) if cell != "" else None)
    return cols


def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_text_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name per call, so neither a concurrent writer nor a leftover
    # file or directory can collide with it ("x" refuses to reuse one)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def seed_csv_name(seed: int) -> str:
    return f"seed_{seed}.csv"


def write_run_outputs(records, out_dir, formats, summary: dict) -> None:
    out_dir = Path(out_dir)
    if "csv" in formats:
        for rec in records:
            write_text_atomic(out_dir / seed_csv_name(rec.seed), record_to_csv(rec))
    if "json" in formats:
        write_text_atomic(out_dir / "summary.json", json_dumps(summary))
    if "svg" in formats:
        write_plots(out_dir, [_chart_columns(rec) for rec in records])


def _chart_columns(record: TrajectoryRecord) -> dict:
    cols = {name: getattr(record, name) for name, _, _, _ in _METRICS}
    cols["t"] = np.arange(1, len(record.eta) + 1)
    return cols


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
    import math

    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(int(lo_e), int(hi_e) + 1)]


def svg_line_chart(series, title: str, xlabel: str, ylabel: str,
                   xlog: bool = False, ylog: bool = False) -> str:
    """Multi-polyline chart; ``series`` is a list of (xs, ys, style) triples.

    Points with missing (None or NaN) or (on log axes) non-positive
    coordinates are dropped. Purely textual output: same input, same bytes.
    """
    import math

    cleaned = []
    for xs, ys, style in series:
        pts = []
        for x, y in zip(_values(xs), _values(ys)):
            if x is None or y is None or x != x or y != y:
                continue
            if (xlog and x <= 0.0) or (ylog and y <= 0.0):
                continue
            pts.append((float(x), float(y)))
        if pts:
            cleaned.append((pts, style))

    all_x = [p[0] for pts, _ in cleaned for p in pts]
    all_y = [p[1] for pts, _ in cleaned for p in pts]
    if not all_x:
        all_x, all_y = [1.0, 10.0], [0.0, 1.0]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if xlog:
        tx = lambda v: math.log10(v)
    else:
        tx = lambda v: v
    if ylog:
        ty = lambda v: math.log10(v)
    else:
        ty = lambda v: v
    ax_lo, ax_hi = tx(x_lo), tx(x_hi)
    ay_lo, ay_hi = ty(y_lo), ty(y_hi)
    if ax_hi == ax_lo:
        ax_hi = ax_lo + 1.0
    if ay_hi == ay_lo:
        ay_hi = ay_lo + 1.0
    pad_y = 0.05 * (ay_hi - ay_lo)
    ay_lo -= pad_y
    ay_hi += pad_y

    px = lambda v: _ML + (tx(v) - ax_lo) / (ax_hi - ax_lo) * (_W - _ML - _MR)
    py = lambda v: _H - _MB - (ty(v) - ay_lo) / (ay_hi - ay_lo) * (_H - _MT - _MB)

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

    x_ticks = _ticks_log(x_lo, x_hi) if xlog else _ticks_linear(x_lo, x_hi)
    for v in x_ticks:
        if tx(v) < ax_lo - 1e-12 or tx(v) > ax_hi + 1e-12:
            continue
        X = px(v)
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
        Y = py(v)
        out.append(f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(Y)}" x2="{_fmt(_ML)}" '
                   f'y2="{_fmt(Y)}" stroke="#444444" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(_ML - 8)}" y="{_fmt(Y + 3)}" font-family="monospace" '
                   f'font-size="10" text-anchor="end">{v:.4g}</text>')

    for pts, style in cleaned:
        coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
        out.append(f'<polyline {style} points="{coords}"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


_METRICS = (
    ("grad_norm", "grad_norm.svg", True, True),
    ("f_val", "f_val.svg", False, False),
    ("eta", "eta.svg", False, False),
)


def _values(seq) -> list:
    """Plain Python numbers of a column (None for an unrecorded one)."""
    if seq is None:
        return []
    return seq.tolist() if isinstance(seq, np.ndarray) else seq


def _mean_line(columns, n: int) -> np.ndarray:
    """Mean over runs at each of the first n steps, NaN unless every run
    has a value there. Each step's values are one contiguous row, reduced
    exactly as ``np.mean`` of that list of values."""
    stack = np.full((n, len(columns)), np.nan)
    for j, col in enumerate(columns):
        if col is not None:
            vals = np.array(col[:n], dtype=np.float64)  # None cells become NaN
            stack[:len(vals), j] = vals
    return stack.mean(axis=1)


def write_plots(out_dir, runs: list[dict]) -> list[Path]:
    """One chart per metric; every run as a gray polyline plus a dark mean
    line. Each run is a dict of columns: ``t`` and the charted metrics."""
    out_dir = Path(out_dir)
    if not runs:
        raise NoResults("no run CSVs to plot")
    written = []
    for column, fname, xlog, ylog in _METRICS:
        series = [(cols["t"], cols[column], _SEED_STYLE) for cols in runs]
        t_common = runs[0]["t"]
        means = _mean_line([cols[column] for cols in runs], len(t_common))
        series.append((t_common, means, _MEAN_STYLE))
        name = {"grad_norm": "exact gradient norm", "f_val": "objective value",
                "eta": "step size"}[column]
        path = out_dir / fname
        write_text_atomic(path, svg_line_chart(series, name, "t", column, xlog=xlog, ylog=ylog))
        written.append(path)
    return written


def plot_results_dir(results_dir, out_dir=None) -> list[Path]:
    """Charts for every seed CSV found in ``results_dir``."""
    results_dir = Path(results_dir)
    paths = sorted(results_dir.glob("seed_*.csv"))
    if not paths:
        raise NoResults(f"no seed_*.csv files in {results_dir}")
    runs = [parse_run_csv(p.read_text(encoding="utf-8")) for p in paths]
    return write_plots(out_dir if out_dir is not None else results_dir, runs)
