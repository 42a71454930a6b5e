"""Differential tests of the transport step, of the layerwise move, of
certification, of the runner's oracle noise, of the output layer and of the
command line against frozen copies of their earlier forms.

The step takes the row norms of the momentum once and reads them three
times (the move, the non-finite-sample check, the logged ``m_norm``), and
takes the transport weight from its momentum weights, where its callers
once passed it in; certification computes its L and rho ratios for all
pairs at once; the runner draws each block's noise when the block starts,
where a tape once drew it ahead on a cadence of its own; the CSV writer
writes its rows a chunk at a time and a chart its polylines one at a time,
where each once returned the text of its whole file, and a chart draws a
run's columns over its steps, where it once took any x axis for each line
and a log flag for each axis; the command line loads
a file once and passes its sections straight to the functions that read
them, and refuses the keys its builders left unread, where read sets once
stated them; a run's rates are checked once, when its configuration is
built, where the rate resolver and the runner once checked them with two
domains, and a theorem's tuning refuses rates that round out of their
domain, where the run once did; and a layer partition holds its
boundaries, where it once held index ranges that a cover check had to
order. The ``ref_*`` code below is the code they replaced, kept
verbatim as the reference: every state byte, every exception (type, row and
text), every certification report, every noise row a step reads, every
output string and every command's exit code, stdout, stderr and written
bytes must match it.
"""

import contextlib
import functools
import inspect
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nigt_lab import cli, harness, reports
from nigt_lab.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, _Parser, _UsageError, build_parser, main
from nigt_lab.config import (
    _SCHEMA,
    _format_value,
    _require,
    load_experiment,
    output_dir,
    parse_experiment,
    refuse_unread,
    serialize_experiment,
)
from nigt_lab.core import (
    MAX_CERT_CELLS,
    MAX_LOG_CELLS,
    MAX_SEEDS,
    NORM_FLOOR,
    InvariantEvent,
    RngStream,
    TrajectoryRecord,
    normalize,
    rowdot,
    rownorm,
)
from nigt_lab.errors import (
    CertificationFailure,
    ConfigError,
    Diverged,
    InvalidInput,
    NigtLabError,
    NonFiniteGradient,
)
from nigt_lab.harness import (
    CONTAINMENT_PAIRS,
    DEFAULT_ETA_GRID,
    OPTIMIZER_IDS,
    BoundReport,
    BoundRow,
    RunConfig,
    SweepReport,
    SweepRow,
    igt_moment_check,
    rate_diagnostic,
    run,
)
from nigt_lab.tuning import THEOREM_METHODS, bound_check, nigt_bound, nigt_params, nsgdm_bound, nsgdm_params
from nigt_lab.optimizers import (
    _INV_REL_TOL,
    METHODS,
    WEIGHT_NORM_FLOOR,
    LayerPartition,
    Schedule,
    SelfTuning,
    StepState,
    blockwise_move,
    normalized_move,
    paired_sq_diff,
    plain_move,
    transport_step,
)
from nigt_lab.problems import (
    CERT_N_SIGMA,
    PROBLEM_KINDS,
    CertReport,
    NoisyQuadratic,
    StochasticProblem,
    certify_constants,
    fd_slack,
    fd_step,
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
    taylor_remainder,
    with_constants,
)
from nigt_lab.reports import (
    _CSV_FIELDS,
    _MEAN_STYLE,
    _SEED_STYLE,
    _H,
    _MB,
    _ML,
    _MR,
    _MT,
    _W,
    CSV_HEADER,
    _fmt,
    _log10,
    _same_bits,
    _ticks_linear,
    _ticks_log,
    json_dumps,
    record_to_csv,
    rows_to_csv,
    svg_line_chart,
    write_plots,
    write_run_outputs,
    write_text_atomic,
)

# the results-directory errors are config errors now; the reference names them as it did
NoResults = ConfigError

# -- the reference: the per-call forms, verbatim --------------------------------

BLOCK_BYTES = 256 * 1024  # read by ref_NoiseTape; the tests set it with the runner's
DEFAULT_CERT_RADIUS = 10.0  # the containment radius's floor, read by ref_bound_acceptance


class ref_NoiseTape:
    """Oracle randomness of the given streams of every seed, drawn ahead in
    blocks.

    Each block holds the next rows of every stream, at most
    :data:`BLOCK_BYTES` per stream, so memory stays bounded whatever
    the horizon. The streams are counter-based, so a block holds exactly
    the numbers one draw per step would have produced.
    """

    def __init__(self, problem: StochasticProblem, seeds, stream_ids, T: int):
        self.problem = problem
        self.streams = [[RngStream(seed, sid) for seed in seeds] for sid in stream_ids]
        self.left = T
        row_bytes = 8 * problem.noise_width
        rows = min(T, max(1, BLOCK_BYTES // row_bytes)) if row_bytes else T
        self.block = np.empty((rows, len(stream_ids), len(seeds), problem.noise_width))  # refilled in place
        self.size = self.pos = 0

    def next(self) -> np.ndarray:
        """The noise of the next step, ``(streams, seeds, noise_width)``."""
        if self.pos == self.size:
            self.size = min(len(self.block), self.left)
            for j, streams in enumerate(self.streams):
                for i, rng in enumerate(streams):
                    self.block[:self.size, j, i] = self.problem.sample_noise(rng, self.size)
            self.left -= self.size
            self.pos = 0
        self.pos += 1
        return self.block[self.pos - 1]


def ref_normalize(v, floor: float = 0.0):
    if floor < 0.0:
        raise InvalidInput(f"floor must be >= 0, got {floor}")
    v = np.asarray(v, dtype=np.float64)
    rows = v.reshape(-1, v.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        n = rownorm(rows)
    num, den = rows, n
    in_range = (n > 1e-150) & (n < 1e150)
    if not in_range.all():
        num, den = rows.copy(), n.copy()
        for i in np.flatnonzero(~in_range):
            big = float(np.max(np.abs(rows[i])))
            if 0.0 < big < math.inf:
                e = math.frexp(big)[1]
                num[i] = np.ldexp(rows[i], -e)
                den[i] = n_u = float(rownorm(num[i]))
                with np.errstate(over="ignore"):
                    n[i] = np.ldexp(n_u, e)
            elif not math.isfinite(n[i]):
                raise InvalidInput("cannot normalize a non-finite vector")
    ok = n > floor
    unit = num / (den if ok.all() else np.where(ok, den, 1.0))[:, None]
    return unit.reshape(v.shape), ok.reshape(v.shape[:-1])


def ref_check_finite_rows(g):
    bad = ~np.isfinite(g).all(axis=-1)
    if bad.any():
        raise NonFiniteGradient("gradient sample contains NaN or Inf", int(np.flatnonzero(bad)[0]))


def ref_transport_step(s, sample, eta, k, beta, alpha, move):
    bad = ~(np.greater_equal(eta, 0.0) & np.isfinite(eta))
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise NonFiniteGradient(f"eta must be finite and >= 0, got {float(np.ravel(eta)[row])}", row)
    at_w = np.equal(k, 0.0)
    if at_w.all():
        x = s.w
    else:
        x = s.w + k * (s.w - s.w_prev)
        if at_w.any():
            x = np.where(at_w, s.w, x)
    g = sample(x)
    ref_check_finite_rows(g)
    m = beta * s.m + alpha * g
    w, moved = move(s.w, m, eta)
    return StepState(w=w, w_prev=s.w, m=m, no_move=~moved), x, g


def ref_plain_move(w, m, eta):
    return w - eta * m, np.ones(w.shape[:-1], dtype=bool)


def ref_normalized_move(w, m, eta):
    unit, moved = ref_normalize(m, NORM_FLOOR)
    w_new = w - eta * unit
    return (w_new if moved.all() else np.where(moved[..., None], w_new, w)), moved


def ref_accumulate(self, t, g, g_paired):
    gb2 = self.g_bound * self.g_bound
    drift = gb2 * (float(t + 1) ** 0.25 - float(t) ** 0.25)
    diff = g - g_paired
    delta = float(diff @ diff) + drift
    G_next = self.G + delta
    if G_next < self.G:
        self.events.append(InvariantEvent("g_decreased", t, G_next, self.G))
    delta_cap = 4.0 * gb2 + drift
    if delta > delta_cap * (1.0 + _INV_REL_TOL):
        self.events.append(InvariantEvent("g_increment_above_bound", t, delta, delta_cap))
    if delta < drift * (1.0 - _INV_REL_TOL):
        self.events.append(InvariantEvent("g_increment_below_drift", t, delta, drift))
    self.G_prev, self.G, self.delta = self.G, G_next, delta


def ref_taylor_remainder(problem, x, y):
    v = x - y
    sep = float(np.linalg.norm(v))
    if sep == 0.0:
        return np.zeros(problem.dim)
    u = v / sep
    h = fd_step(float(np.linalg.norm(y)))
    hvp = (problem.exact_grad(y + h * u) - problem.exact_grad(y - h * u)) / (2.0 * h) * sep
    return problem.exact_grad(x) - problem.exact_grad(y) - hvp


def ref_ball_point(rng, center, radius):
    d = center.size
    v = rng.generator.normal(size=d)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        return center.copy()
    r = radius * float(rng.generator.random()) ** (1.0 / d)
    return center + (r / n) * v


def ref_ball_pairs(rng, center, radius, n_pairs):
    min_sep = 1e-6 * radius
    done = 0
    while done < n_pairs:
        x = ref_ball_point(rng, center, radius)
        y = ref_ball_point(rng, center, radius)
        sep = float(np.linalg.norm(x - y))
        if sep < min_sep:
            continue
        done += 1
        yield x, y, sep


def ref_certify_constants(problem, n_pairs=400, radius=10.0, rng=None, tol=0.05, n_sigma=20_000):
    if n_pairs < 100:
        raise InvalidInput(f"n_pairs must be >= 100, got {n_pairs}")
    if rng is None:
        rng = RngStream(0, 17)
    slack = fd_slack(problem, radius)

    L_hat = 0.0
    rho_hat = 0.0
    for x, y, sep in ref_ball_pairs(rng, problem.w1, radius, n_pairs):
        L_hat = max(L_hat, float(np.linalg.norm(problem.exact_grad(x) - problem.exact_grad(y))) / sep)
        rho_hat = max(rho_hat, float(np.linalg.norm(ref_taylor_remainder(problem, x, y))) / sep**2)

    if problem.sigma_at_w1_only:
        points = [problem.w1]
    else:
        points = [problem.w1] + [ref_ball_point(rng, problem.w1, radius) for _ in range(19)]
    per_point = max(1, n_sigma // len(points))
    sq_err_sum = 0.0
    for pt in points:
        e = problem.noisy_grad(pt, problem.sample_noise(rng, per_point)) - problem.exact_grad(pt)
        for sq in rowdot(e, e).tolist():
            sq_err_sum += sq
    n_draws = per_point * len(points)
    sigma_hat = math.sqrt(sq_err_sum / n_draws)

    failures = []
    if L_hat > problem.L * (1.0 + tol):
        failures.append(f"L_hat {L_hat:.6g} exceeds declared L {problem.L:.6g} * (1+tol)")
    if rho_hat > problem.rho * (1.0 + tol) + slack:
        failures.append(f"rho_hat {rho_hat:.6g} exceeds declared rho {problem.rho:.6g} * (1+tol) + fd_slack")
    if not (problem.sigma * (1.0 - tol) <= sigma_hat <= problem.sigma * (1.0 + tol)):
        failures.append(
            f"sigma_hat {sigma_hat:.6g} outside [{problem.sigma * (1 - tol):.6g}, {problem.sigma * (1 + tol):.6g}]"
        )
    report = CertReport(
        problem_id=problem.problem_id, L_hat=L_hat, rho_hat=rho_hat, sigma_hat=sigma_hat,
        L_declared=problem.L, rho_declared=problem.rho, sigma_declared=problem.sigma, tol=tol,
        fd_slack=slack, radius=radius, n_pairs=n_pairs, n_sigma=n_draws, passed=not failures,
        failures=tuple(failures),
    )
    if failures:
        raise CertificationFailure("; ".join(failures), report=report)
    return report


def ref_record_to_csv(record: TrajectoryRecord) -> str:
    """One row per step; a column the run did not record is empty cells.

    A column of one bit pattern (the rate of a constant-rate run) is
    formatted once, into the row template: no formatted float holds a "%".
    """
    cells, data = ["%d"], [range(1, len(record.eta) + 1)]
    for c in (getattr(record, f) for f in _CSV_FIELDS):
        if c is None:
            cells.append("")
        elif len(c) and (c.view(np.int64) == c.view(np.int64)[0]).all():
            cells.append("%.17g" % c[0])
        else:
            cells.append("%.17g")
            data.append(c.tolist())
    row = ",".join(cells) + "\n"
    return CSV_HEADER + "\n" + "".join(map(row.__mod__, zip(*data)))


def ref_svg_line_chart(series, title: str, xlabel: str, ylabel: str,
                       xlog: bool = False, ylog: bool = False) -> str:
    """Multi-polyline chart; ``series`` is a list of (xs, ys, style) triples
    of float arrays.

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
        if keep.any():
            cleaned.append((xs[keep], ys[keep], style))

    # with nothing to draw: x over [1, 10], y over one decade or over [0, 1]
    all_x = np.concatenate([xs for xs, _, _ in cleaned] or [[1.0, 10.0]])
    all_y = np.concatenate([ys for _, ys, _ in cleaned] or [[1.0, 10.0] if ylog else [0.0, 1.0]])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
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
        out.append(f'<polyline {style} points="{coords}"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- inputs -----------------------------------------------------------------------

# powers of ten that put row norms inside (1e-150, 1e150), below it, above it,
# at the 1e-300 norm floor and among the subnormals
SCALES = (0, -140, -155, -160, -200, -300, -310, 140, 155, 160, 200, 300, 307)
# rows whose norm sits on either side of the norm floor, or is zero
FLOOR_ROWS = (1e-300, 1e-300 * (1.0 + 2.0**-52), 1e-300 * (1.0 - 2.0**-53), 5e-324, 0.0)


@st.composite
def rows(draw, S, d, nonfinite=False):
    """``(S, d)``: each row [-10, 10] entries at its own power-of-ten scale, or
    a row whose norm is at the floor; with ``nonfinite`` some rows hold a
    NaN or an infinity."""
    out = []
    for _ in range(S):
        if draw(st.integers(0, 5)) == 0:
            row = np.zeros(d)
            row[draw(st.integers(0, d - 1))] = draw(st.sampled_from(FLOOR_ROWS))
        else:
            row = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
            row = row * 10.0 ** draw(st.sampled_from(SCALES))
        if nonfinite and draw(st.booleans()):
            row[draw(st.integers(0, d - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        out.append(row)
    return np.array(out)


def coefficient(values, S):
    """A scalar or an ``(S, 1)`` column of ``values``."""
    return st.one_of(values, st.lists(values, min_size=S, max_size=S).map(lambda v: np.array(v)[:, None]))


ETAS = st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, -0.0, -1.0, -1e-300, math.nan, math.inf]))
# the self-tuning method's alpha_t: 1 at step 1, below it later, above it
# when a corrupted accumulator pushes it there
ALPHAS = st.one_of(st.just(1.0), st.floats(1e-6, 2.0))


@st.composite
def weights(draw, S):
    """(beta, alpha) as the runner passes them: scalars for a fixed beta, or
    the self-tuning method's ``(S, 1)`` columns with beta = 1 - alpha, whose
    rows at alpha = 1 transport by k = 0 next to rows that do not."""
    if draw(st.booleans()):
        beta = draw(st.one_of(st.sampled_from([0.0, 0.5, 0.9]), st.floats(0.0, 1.0)))
        # alpha above one (a corrupted self-tuning weight) lets a finite g overflow m
        return beta, draw(st.sampled_from([1.0 - beta, 1.0, 2.0]))
    alpha = np.array(draw(st.lists(ALPHAS, min_size=S, max_size=S)))[:, None]
    return 1.0 - alpha, alpha


@st.composite
def step_inputs(draw):
    S, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    w = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=S * d, max_size=S * d))).reshape(S, d)
    w_prev = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=S * d, max_size=S * d))).reshape(S, d)
    m, g = draw(rows(S, d)), draw(rows(S, d, nonfinite=True))
    eta, (beta, alpha) = draw(coefficient(ETAS, S)), draw(weights(S))
    vector = S == 1 and draw(st.booleans())  # one vector, not a batch
    if S == 1 and isinstance(alpha, np.ndarray) and (vector or draw(st.booleans())):
        beta, alpha = beta[0, 0], alpha[0, 0]  # numpy scalars, as the runner passes one seed's rates
    if vector:
        w, w_prev, m, g = w[0], w_prev[0], m[0], g[0]
        eta = float(np.ravel(eta)[0])
    return StepState(w=w, w_prev=w_prev, m=m), g, eta, beta, alpha, draw(st.booleans())


def ref_step(s, sample, eta, beta, alpha, move, transport):
    """The step the runner asks for, in the reference's terms: it transports
    by k = beta / alpha, or queries w itself (k = 0)."""
    return ref_transport_step(s, sample, eta, beta / alpha if transport else 0.0, beta, alpha, move)


def outcome(step, args):
    """What ``step(*args)`` returns, or the type, text and row of what it raises."""
    try:
        return step(*args)
    except (NonFiniteGradient, InvalidInput, ZeroDivisionError) as e:  # beta / alpha at alpha = 0.0
        return "raised", type(e).__name__, str(e), getattr(e, "row", None)


def raised(out) -> bool:
    return isinstance(out[0], str)


def state_bytes(out):
    s, x, g = out
    return [np.asarray(a).tobytes() for a in (s.w, s.w_prev, s.m, s.no_move, x, g)]


class TestTransportStep:
    @settings(max_examples=600)
    @given(step_inputs(), st.sampled_from(["normalized", "plain"]))
    def test_step_matches_the_per_call_step(self, inputs, kind):
        s, g, eta, beta, alpha, transport = inputs
        move, ref_move = {"normalized": (normalized_move, ref_normalized_move),
                          "plain": (plain_move, ref_plain_move)}[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ref = outcome(ref_step, (s, lambda x: g, eta, beta, alpha, ref_move, transport))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                new = outcome(transport_step, (s, lambda x: g, eta, beta, alpha, move, transport))
            except RuntimeWarning as w:
                # only the plain move can overflow (eta m) or meet 0 * inf, as it always could
                assert kind == "plain", w
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    with pytest.raises(RuntimeWarning, match=str(w)):
                        ref_step(s, lambda x: g, eta, beta, alpha, ref_move, transport)
                return
        if raised(ref):
            assert new == ref
            return
        assert state_bytes(new) == state_bytes(ref)
        # the m_norm column was rownorm of a block of stacked momenta
        with np.errstate(over="ignore", invalid="ignore"):
            logged = rownorm(np.stack([ref[0].m, ref[0].m]))[0]
        assert new[0].m_norm.tobytes() == logged.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_sample_is_refused_without_a_warning(self, bad):
        g = np.array([[1.0, 2.0], [3.0, bad], [bad, 0.0]])
        s = StepState(w=np.zeros((3, 2)), w_prev=np.zeros((3, 2)), m=np.full((3, 2), 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for alpha in (0.0, 1.0):  # 0 * inf and inf - inf are invalid operations
                with pytest.raises(NonFiniteGradient) as e:
                    transport_step(s, lambda x: g, 0.1, 1.0, alpha, normalized_move, False)
                assert (e.value.row, str(e.value)) == (1, "gradient sample contains NaN or Inf")

    @pytest.mark.parametrize("kind", ["normalized", "plain"])
    @pytest.mark.parametrize("transport", [False, True])
    @pytest.mark.parametrize("alpha", [0.1, np.empty((0, 1))], ids=["scalar", "column"])
    def test_an_empty_batch_steps_as_before(self, kind, transport, alpha):
        move, ref_move = {"normalized": (normalized_move, ref_normalized_move),
                          "plain": (plain_move, ref_plain_move)}[kind]
        s = StepState(w=np.empty((0, 3)), w_prev=np.empty((0, 3)), m=np.empty((0, 3)))
        args = (s, lambda x: x, 0.1, 1.0 - alpha, alpha)
        assert state_bytes(transport_step(*args, move, transport)) == state_bytes(ref_step(*args, ref_move, transport))
        assert [a.shape for a in normalize(s.m)] == [a.shape for a in ref_normalize(s.m)] == [(0, 3), (0,)]
        assert paired_sq_diff(s.m, s.m).shape == (0,)

    @settings(max_examples=300)
    @given(st.integers(1, 4).flatmap(lambda S: st.integers(1, 4).flatmap(lambda d: rows(S, d, nonfinite=True))),
           st.sampled_from([0.0, 1e-300, 1e-12]), st.booleans())
    def test_normalize_matches_the_per_call_normalize(self, v, floor, given_norms):
        with np.errstate(over="ignore", invalid="ignore"):
            n = rownorm(v) if given_norms else None
        kept = None if n is None else n.copy()
        ref, new = outcome(ref_normalize, (v, floor)), outcome(normalize, (v, floor, n))
        if raised(ref):
            assert new == ref
        else:
            assert [a.tobytes() for a in new] == [a.tobytes() for a in ref]
        if n is not None:  # the caller's norms (the logged m_norm) are left as they were
            assert n.tobytes() == kept.tobytes()


@st.composite
def paired_samples(draw):
    S, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    g = draw(rows(S, d))  # the momentum's sample passed the step's check
    return g, draw(rows(S, d, nonfinite=True))


class TestSelfTuningFeed:
    @settings(max_examples=300)
    @given(paired_samples(), st.sampled_from([1e-3, 1.0, 3.0, 1e3]), st.integers(1, 10**6))
    def test_one_rowdot_feeds_every_seed_as_the_per_row_loop(self, pair, g_bound, t):
        g, g_paired = pair
        ref_tuners = [SelfTuning(g_bound) for _ in g]
        new_tuners = [SelfTuning(g_bound) for _ in g]
        with np.errstate(over="ignore", invalid="ignore"):  # as inside the runner
            def ref_feed():
                ref_check_finite_rows(g_paired)
                for tuner, row, paired_row in zip(ref_tuners, g, g_paired):
                    ref_accumulate(tuner, t, row, paired_row)

            def new_feed():
                for tuner, sq in zip(new_tuners, paired_sq_diff(g, g_paired).tolist()):
                    tuner.accumulate(t, sq)

            assert outcome(new_feed, ()) == outcome(ref_feed, ())
        state = lambda tuner: repr((tuner.G, tuner.G_prev, tuner.delta, tuner.events))
        assert [state(u) for u in new_tuners] == [state(u) for u in ref_tuners]


# -- layer partitions ----------------------------------------------------------------
# A partition once held (lo, hi) index ranges, which could leave gaps, overlap
# or come out of order until a cover check refused them; now it holds the
# boundaries that the experiment file gives.


@dataclass(frozen=True)
class RefLayerPartition:
    """Disjoint index intervals covering [0, d), with a rate scale per layer."""

    ranges: tuple[tuple[int, int], ...]
    lr_scale: tuple[float, ...]

    def __post_init__(self):
        if len(self.ranges) != len(self.lr_scale):
            raise InvalidInput(f"{len(self.ranges)} ranges but {len(self.lr_scale)} scale factors")
        if not self.ranges:
            raise InvalidInput("partition must contain at least one range")
        for lo, hi in self.ranges:
            if not (0 <= lo < hi):
                raise InvalidInput(f"bad range ({lo}, {hi})")
        for sc in self.lr_scale:
            if sc <= 0.0:
                raise InvalidInput(f"lr scale must be positive, got {sc}")

    def validate_cover(self, dim: int) -> None:
        covered = sorted(self.ranges)
        pos = 0
        for lo, hi in covered:
            if lo != pos:
                raise InvalidInput(f"ranges leave a gap or overlap at index {pos}")
            pos = hi
        if pos != dim:
            raise InvalidInput(f"ranges cover [0, {pos}) but dim is {dim}")


def ref_blockwise_move(partition: RefLayerPartition, weight_norm_scaling: bool = False):
    def move(w: np.ndarray, m: np.ndarray, eta, n):
        w_new = w.copy()
        moved_all = np.ones(w.shape[:-1], dtype=bool)
        for (lo, hi), scale in zip(partition.ranges, partition.lr_scale):
            eta_layer = eta * scale
            if weight_norm_scaling:
                eta_layer = eta_layer * np.maximum(rownorm(w[..., lo:hi]), WEIGHT_NORM_FLOOR)[..., None]
            w_new[..., lo:hi], moved = normalized_move(w[..., lo:hi], m[..., lo:hi], eta_layer)
            moved_all &= moved
        return w_new, moved_all

    return move


# every finite scale > 0: the positive floats, subnormals and the largest among them
LAYER_SCALES = st.one_of(st.floats(0.0, exclude_min=True, allow_infinity=False),
                         st.sampled_from([1.0, 0.5, 3.0, 5e-324, 1e-300, 1e300, sys.float_info.max]))


@st.composite
def layered_moves(draw):
    """Boundaries rising from 0 to d, a scale per layer, and a move's (w, m,
    eta): ``(S, d)`` rows of any scale, or one vector, with a step size the
    step lets through (finite, >= 0) as a scalar or an ``(S, 1)`` column."""
    S, d = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    cuts = draw(st.sets(st.integers(1, d - 1), max_size=d - 1)) if d > 1 else set()
    boundaries = (0, *sorted(cuts), d)
    scales = tuple(draw(st.lists(LAYER_SCALES, min_size=len(boundaries) - 1, max_size=len(boundaries) - 1)))
    w, m = draw(rows(S, d)), draw(rows(S, d))
    eta = draw(coefficient(st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 1e-300, 1e300])), S))
    if S == 1 and draw(st.booleans()):  # one vector, not a batch
        w, m, eta = w[0], m[0], float(np.ravel(eta)[0])
    return boundaries, scales, draw(st.booleans()), w, m, eta


class TestLayerPartition:
    @settings(max_examples=300)
    @given(layered_moves())
    def test_the_boundaries_move_as_the_ranges_moved(self, inputs):
        boundaries, scales, weight_norm_scaling, w, m, eta = inputs
        ranges = tuple(zip(boundaries, boundaries[1:]))
        new_move = blockwise_move(LayerPartition(boundaries, scales), weight_norm_scaling)
        ref_move = ref_blockwise_move(RefLayerPartition(ranges, scales), weight_norm_scaling)
        kept = w.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # a scale near the largest float overflows eta
            new, ref = new_move(w, m, eta, rownorm(m)), ref_move(w, m, eta, rownorm(m))
        assert [(a.shape, a.dtype, a.tobytes()) for a in new] == [(a.shape, a.dtype, a.tobytes()) for a in ref]
        assert w.tobytes() == kept.tobytes()  # the move leaves its input as it was


# -- certification -------------------------------------------------------------------

PROBLEMS = {
    "noisy_quadratic": make_noisy_quadratic(3, [1.0, 2.0, 4.0], 0.5),
    "sign_noise": make_sign_noise(0.25),
    "trig_bowl": make_trig_bowl(4, 1.0, 2.0, 0.5),
    "streaming_least_squares": make_streaming_least_squares(3, [1.0, 0.5, 2.0], 0.3),
    "trig_bowl_underdeclared": with_constants(make_trig_bowl(2, 1.0, 1.0, 0.3), L=0.2, rho=0.1),
}


def certify_outcome(certify, problem, radius, seed):
    try:
        return certify(problem, n_pairs=300, radius=radius, rng=RngStream(seed, 101))
    except CertificationFailure as e:
        return str(e), e.report


class TestCertification:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("radius", [0.5, 10.0, 1e3])
    @pytest.mark.parametrize("kind", PROBLEMS)
    def test_report_matches_the_per_pair_loop(self, kind, radius, seed):
        pb = PROBLEMS[kind]
        # repr prints every float exactly, so equal reprs are equal bits
        assert repr(certify_outcome(certify_constants, pb, radius, seed)) == \
            repr(certify_outcome(ref_certify_constants, pb, radius, seed))

    def test_nan_ratios_are_skipped_as_the_running_max_skipped_them(self):
        # gradients of 1e160 x overflow on this ball: every rho ratio is NaN
        pb = make_noisy_quadratic(2, [1e160, 1.0], 0.5)
        with np.errstate(all="ignore"):
            new, ref = (certify_outcome(c, pb, 1e150, 0) for c in (certify_constants, ref_certify_constants))
        assert new[1].rho_hat == 0.0 and repr(new) == repr(ref)

    @pytest.mark.parametrize("kind", PROBLEMS)
    def test_taylor_remainder_rows_match_pairs(self, kind):
        pb = PROBLEMS[kind]
        rng = np.random.default_rng(3)
        X = pb.w1 + rng.normal(scale=5.0, size=(50, pb.dim))
        Y = pb.w1 + rng.normal(scale=5.0, size=(50, pb.dim))
        Y[::7] = X[::7]  # coincident pairs have no direction: zero remainder
        X[1::7], Y[1::7] = 0.0, 0.0
        X[1::7, 0] = 1e-170  # so have pairs whose separation squares to zero
        rows = taylor_remainder(pb, X, Y)
        for x, y, row in zip(X, Y, rows):
            assert row.tobytes() == ref_taylor_remainder(pb, x, y).tobytes()
            assert taylor_remainder(pb, x, y).tobytes() == row.tobytes()

    @pytest.mark.parametrize("master", [0, 5])
    def test_certify_command_writes_the_reference_report(self, tmp_path, capsys, master):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("problem.kind = trig_bowl\nproblem.dim = 3\nproblem.a = 1.0\nproblem.b = 2.0\n"
                       "problem.sigma = 0.5\ncertify.n_pairs = 250\ncertify.radius = 4.0\n")
        out = tmp_path / "o"
        assert main(["certify", "--config", str(cfg), "--out", str(out), "--master-seed", str(master)]) == 0
        ref = ref_certify_constants(make_trig_bowl(3, 1.0, 2.0, 0.5), n_pairs=250, radius=4.0,
                                    rng=RngStream(master, 17))
        text = json_dumps(asdict(ref))
        assert (out / "certify.json").read_text() == text == capsys.readouterr().out
        assert json.loads(text)["passed"] is True


    def test_overflowing_gradients_fail_without_a_warning(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("problem.kind = trig_bowl\nproblem.dim = 2\nproblem.a = 1e300\nproblem.b = 1.0\n"
                       "problem.sigma = 0.5\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
        with np.errstate(all="ignore"), pytest.raises(CertificationFailure) as e:
            ref_certify_constants(make_trig_bowl(2, 1e300, 1.0, 0.5), rng=RngStream(0, 17))
        text = json_dumps(asdict(e.value.report))
        assert (out / "certify.json").read_text() == text
        assert capsys.readouterr() == (text, "")


# noise widths d, 1, d + 1, d and 0; the self-tuning method needs a finite g_bound
NOISE_PROBLEMS = {
    "noisy_quadratic": with_constants(make_noisy_quadratic(3, [1.0, 2.0, 4.0], 0.5), g_bound=50.0),
    "sign_noise": make_sign_noise(0.25),
    "streaming_least_squares": with_constants(make_streaming_least_squares(3, [1.0, 0.5, 2.0], 0.3),
                                              g_bound=50.0),
    "trig_bowl": make_trig_bowl(4, 1.0, 2.0, 0.5),
    "trig_bowl_noise_free": make_trig_bowl(2, 1.0, 1.0, 0.0),
}


class TestBlockNoise:
    # 1 byte makes every block one step; 256 KiB holds every T here in one
    @pytest.mark.parametrize("block_bytes", [1, 200, 2000, 256 * 1024])
    @pytest.mark.parametrize("S, T", [(1, 1), (2, 9), (3, 40)])
    @pytest.mark.parametrize("opt, stream_ids", [("nsgdm", (0,)), ("nigt_adaptive", (0, 1))])
    @pytest.mark.parametrize("kind", NOISE_PROBLEMS)
    def test_each_step_reads_the_noise_the_tape_gave(self, monkeypatch, kind, opt, stream_ids, S, T, block_bytes):
        pb = NOISE_PROBLEMS[kind]
        seeds = tuple(range(5, 5 + S))
        monkeypatch.setattr(harness, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(sys.modules[__name__], "BLOCK_BYTES", block_bytes)
        read = []
        noisy_grad = type(pb).noisy_grad

        def spy(self, w, noise):  # the runner samples once per step
            read.append(noise.copy())
            return noisy_grad(self, w, noise)

        monkeypatch.setattr(type(pb), "noisy_grad", spy)
        eta = None if opt == "nigt_adaptive" else 0.05  # which sets its own rates
        harness.run(harness.RunConfig(problem=pb, optimizer_id=opt, T=T, seeds=seeds, eta=eta))
        tape = ref_NoiseTape(pb, seeds, stream_ids, T)
        assert len(read) == T
        for z in read:
            ref = tape.next()
            assert (z.shape, z.dtype, z.tobytes()) == (ref.shape, ref.dtype, ref.tobytes())


# -- output layer ------------------------------------------------------------------

# a NaN whose payload differs from the default NaN's; "%.17g" prints both as nan
NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
CELLS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.nan, NAN_PAYLOAD, math.inf, -math.inf]))


@st.composite
def log_column(draw, T):
    """A float64 column of T cells: one repeated value, signed zeros, or any
    cells; sometimes a strided view, as a column of a wider log is."""
    kind = draw(st.sampled_from(["constant", "signed_zeros", "any"]))
    if kind == "constant":
        cells = [draw(CELLS)] * T
    else:
        cells = draw(st.lists(st.sampled_from([0.0, -0.0]) if kind == "signed_zeros" else CELLS,
                              min_size=T, max_size=T))
    if draw(st.booleans()):
        return np.array(cells)
    wide = np.zeros((T, 2))
    wide[:, 1] = cells
    return wide[:, 1]


@st.composite
def records(draw):
    T = draw(st.integers(1, 12))
    optional = st.one_of(st.none(), log_column(T))
    return TrajectoryRecord(
        problem_id="p", optimizer_id="o", seed=1, eta=draw(log_column(T)), alpha=draw(log_column(T)),
        m_norm=draw(log_column(T)), no_move=np.zeros(T, dtype=bool), f_val=draw(optional),
        grad_norm=draw(optional), mhat_err=draw(optional), descent_residual=draw(optional))


POINTS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, math.nan, 1e-300, 5e-324, math.inf, -math.inf]))


@st.composite
def chart_columns(draw):
    """A run's columns over its steps, each the column before (the same
    array, a copy, or its finite cells moved to the first steps), all NaN,
    or cells of its own; non-finite, signed zero, negative and subnormal
    cells leave lines of different steps once dropped."""
    n = draw(st.integers(1, 8))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["same", "copy", "moved", "own", "nan"] if columns else ["own", "nan"]))
        if kind == "same":
            columns.append(columns[-1])
        elif kind == "copy":
            columns.append(columns[-1].copy())
        elif kind == "moved":  # the same values at other steps, where the column before has a gap
            finite = columns[-1][np.isfinite(columns[-1])]
            columns.append(np.concatenate([finite, np.full(n - len(finite), math.nan)]))
        elif kind == "nan":
            columns.append(np.full(n, math.nan))
        else:
            columns.append(np.array(draw(st.lists(POINTS, min_size=n, max_size=n))))
    return columns


def streamed(write) -> str:
    """What ``write(fh)`` writes to a text handle ``fh``, as one string."""
    fh = io.StringIO()
    write(fh)
    return fh.getvalue()


def streamed_chart(columns, title, ylabel, log) -> str:
    """:func:`svg_line_chart` of ``columns``, as one string."""
    return streamed(lambda fh: svg_line_chart(fh, columns, title, ylabel, log))


# the charts of the earlier write_plots: column, title, log x axis, log y axis
REF_METRICS = (
    ("grad_norm", "exact gradient norm", True, True),
    ("f_val", "objective value", False, False),
    ("eta", "step size", False, False),
)


def ref_chart(columns, title, ylabel, xlog, ylog=None) -> str:
    """The chart of a run's columns as the earlier write_plots drew it: each
    column over the steps, then their mean, under the x label t."""
    t = np.arange(1.0, len(columns[0]) + 1)
    series = [(t, col, _SEED_STYLE) for col in columns]
    series.append((t, np.stack(columns, axis=1).mean(axis=1), _MEAN_STYLE))
    return ref_svg_line_chart(series, title, "t", ylabel, xlog=xlog, ylog=xlog if ylog is None else ylog)


def chart_outcome(chart, columns, log):
    """The chart, or the type and text of what drawing it raises; infinities
    of both signs at a step give a NaN mean, quietly."""
    try:
        with np.errstate(invalid="ignore"):
            return chart(columns, "title", "y", log)
    except (ValueError, OverflowError) as e:
        return type(e).__name__, str(e)


class TestOutputLayer:
    """The CSV writer writes its rows a chunk at a time, and a chart writes
    each polyline as soon as it is formatted, takes its axis range from
    each line's least and greatest point, and draws a run's columns and
    their mean over its steps, printing each step's x text once: the bytes
    must be those of the whole-file text of each line's own x axis."""

    @settings(max_examples=500)
    @given(records(), st.integers(1, 13))
    def test_csv_matches_the_whole_file_csv(self, rec, chunk_rows):
        with mock.patch.object(reports, "CSV_CHUNK_ROWS", chunk_rows):
            assert streamed(functools.partial(record_to_csv, rec)) == ref_record_to_csv(rec)

    @settings(max_examples=400)
    @given(chart_columns(), st.booleans())
    def test_chart_matches_the_whole_file_chart(self, columns, log):
        assert chart_outcome(streamed_chart, columns, log) == chart_outcome(ref_chart, columns, log)

    @pytest.mark.parametrize("ys", [((0.0, 1.0), (-0.0, 2.0)), ((-0.0, 1.0), (0.0, 2.0)),
                                    ((-1.0, 0.0), (-2.0, -0.0)), ((-1.0, -0.0), (-2.0, 0.0)),
                                    ((0.0, -0.0), (-0.0, 0.0)), ((-0.0, -0.0), (0.0, 0.0))])
    def test_extremes_of_either_sign_of_zero_draw_the_same(self, ys):
        # the least (greatest) point of a line is a zero of one sign, of the
        # next line a zero of the other: the extreme over the lines and over
        # their joined points may differ in the sign of that zero only
        columns = [np.array(y) for y in ys]
        assert chart_outcome(streamed_chart, columns, False) == chart_outcome(ref_chart, columns, False)

    @pytest.mark.parametrize("dropped", ["one_seed", "every_seed"])
    def test_a_dropped_step_draws_as_the_earlier_charts(self, tmp_path, dropped):
        # a zero gradient norm is left off the log chart: at one step of one
        # seed, or at the first step of every seed and so of their mean,
        # which moves the start of the t axis to 2
        rng = np.random.default_rng(5)
        T = 40
        cols = {name: rng.random((3, T)) + 0.1 for name in ("f_val", "grad_norm")}
        if dropped == "one_seed":
            cols["grad_norm"][1, 17] = 0.0
        else:
            cols["grad_norm"][:, 0] = 0.0
        records = [TrajectoryRecord(problem_id="p", optimizer_id="o", seed=seed, eta=np.full(T, 0.01),
                                    alpha=np.full(T, 0.1), m_norm=np.ones(T), no_move=np.zeros(T, dtype=bool),
                                    f_val=cols["f_val"][i], grad_norm=cols["grad_norm"][i])
                   for i, seed in enumerate([1, 2, 3])]
        write_plots(tmp_path, records[::-1])
        for column, title, xlog, ylog in REF_METRICS:
            expected = ref_chart([getattr(r, column) for r in records], title, column, xlog, ylog)
            assert (tmp_path / f"{column}.svg").read_bytes().decode("utf-8") == expected


# -- the command line ------------------------------------------------------------------
# The earlier command functions, parser and main, verbatim but for the
# ref_ names and igt_moment_check's keyword seed: each loaded the file and
# read the output settings itself, restated the defaults of the certify,
# igt_check and sweep sections and joined its output paths. Their run
# configurations are checked as before; run checks the self-tuning method's
# schedule premise, the base rate and beta when it starts, the sweep
# refuses that method when it starts and builds each grid point as it
# reaches it, and bounds tunes and runs each horizon of its grid as it
# reaches it, repeated or not. The tuning (ref_tuned) gives any rates its
# closed forms round to.


class RefRunConfig(RunConfig):
    """RunConfig's checks before the self-tuning method's schedule premise
    moved into them from the start of :func:`harness.run` (:func:`ref_run`)."""

    def __post_init__(self):
        if self.optimizer_id not in OPTIMIZER_IDS:
            raise InvalidInput(f"unknown optimizer {self.optimizer_id!r}; known: {OPTIMIZER_IDS}")
        if self.T < 1:
            raise InvalidInput(f"T must be >= 1, got {self.T}")
        if self.schedule.kind != "constant" and self.schedule.warmup_steps >= self.T:
            raise InvalidInput(f"warmup_steps {self.schedule.warmup_steps} must be < T {self.T}")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise InvalidInput("seeds must be non-empty")
        if len(set(seeds)) != len(seeds):
            raise InvalidInput("seeds must be distinct")
        object.__setattr__(self, "seeds", seeds)


def ref_run(cfg: RunConfig):
    if cfg.optimizer_id == "nigt_adaptive" and cfg.schedule.kind != "constant":
        raise InvalidInput("the self-tuning method sets its own step sizes; use a constant schedule")
    if cfg.optimizer_id != "nigt_adaptive":  # the rate checks that started the runner
        base_eta = cfg.eta
        if base_eta is None or not (0.0 <= base_eta < math.inf):
            raise InvalidInput(f"{cfg.optimizer_id} needs a base rate: eta must be finite and >= 0, got {base_eta}")
        beta = cfg.beta if cfg.optimizer_id != "sgd" else 0.0  # sgd is memoryless: the momentum is the latest sample
        if not (0.0 <= beta < 1.0):
            raise InvalidInput(f"beta must lie in [0, 1), got {beta}")
    if isinstance(cfg.partition, RefLayerPartition):  # the runner moves by the frozen move over its ranges
        layerwise = replace(METHODS["nigt_layerwise"], move=ref_blockwise_move)
        with mock.patch.dict(METHODS, nigt_layerwise=layerwise), \
                mock.patch.object(harness, "blockwise_move", ref_blockwise_move):
            return run(cfg)
    return run(cfg)


def ref_grid_sweep(base: RunConfig, eta_grid=DEFAULT_ETA_GRID):
    if base.optimizer_id == "nigt_adaptive":
        raise InvalidInput("the self-tuning method has no base rate to sweep")
    if not base.record_exact:
        raise InvalidInput("grid sweep ranks by exact gradient norms; set record_exact")
    grid = tuple(float(e) for e in eta_grid)
    if not grid:
        raise InvalidInput("eta_grid must be non-empty")
    rows = []
    for eta0 in grid:
        try:
            recs = ref_run(replace(base, eta=eta0))
        except Diverged as e:
            rows.append(SweepRow(eta0=eta0, final_grad_norm=None, diverged_at=e.step))
            continue
        metric = float(np.mean([r.grad_norm[-1] for r in recs]))
        rows.append(SweepRow(eta0=eta0, final_grad_norm=metric))
    # diverged rates have no norm: they go last, in rate order
    rows.sort(key=lambda r: (r.diverged_at is not None, r.final_grad_norm or 0.0, r.eta0))
    best = rows[0]
    return SweepReport(rows=tuple(rows), best_eta0=None if best.diverged_at is not None else best.eta0)


def ref_tuned(optimizer_id: str, problem, T: int):
    """The tuning of ``optimizer_id`` on ``problem`` for horizon T, and its
    ceiling; both theorems need the noise bounded by sigma at every point."""
    if optimizer_id not in THEOREM_METHODS.values():
        raise InvalidInput(f"no closed-form tuning for {optimizer_id!r}")
    if problem.sigma_at_w1_only:
        raise InvalidInput(f"oracle variance is only certified at the start point for {problem.problem_id}; "
                           "the tuned ceilings need it at every point")
    R, L, rho, sigma = problem.R, problem.L, problem.rho, problem.sigma
    if optimizer_id == "nsgdm":
        return nsgdm_params(R, L, sigma, T), nsgdm_bound(R, L, sigma, T)
    return nigt_params(R, L, rho, sigma, T), nigt_bound(R, L, rho, sigma, T)


def ref_bound_acceptance(problem: StochasticProblem, optimizer_id: str, T_grid, seeds) -> BoundReport:
    seeds = tuple(int(s) for s in seeds)
    rows = []
    max_disp = 0.0
    for T in sorted(int(t) for t in T_grid):
        params, bound = ref_tuned(optimizer_id, problem, T)
        recs = ref_run(RefRunConfig(problem=problem, optimizer_id=optimizer_id, T=T, seeds=seeds,
                                    eta=params.eta, beta=params.beta))
        max_disp = max(max_disp, max(r.max_displacement for r in recs))
        mean, stderr, passed = bound_check([r.avg_grad_norm() for r in recs], bound)
        rows.append(BoundRow(T=T, mean_avg_grad_norm=mean, stderr=stderr, bound=bound, passed=passed))

    cert_radius = max(DEFAULT_CERT_RADIUS, 1.05 * max_disp)
    certify_constants(problem, n_pairs=CONTAINMENT_PAIRS, radius=cert_radius, rng=RngStream(seeds[0], 101))
    return BoundReport(
        problem_id=problem.problem_id,
        optimizer_id=optimizer_id,
        rows=tuple(rows),
        max_displacement=max_disp,
        cert_radius=cert_radius,
        passed=all(r.passed for r in rows),
    )


# the configuration builders as they were before each command read its keys
# from one read set: each builder refused the unread keys of the sections it
# read, and the schema was written out by hand

REF_SCHEMA: dict[str, dict[str, str]] = {
    "problem": {
        "kind": "str",
        "dim": "int",
        "eigs": "float_list",
        "sigma": "float",
        "p": "float",
        "a": "float",
        "b": "float",
        "cov_eigs": "float_list",
        "label_noise": "float",
        "w1": "float_list",
        "w_star": "float_list",
        # declared-constant overrides, validated by `certify`
        "L": "float",
        "rho": "float",
        "g_bound": "float",
        "R": "float",
        "M": "float",
    },
    "optimizer": {
        "id": "str",
        "eta": "float",
        "beta": "float",
        "theorem": "str",  # "1" | "2"
        "layers": "int_list",  # block boundaries, e.g. 0,2,4
        "lr_scale": "float_list",
    },
    "schedule": {
        "kind": "str",
        "warmup_steps": "int",
        "power": "int",
        "weight_norm_scaling": "bool",
    },
    "run": {
        "T": "int",
        "T_grid": "int_list",
        "seeds": "int_list",
        "n_seeds": "int",
        "master_seed": "int",
        "record_exact": "bool",
    },
    "igt_check": {
        "checkpoints": "int_list",
        "n_runs": "int",
    },
    "sweep": {
        "eta_grid": "float_list",
    },
    "certify": {
        "n_pairs": "int",
        "radius": "float",
    },
    "output": {
        "dir": "str",
        "formats": "str_list",
    },
}


# declared-constant overrides, valid for every kind; the generative keys of
# a kind are the parameters of its constructor
REF_OVERRIDE_KEYS = {"L", "rho", "g_bound", "R", "M"}

# the optimizer keys each method reads besides id (theorem, eta and beta
# when not listed); lr_scale scales the layers, so it is read only with them
REF_METHOD_KEYS = {"sgd": {"theorem", "eta"}, "nigt_layerwise": {"theorem", "eta", "beta", "layers", "lr_scale"},
                   "nigt_adaptive": set()}


# the schema that the earlier command functions parsed files with, and the
# fuzz below draws them from: the written one without problem.M, deleted
# before they were frozen; and the declared-constant overrides that every
# kind reads
REF_FILE_SCHEMA = {section: {key: typ for key, typ in keys.items() if f"{section}.{key}" != "problem.M"}
                   for section, keys in REF_SCHEMA.items()}
REF_CONSTANTS = ("L", "rho", "g_bound", "R")


@dataclass
class RefExperimentFile:
    """Typed, raw (default-free) contents of one experiment file."""

    problem: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    igt_check: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    certify: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def section(self, name: str) -> dict:
        return getattr(self, name)


def ref_parse_scalar(text: str, typ: str, where: str):
    text = text.strip()
    if typ == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {text!r}") from None
    if typ == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {text!r}") from None
    if typ == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        raise ConfigError(f"{where}: expected true or false, got {text!r}")
    return text  # bare string


def ref_parse_value(text: str, typ: str, where: str):
    if typ.endswith("_list"):
        base = typ[: -len("_list")]
        items = [p for p in (piece.strip() for piece in text.split(",")) if p != ""]
        if not items:
            raise ConfigError(f"{where}: expected a comma-separated list, got {text!r}")
        return [ref_parse_scalar(p, base, where) for p in items]
    return ref_parse_scalar(text, typ, where)


def ref_parse_experiment(text: str) -> RefExperimentFile:
    exp = RefExperimentFile()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        lhs, rhs = line.split("=", 1)
        dotted = lhs.strip()
        col = raw.index(dotted) + 1 if dotted in raw else 1
        if "." not in dotted:
            raise ConfigError(f"line {lineno}, col {col}: key {dotted!r} lacks a section prefix")
        section, key = dotted.split(".", 1)
        if section not in REF_FILE_SCHEMA:
            raise ConfigError(f"line {lineno}, col {col}: unknown section {section!r}")
        if key not in REF_FILE_SCHEMA[section]:
            raise ConfigError(f"line {lineno}, col {col}: unknown key {key!r} in section {section!r}")
        store = exp.section(section)
        if key in store:
            raise ConfigError(f"line {lineno}, col {col}: duplicate key {dotted!r}")
        store[key] = ref_parse_value(rhs, REF_FILE_SCHEMA[section][key], f"line {lineno}")
    return exp


def ref_load_experiment(path) -> RefExperimentFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    return ref_parse_experiment(text)


def ref_refuse_stray(store: dict, read: set, owner: str) -> None:
    """Refuse the keys of a section that ``owner`` never reads."""
    stray = set(store) - read
    if stray:
        raise ConfigError(f"keys {sorted(stray)} do not apply to {owner}")


# the helpers that the builders and command functions above call, and the
# one refusal that replaced the builders' own, as they were when a command
# refused, before anything was built, the keys ref_read_keys does not give
# (verbatim but for the ref_ names)

def ref_read_keys(exp: RefExperimentFile, command: str, n_seeds_override: int | None = None,
                  master_seed_override: int | None = None) -> dict[str, set[str]]:
    """The keys ``command`` reads in each section of ``exp``, given the seed
    flags. A method reads its rate unless a theorem tunes it (``run``) or the
    grid sets it (``sweep``). A kind, method or theorem that the file leaves
    out or names wrongly reads every key of its section: building refuses it."""
    op, own = exp.optimizer, command.replace("-", "_")
    make = PROBLEM_KINDS.get(exp.problem.get("kind"))
    # a seed flag overrides every seed key, as --out does output.dir; without
    # one, a seed list is read in place of the count and master seed
    seeds = ({"seeds", "n_seeds", "master_seed"} if n_seeds_override is not None or master_seed_override is not None
             else {"seeds"} if "seeds" in exp.run else {"n_seeds", "master_seed"})
    # certify, igt-check and sweep read their own section whole
    read = {"problem": ({"kind", *inspect.signature(make).parameters, *REF_CONSTANTS} if make
                        else set(REF_FILE_SCHEMA["problem"])),
            own: set(REF_FILE_SCHEMA.get(own, ())), "output": {"dir", "formats"} if command == "run" else {"dir"}}
    if command == "bounds":  # each horizon at its theorem's tuning
        return read | {"optimizer": {"id"}, "run": {"T_grid", *seeds}}
    if command in ("certify", "igt-check"):  # from the master seed alone
        return read | {"run": {"master_seed"}}
    opt_id, theorem = op.get("id"), op.get("theorem")
    # the self-tuning method sets its own rates, and sgd is memoryless: no beta
    rates = set() if opt_id == "nigt_adaptive" else {"beta"} if command == "sweep" else (
        {"theorem"} if theorem is not None else {"eta", "beta"})
    if opt_id == "sgd":
        rates.discard("beta")
    if opt_id == "nigt_layerwise":
        rates |= {"layers", "lr_scale"} if "layers" in op else {"layers"}
    schedule = {"kind"} if opt_id == "nigt_adaptive" else {"kind", "weight_norm_scaling"}
    if exp.schedule.get("kind", "constant") != "constant":
        schedule |= {"warmup_steps", "power"}
    if opt_id not in OPTIMIZER_IDS or "theorem" in rates and THEOREM_METHODS.get(theorem) != opt_id:
        rates, schedule = set(REF_FILE_SCHEMA["optimizer"]), set(REF_FILE_SCHEMA["schedule"])
    return read | {"optimizer": {"id", *rates}, "schedule": schedule, "run": {"T", "record_exact", *seeds}}


def ref_refuse_unread(exp: RefExperimentFile, command: str, n_seeds_override: int | None = None,
                      master_seed_override: int | None = None) -> None:
    """Refuse every key of ``exp`` that ``command`` never reads (:func:`read_keys`),
    before anything is built."""
    read = ref_read_keys(exp, command, n_seeds_override, master_seed_override)
    opt_id = exp.optimizer.get("id")
    owners = {"problem": f"problem kind {exp.problem.get('kind')!r}"}
    if command in ("run", "sweep"):
        owners["optimizer"] = f"optimizer {opt_id!r}"
        owners["schedule"] = f"the {exp.schedule.get('kind', 'constant')} schedule of optimizer {opt_id!r}"
    for section in REF_FILE_SCHEMA:
        stray = set(exp.section(section)) - read.get(section, set())
        if stray:
            owner = owners.get(section, f"{command} (section {section!r})")
            raise ConfigError(f"keys {sorted(stray)} do not apply to {owner}")


def ref_build_schedule(exp: RefExperimentFile) -> Schedule:
    # the section's keys are the fields of Schedule, with the same defaults
    try:
        return Schedule(**exp.schedule)
    except InvalidInput as e:
        raise ConfigError(f"invalid schedule section: {e}") from e


def ref_build_partition(exp: RefExperimentFile, dim: int) -> RefLayerPartition | None:
    op = exp.optimizer
    if "layers" not in op:
        return None
    bounds = op["layers"]
    if len(bounds) < 2:
        raise ConfigError("optimizer.layers needs at least two boundaries")
    ranges = tuple((bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
    scales = tuple(op.get("lr_scale", [1.0] * len(ranges)))
    try:
        part = RefLayerPartition(ranges=ranges, lr_scale=scales)
        part.validate_cover(dim)
    except Exception as e:
        raise ConfigError(f"invalid layer partition: {e}") from e
    return part


def ref_master_seed(exp: RefExperimentFile, override: int | None = None) -> int:
    """run.master_seed (0 by default), or the command line's override of it."""
    return override if override is not None else exp.run.get("master_seed", 0)


def ref_resolve_seeds(exp: RefExperimentFile, n_seeds_override: int | None = None,
                      master_seed_override: int | None = None, dim: int = 1) -> tuple[int, ...]:
    """The seeds of a run, checked before they are built: at most
    :data:`MAX_SEEDS` of them, and at most :data:`MAX_LOG_CELLS` log cells
    (steps of its longest run times seeds) and state cells (seeds times the
    problem's ``dim``)."""
    rn = exp.run
    listed = "seeds" in rn and n_seeds_override is None and master_seed_override is None
    if listed:
        key, n = "run.seeds", len(rn["seeds"])
    elif n_seeds_override is not None:
        key, n = "--seeds", n_seeds_override
    else:
        key, n = "run.n_seeds", rn.get("n_seeds", 1)
    if n < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n}")
    if n > MAX_SEEDS:
        raise ConfigError(f"{key} asks for {n} seeds, above the limit of {MAX_SEEDS}")
    T_key, T = ("run.T", rn["T"]) if "T" in rn else ("max(run.T_grid)", max(rn.get("T_grid", [0])))
    if T * n > MAX_LOG_CELLS:
        raise ConfigError(f"{T_key} = {T} over {n} seeds is {T * n} log cells, above the limit of {MAX_LOG_CELLS}")
    if n * dim > MAX_LOG_CELLS:
        raise ConfigError(f"{key} asks for {n} seeds of problem.dim = {dim}, {n * dim} state cells, "
                          f"above the limit of {MAX_LOG_CELLS}")
    if listed:
        return tuple(rn["seeds"])
    master = ref_master_seed(exp, master_seed_override)
    return tuple(master + i for i in range(n))


def ref_output_settings(exp: RefExperimentFile, out_override: str | None = None) -> tuple[str, tuple[str, ...]]:
    out = exp.output
    directory = out_override if out_override is not None else out.get("dir", "results")
    formats = tuple(out.get("formats", ["csv", "json"]))
    bad = [f for f in formats if f not in ("csv", "json", "svg")]
    if bad:
        raise ConfigError(f"unknown output formats {bad}; allowed: csv, json, svg")
    return directory, formats


def ref_build_problem(exp: RefExperimentFile):
    pr = exp.problem
    kind = _require(pr, "kind", "problem")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {tuple(PROBLEM_KINDS)}")
    make = PROBLEM_KINDS[kind]
    params = inspect.signature(make).parameters
    ref_refuse_stray(pr, {"kind"} | set(params) | REF_OVERRIDE_KEYS, f"problem kind {kind!r}")
    for name, param in params.items():
        if param.default is param.empty:
            _require(pr, name, "problem")
    if pr.get("dim", 1) > MAX_LOG_CELLS:
        raise ConfigError(f"problem.dim = {pr['dim']} is above the limit of {MAX_LOG_CELLS}")
    overrides = {k: pr[k] for k in sorted(REF_OVERRIDE_KEYS) if k in pr}
    try:
        problem = make(**{name: pr[name] for name in params if name in pr})
        if overrides:
            problem = with_constants(problem, **overrides)
    except Exception as e:  # constructor and constant validation errors become config errors
        raise ConfigError(f"invalid problem section: {e}") from e
    return problem


def ref_resolve_rate(exp: RefExperimentFile, opt_id: str, problem, T: int, require_eta: bool = True):
    """(eta, beta, bound) of method ``opt_id`` for one horizon: the theorem's
    eta, else optimizer.eta; the theorem's beta, else optimizer.beta (0.9);
    the theorem's ceiling, else None. With ``require_eta`` false the rate may
    be missing and the tuning goes unused: a sweep sets the rate itself."""
    op = exp.optimizer
    if opt_id == "nigt_adaptive":  # sets its own rates as it runs
        return None, 0.9, None
    theorem = op.get("theorem")
    paired_id = THEOREM_METHODS.get(theorem)
    if theorem is not None and paired_id is None:
        raise ConfigError(f"optimizer.theorem must be 1 or 2, got {theorem!r}")
    # a ceiling is only a guarantee for the method its theorem is about
    if paired_id is not None and opt_id != paired_id:
        raise ConfigError(f"theorem = {theorem} requires optimizer.id = {paired_id}, got {opt_id!r}")
    params = bound = None
    if paired_id is not None:
        try:
            params, bound = ref_tuned(opt_id, problem, T)
        except (InvalidInput, ArithmeticError) as e:  # constants outside a rule's domain
            raise ConfigError(f"invalid hyperparameters: {e}") from e
    elif theorem is None and "eta" not in op and require_eta:
        raise ConfigError("manual runs need optimizer.eta")
    elif theorem is None and "eta" in op and not (op["eta"] > 0.0 and 0.0 <= op.get("beta", 0.9) < 1.0):
        raise ConfigError("invalid hyperparameters: need eta > 0 and beta in [0, 1), "
                          f"got eta = {op['eta']}, beta = {op.get('beta', 0.9)}")
    if params is None or not require_eta:
        return op.get("eta"), op.get("beta", 0.9), bound
    return params.eta, params.beta, bound


def ref_build_run_config(exp: RefExperimentFile, n_seeds_override: int | None = None,
                         master_seed_override: int | None = None,
                         require_eta: bool = True) -> tuple[RunConfig, float | None]:
    """Assemble the runnable configuration (and the bound, when tuned)."""
    problem = ref_build_problem(exp)
    op = exp.optimizer
    opt_id = _require(op, "id", "optimizer")
    if opt_id not in OPTIMIZER_IDS:
        raise ConfigError(f"unknown optimizer id {opt_id!r}; known: {OPTIMIZER_IDS}")
    T = _require(exp.run, "T", "run")
    seeds = ref_resolve_seeds(exp, n_seeds_override, master_seed_override, problem.dim)
    schedule = ref_build_schedule(exp)
    eta, beta, bound = ref_resolve_rate(exp, opt_id, problem, T, require_eta)
    # a key that the method or its schedule never reads is refused, not ignored
    read = {"id"} | REF_METHOD_KEYS.get(opt_id, {"theorem", "eta", "beta"})
    ref_refuse_stray(op, read if "layers" in op else read - {"lr_scale"}, f"optimizer {opt_id!r}")
    read = {"kind"} if opt_id == "nigt_adaptive" else {"kind", "weight_norm_scaling"}
    ref_refuse_stray(exp.schedule, read if schedule.kind == "constant" else read | {"warmup_steps", "power"},
                  f"the {schedule.kind} schedule of optimizer {opt_id!r}")
    try:
        cfg = RefRunConfig(
            problem=problem,
            optimizer_id=opt_id,
            T=T,
            seeds=seeds,
            eta=eta,
            beta=beta,
            schedule=schedule,
            record_exact=exp.run.get("record_exact", True),
            partition=ref_build_partition(exp, problem.dim),
        )
    except InvalidInput as e:
        raise ConfigError(f"invalid run configuration: {e}") from e
    # a ceiling is checked on exact logs of the run its theorem is about: a
    # constant rate on unscaled weights
    if bound is not None and (schedule != Schedule() or not cfg.record_exact):
        raise ConfigError(f"theorem = {op['theorem']} is checked on exact logs of a constant rate: it requires "
                          "schedule.kind = constant, schedule.weight_norm_scaling = false, run.record_exact = true")
    return cfg, bound


def ref_bounds_settings(exp: RefExperimentFile, n_seeds_override: int | None = None,
                        master_seed_override: int | None = None):
    """(problem, optimizer id, T grid, seeds) of ``bounds``. It runs the
    method at its own theorem's tuning for each horizon of the grid, so any
    other optimizer, schedule or run key is refused, not ignored."""
    problem = ref_build_problem(exp)
    if "T_grid" not in exp.run:
        raise ConfigError("bounds needs run.T_grid")
    for section, read in (("optimizer", {"id"}), ("schedule", set()),
                          ("run", {"T_grid", "seeds", "n_seeds", "master_seed"})):
        ref_refuse_stray(exp.section(section), read, f"bounds (section {section!r})")
    seeds = ref_resolve_seeds(exp, n_seeds_override, master_seed_override, problem.dim)
    return problem, exp.optimizer.get("id"), exp.run["T_grid"], seeds


def ref_cmd_run(args) -> int:
    exp = ref_load_experiment(args.config)
    out_dir, formats = ref_output_settings(exp, args.out)
    cfg, bound = ref_build_run_config(exp, args.seeds, args.master_seed)
    records = ref_run(cfg)

    no_move_count = sum(int(r.no_move.sum()) for r in records)
    violations = [dict(asdict(e), seed=r.seed) for r in records for e in r.invariant_violations]
    avg, stderr, within_bound = (bound_check([r.avg_grad_norm() for r in records], bound)
                                 if cfg.record_exact else (None, None, True))
    passed = not violations and within_bound
    summary = {
        "problem": cfg.problem.problem_id,
        "optimizer": cfg.optimizer_id,
        "T": cfg.T,
        "seeds": list(cfg.seeds),
        "avg_grad_norm": avg,
        "stderr": stderr,
        "bound": bound,
        "pass": passed,
        "no_move_count": no_move_count,
        "invariant_violations": violations,
    }
    write_run_outputs(records, out_dir, formats, summary)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def ref_cmd_certify(args) -> int:
    exp = ref_load_experiment(args.config)
    out_dir, _ = ref_output_settings(exp, args.out)
    problem = ref_build_problem(exp)
    n_pairs = exp.certify.get("n_pairs", 400)
    radius = exp.certify.get("radius", 10.0)
    failed = False
    try:
        report = certify_constants(problem, n_pairs=n_pairs, radius=radius,
                                   rng=RngStream(ref_master_seed(exp, args.master_seed), 17))
    except CertificationFailure as e:
        report = e.report
        failed = True
    text = json_dumps(asdict(report))
    sys.stdout.write(text)
    write_text_atomic(os.path.join(out_dir, "certify.json"), text)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def ref_cmd_igt_check(args) -> int:
    exp = ref_load_experiment(args.config)
    out_dir, _ = ref_output_settings(exp, args.out)
    problem = ref_build_problem(exp)
    if not isinstance(problem, NoisyQuadratic):
        raise ConfigError(f"igt-check needs a {NoisyQuadratic.kind} problem (constant Hessian)")
    checkpoints = exp.igt_check.get("checkpoints", [1, 10, 100])
    n_runs = exp.igt_check.get("n_runs", 10_000)
    report = igt_moment_check(problem, checkpoints, n_runs, seed=ref_master_seed(exp, args.master_seed))
    write_text_atomic(os.path.join(out_dir, "igt_check.json"), json_dumps(asdict(report)))
    rows = [[c.k, c.bias_norm, c.variance, c.target_variance, c.bias_limit, c.n_runs, c.passed]
            for c in report.checkpoints]
    write_text_atomic(
        os.path.join(out_dir, "igt_check.csv"),
        rows_to_csv("k,bias_norm,variance,target_variance,bias_limit,n_runs,passed", rows),
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def ref_cmd_sweep(args) -> int:
    exp = ref_load_experiment(args.config)
    out_dir, _ = ref_output_settings(exp, args.out)
    cfg, _ = ref_build_run_config(exp, args.seeds, args.master_seed, require_eta=False)
    grid = exp.sweep.get("eta_grid", list(DEFAULT_ETA_GRID))
    report = ref_grid_sweep(cfg, grid)
    write_text_atomic(os.path.join(out_dir, "sweep.json"), json_dumps(asdict(report)))
    rows = [[r.eta0, r.final_grad_norm] for r in report.rows]
    write_text_atomic(os.path.join(out_dir, "sweep.csv"),
                      rows_to_csv("eta0,final_grad_norm", rows))
    return EXIT_OK


def ref_cmd_bounds(args) -> int:
    exp = ref_load_experiment(args.config)
    out_dir, _ = ref_output_settings(exp, args.out)
    problem, opt_id, T_grid, seeds = ref_bounds_settings(exp, args.seeds, args.master_seed)
    try:
        report = ref_bound_acceptance(problem, opt_id, T_grid, seeds)
    except CertificationFailure as e:
        sys.stderr.write(f"containment certification failed: {e}\n")
        return EXIT_CHECK_FAILED
    rows = [[r.T, r.mean_avg_grad_norm, r.stderr, r.bound, r.passed] for r in report.rows]
    payload = asdict(report)
    try:
        payload["loglog_slope"] = rate_diagnostic([row[:2] for row in rows])
    except NigtLabError:
        payload["loglog_slope"] = None
    write_text_atomic(os.path.join(out_dir, "bounds.json"), json_dumps(payload))
    write_text_atomic(os.path.join(out_dir, "bounds.csv"),
                      rows_to_csv("T,mean_avg_grad_norm,stderr,bound,passed", rows))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def ref_build_parser() -> _Parser:
    p = _Parser(prog="nigt-lab", description=cli.__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # certify and igt-check draw from the master seed alone: no seed count
    for name, func, seed_count, text in (
        ("run", ref_cmd_run, True, "execute a seeded run and emit CSV/JSON/SVG"),
        ("certify", ref_cmd_certify, False, "validate declared problem constants"),
        ("igt-check", ref_cmd_igt_check, False, "gradient-transport moment verification"),
        ("sweep", ref_cmd_sweep, True, "base-rate grid sweep"),
        ("bounds", ref_cmd_bounds, True, "one-sided average-gradient bound table"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="experiment file path")
        sp.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        if seed_count:
            sp.add_argument("--seeds", type=int, default=None, help="number of seeds (overrides run.n_seeds)")
        sp.add_argument("--master-seed", type=int, default=None, dest="master_seed",
                        help="base seed (overrides run.master_seed)")
        sp.set_defaults(func=func)

    return p


def ref_main(argv=None) -> int:
    parser = ref_build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except (ConfigError, NoResults) as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_USAGE
    except Diverged as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CHECK_FAILED
    except NigtLabError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


# -- the exit-code contract, fuzzed ----------------------------------------------------

EDGE = {"float": [0.0, -1.0, math.nan, math.inf, -math.inf, 1e308, 5e-324], "int": [0, -1], "str": ["bogus"]}
# the text of a value the file parser refuses, by type: a bare word for a
# number, yes for a bool, and for a list one empty item
UNPARSED = {"float": "ten", "int": "ten", "bool": "yes", "list": ""}

# small values that make a usable file likely: T <= 50, at most 3 seeds,
# dim <= 8, n_pairs <= 200
USUAL = {
    "problem.kind": list(PROBLEM_KINDS), "problem.dim": [1, 2, 3, 8], "problem.eigs": [1.0, 4.0],
    "problem.sigma": [0.5], "problem.p": [0.25], "problem.a": [1.0], "problem.b": [1.0, 2.0],
    "problem.cov_eigs": [1.0, 0.5], "problem.label_noise": [0.3], "problem.w1": [1.0, 2.0],
    "problem.w_star": [0.0], "problem.L": [1.0, 10.0], "problem.rho": [0.0, 1.0], "problem.g_bound": [50.0],
    "problem.R": [10.0],
    "optimizer.id": list(harness.OPTIMIZER_IDS), "optimizer.eta": [0.01, 0.1], "optimizer.beta": [0.5, 0.9],
    "optimizer.theorem": ["1", "2"], "optimizer.layers": [0, 1, 2], "optimizer.lr_scale": [1.0, 10.0],
    "schedule.kind": ["constant", "warmup_poly_decay"], "schedule.warmup_steps": [5], "schedule.power": [1, 2],
    "run.T": [1, 5, 50], "run.T_grid": [1, 5, 50], "run.seeds": [1, 2, 7], "run.n_seeds": [1, 3],
    "run.master_seed": [7], "igt_check.checkpoints": [1, 2, 5], "igt_check.n_runs": [1000],
    "sweep.eta_grid": [0.01, 0.1, 1.0], "certify.n_pairs": [100, 200], "certify.radius": [0.5, 10.0],
    "output.formats": ["csv", "json", "svg"],
}
VECTORS = {"eigs", "cov_eigs", "w1", "w_star"}  # one entry per dimension
# the keys each command reads besides problem and output.dir, as prefixes;
# a key it reads is drawn often, one of them in RARE less, any other seldom
READS = {"run": ("optimizer.", "schedule.", "run.", "output."), "certify": ("certify.", "run.master_seed"),
         "igt-check": ("igt_check.", "run.master_seed"),
         "sweep": ("optimizer.id", "optimizer.beta", "optimizer.layers", "optimizer.lr_scale", "schedule.", "run.",
                   "sweep."),
         "bounds": ("optimizer.id", "run.T_grid", "run.n_seeds", "run.seeds", "run.master_seed")}
NEEDS = {"run": ("optimizer.id", "optimizer.eta", "run.T"), "sweep": ("optimizer.id", "run.T"),
         "bounds": ("optimizer.id", "run.T_grid")}
# keys whose defaults are large, always drawn
SIZES = {"certify": ("certify.n_pairs",), "igt-check": ("igt_check.checkpoints", "igt_check.n_runs")}
RARE = {"problem.L", "problem.rho", "problem.g_bound", "problem.R", "optimizer.theorem",
        "optimizer.layers", "optimizer.lr_scale", "schedule.warmup_steps", "schedule.power",
        "schedule.weight_norm_scaling", "run.T_grid", "run.seeds", "run.n_seeds", "run.master_seed",
        "run.record_exact", "output.formats"}


@functools.cache
def chances(k: int, n: int):
    """True with probability k / n (sampled_from draws evenly)."""
    return st.sampled_from([True] * k + [False] * (n - k))


@functools.cache
def values(usual: tuple, base: str, edgy: bool):
    """A key's values: usual ones, and with ``edgy`` one in four an edge value."""
    if base == "bool":
        return st.booleans()
    if not edgy:
        return st.sampled_from(usual)
    return chances(3, 4).flatmap(lambda u: st.sampled_from(usual if u else EDGE[base]))


@st.composite
def experiment_files(draw, command):
    """An experiment file drawn key by key from the derived schema. Two in three
    are clean: usual values of the keys the command reads, vectors of the
    problem's dimension, none of the RARE keys and seldom a key it does not
    read, so most of them run. Now and then a clean file lacks one key its
    command needs, so the refusal of that key is reached past every other
    check. The others draw every key the command reads, edge values (0, -1,
    NaN, +-inf, 1e308, subnormal) and now and then a key it does not read,
    and one in four of them a value the file parser refuses (UNPARSED)."""
    kinds = USUAL["problem.kind"]
    # igt-check needs a quadratic and refuses a curved Hessian (the trig
    # bowl's rho > 0), and bounds certifies sigma away from w1 and tunes with
    # rho > 0: the trig bowl
    kind = draw(st.sampled_from({"igt-check": ["noisy_quadratic"] * 4 + ["trig_bowl"] * 2,
                                 "bounds": ["trig_bowl"] * 4}.get(command, []) + kinds))
    edgy = draw(chances(1, 3))
    dropped = None if edgy else draw(st.sampled_from([None] * 6 + list(NEEDS.get(command, ()))))
    dim = draw(st.sampled_from(USUAL["problem.dim"] + (EDGE["int"] if edgy else [])))
    opt_id = draw(st.sampled_from(["nsgdm", "nigt"] if command == "bounds" else USUAL["optimizer.id"]))
    params = inspect.signature(PROBLEM_KINDS[kind]).parameters
    lines = [f"problem.kind = {kind}"]
    typed = []  # (line, value type) of each number, bool and list drawn
    for section, keys in REF_FILE_SCHEMA.items():
        for key, typ in keys.items():
            name = f"{section}.{key}"
            if name in ("problem.kind", "output.dir"):  # the output goes to --out
                continue
            param = params.get(key) if section == "problem" else None
            if section == "problem":
                read = key in REF_OVERRIDE_KEYS or param is not None
            else:
                read = name.startswith(READS[command]) and (
                    section != "optimizer" or key in {"id"} | REF_METHOD_KEYS.get(opt_id, {"theorem", "eta", "beta"}))
            if name in SIZES.get(command, ()):
                chance = 8
            elif param is not None and param.default is param.empty or name in NEEDS.get(command, ()):
                chance = 0 if name == dropped else 8 - edgy
            elif read:
                # a declared L or rho below the problem's fails certify: exit 2
                chance = (2 if edgy or key in ("L", "rho") else 0) if name in RARE else 5
            else:  # a key it does not read, which it refuses
                chance = 1
            n = 8 if read else 64 if edgy else 128
            if not (chance == n or chance and draw(chances(chance, n))):
                continue
            value = values(tuple([opt_id] if name == "optimizer.id" else USUAL.get(name, ())),
                           typ.removesuffix("_list"), edgy)
            if name == "problem.dim":
                lines.append(f"{name} = {dim}")
            elif typ.endswith("_list"):
                size = (dim if key in VECTORS and dim > 0 and (not edgy or draw(chances(7, 8)))
                        else draw(st.integers(1, 3)))
                items = draw(st.lists(value, min_size=size, max_size=size))
                lines.append(f"{name} = {','.join(map(_format_value, items))}")
            else:
                lines.append(f"{name} = {_format_value(draw(value))}")
            if typ != "str":
                typed.append((len(lines) - 1, "list" if typ.endswith("_list") else typ))
    if edgy and typed and draw(chances(1, 4)):  # one value the parser refuses, of a type drawn first
        typ = draw(st.sampled_from(sorted({typ for _, typ in typed})))
        i = draw(st.sampled_from([i for i, t in typed if t == typ]))
        lines[i] = f"{lines[i].split(' = ')[0]} = {UNPARSED[typ]}"
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(list(READS)))
    flags = []
    if command in ("run", "sweep", "bounds") and draw(chances(1, 4)):
        flags += ["--seeds", str(draw(st.sampled_from([1, 3, 1, 3, 0, -1])))]
    if draw(chances(1, 4)):
        flags += ["--master-seed", str(draw(st.sampled_from([7, 0, 7, 0, -1])))]
    return command, draw(experiment_files(command)), flags


def tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def invoke(main_fn, argvs, outs):
    """The exit code, stdout and stderr of each command in turn, the files
    in each output directory after the last, and the warnings raised; the
    output directories are removed afterwards."""
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv in argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                results.append((main_fn(argv), stdout.getvalue(), stderr.getvalue()))
    files = [tree(out) if out.exists() else {} for out in outs]
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
    return results, files, [str(w.message) for w in caught]


# the keys of the written schema that are gone: problem.M, an upper bound on
# F that the problems declared and no code read
DELETED_KEYS = {"problem.M"}


class TestDerivedSchema:
    """The schema taken from the signatures of the functions that read each
    section is the one written out by hand before, less its deleted keys:
    the same sections, keys, order and value types, so
    ``serialize_experiment`` writes the same bytes."""

    def test_sections_keys_order_and_types_match_the_written_schema(self):
        assert [(section, list(keys.items())) for section, keys in _SCHEMA.items()] == \
            [(section, [(key, typ) for key, typ in keys.items() if f"{section}.{key}" not in DELETED_KEYS])
             for section, keys in REF_SCHEMA.items()]
        assert sum(map(len, _SCHEMA.values())) == 38

    @pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "perfbench" / "workloads").glob("*.cfg"))
                             + [Path(__file__).parent / "golden" / "golden_run.cfg"], ids=lambda p: p.name)
    def test_shipped_files_serialize_as_before(self, path):
        exp = load_experiment(path)
        ref = [f"{section}.{key} = {_format_value(exp.section(section)[key])}"
               for section, keys in REF_SCHEMA.items() for key in keys if key in exp.section(section)]
        assert serialize_experiment(exp) == "\n".join(ref) + "\n"


BOWL = "problem.kind = trig_bowl\nproblem.dim = 2\nproblem.a = 1.0\nproblem.b = 1.0\nproblem.sigma = 0.5\n"
QUAD = "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,4.0\nproblem.sigma = 0.5\n"
# a file each command reads whole
READ_WHOLE = {
    "run": BOWL + "optimizer.id = nsgdm\noptimizer.theorem = 1\nrun.T = 20\nrun.n_seeds = 2\n",
    "sweep": BOWL + "optimizer.id = nsgdm\nrun.T = 20\nrun.n_seeds = 2\nsweep.eta_grid = 0.01,0.1\n",
    "bounds": BOWL + "optimizer.id = nsgdm\nrun.T_grid = 20\nrun.n_seeds = 2\n",
    "certify": BOWL + "certify.n_pairs = 100\n",
    "igt-check": QUAD + "igt_check.checkpoints = 1,4\nigt_check.n_runs = 1000\n",
}
# a file that lists its seeds
LISTED = {command: text.replace("run.n_seeds = 2\n", "run.seeds = 3,4\n") for command, text in READ_WHOLE.items()}

# (command, the keys added to its file, the refusal), or (command, file, keys, refusal)
NEWLY_REFUSED = [(case[0], READ_WHOLE[case[0]], *case[1:]) if len(case) == 3 else case for case in [
    ("run", "optimizer.eta = 0.7\n", "keys ['eta'] do not apply to optimizer 'nsgdm'"),
    ("run", "optimizer.beta = 0.2\n", "keys ['beta'] do not apply to optimizer 'nsgdm'"),
    ("sweep", "optimizer.eta = 0.7\n", "keys ['eta'] do not apply to optimizer 'nsgdm'"),
    ("sweep", "optimizer.theorem = 1\n", "keys ['theorem'] do not apply to optimizer 'nsgdm'"),
    ("run", "run.T_grid = 5,6\n", "keys ['T_grid'] do not apply to run (section 'run')"),
    ("sweep", "run.T_grid = 5,6\n", "keys ['T_grid'] do not apply to sweep (section 'run')"),
    ("run", LISTED["run"], "run.n_seeds = 2\n", "keys ['n_seeds'] do not apply to run (section 'run')"),
    ("sweep", LISTED["sweep"], "run.master_seed = 5\n", "keys ['master_seed'] do not apply to sweep (section 'run')"),
    ("bounds", LISTED["bounds"], "run.master_seed = 5\n",
     "keys ['master_seed'] do not apply to bounds (section 'run')"),
    ("sweep", "output.formats = csv\n", "keys ['formats'] do not apply to sweep (section 'output')"),
    ("bounds", "output.formats = csv,json,svg\n", "keys ['formats'] do not apply to bounds (section 'output')"),
    ("certify", "output.formats = json\n", "keys ['formats'] do not apply to certify (section 'output')"),
    ("igt-check", "output.formats = svg\n", "keys ['formats'] do not apply to igt-check (section 'output')"),
    ("run", "certify.n_pairs = 100\n", "keys ['n_pairs'] do not apply to run (section 'certify')"),
    ("run", "sweep.eta_grid = 9.0\n", "keys ['eta_grid'] do not apply to run (section 'sweep')"),
    ("bounds", "igt_check.n_runs = 5\n", "keys ['n_runs'] do not apply to bounds (section 'igt_check')"),
    ("sweep", "certify.radius = 0.001\n", "keys ['radius'] do not apply to sweep (section 'certify')"),
    ("certify", "optimizer.id = nigt\nrun.T = 10\n", "keys ['id'] do not apply to certify (section 'optimizer')"),
    ("certify", "run.n_seeds = 3\nrun.T = 5\n", "keys ['T', 'n_seeds'] do not apply to certify (section 'run')"),
    ("certify", "schedule.power = 2\n", "keys ['power'] do not apply to certify (section 'schedule')"),
    ("igt-check", "sweep.eta_grid = 1.0\n", "keys ['eta_grid'] do not apply to igt-check (section 'sweep')"),
    ("igt-check", "certify.n_pairs = 100\n", "keys ['n_pairs'] do not apply to igt-check (section 'certify')"),
]]


class TestNewRefusals:
    """Each key a command once accepted and ignored is refused (exit 1, one
    stderr line, nothing written), and the earlier command functions wrote
    the same with and without it."""

    @pytest.mark.parametrize("command, text, extra, message", NEWLY_REFUSED)
    def test_refused_and_without_effect_before(self, tmp_path, command, text, extra, message):
        (tmp_path / "full.cfg").write_text(text + extra, encoding="utf-8")
        (tmp_path / "base.cfg").write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        argv = lambda name: [command, "--config", str(tmp_path / name), "--out", str(out)]
        results, files, caught = invoke(main, [argv("full.cfg")], [out])
        assert (results, files, caught) == ([(1, "", f"config error: {message}\n")], [{}], [])
        ref = invoke(ref_main, [argv("full.cfg")], [out])
        assert ref[0][0][0] in (0, 2) and ref[1][0]
        assert invoke(ref_main, [argv("base.cfg")], [out]) == ref
        assert invoke(main, [argv("base.cfg")], [out]) == ref

    @pytest.mark.parametrize("command", ["run", "sweep", "bounds"])
    @pytest.mark.parametrize("flags, extra", [
        (["--seeds", "2"], "run.master_seed = 5\n"),
        (["--seeds", "2"], "run.n_seeds = 3\nrun.master_seed = 5\n"),
        (["--master-seed", "9"], "run.n_seeds = 3\n"),
        (["--master-seed", "9"], "run.n_seeds = 3\nrun.master_seed = 5\n"),
        (["--seeds", "2", "--master-seed", "9"], "run.n_seeds = 3\nrun.master_seed = 5\n"),
    ], ids=["seeds", "seeds_over_count", "master", "master_over_master", "both"])
    def test_a_seed_flag_overrides_every_seed_key(self, tmp_path, command, flags, extra):
        # a flag replaces run.seeds and overrides the count and master seed,
        # and the one it leaves is read: run.master_seed = 5 under --seeds 2
        # runs seeds 5 and 6, as the earlier functions did; without a flag
        # the count and master seed next to the list are refused
        (tmp_path / "exp.cfg").write_text(LISTED[command] + extra, encoding="utf-8")
        out = tmp_path / "out"
        argv = [[command, "--config", str(tmp_path / "exp.cfg"), "--out", str(out), *flags]]
        new = invoke(main, argv, [out])
        assert new[0][0][0] in (0, 2) and new == invoke(ref_main, argv, [out])
        assert invoke(main, [argv[0][:-len(flags)]], [out])[0] == [
            (1, "", f"config error: keys {sorted(k for k in ('master_seed', 'n_seeds') if f'run.{k}' in extra)} "
                    f"do not apply to {command} (section 'run')\n")]
        if command == "run" and flags == ["--seeds", "2"]:
            assert json.loads(new[1][0]["summary.json"])["seeds"] == [5, 6]

    def test_a_manual_run_without_a_rate_is_refused_before_its_other_checks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(BOWL + "optimizer.id = nsgdm\nrun.T = 0\n", encoding="utf-8")
        argv = [["run", "--config", str(path), "--out", str(tmp_path / "out")]]
        new, ref = invoke(main, argv, [tmp_path / "out"]), invoke(ref_main, argv, [tmp_path / "out"])
        assert (new[0], ref[0]) == ([NO_ETA], [MANUAL_ETA]) and agree(new, ref)

    def test_bounds_without_an_id_is_refused_when_its_settings_are_read(self, tmp_path):
        path = tmp_path / "bounds.cfg"
        path.write_text(without(READ_WHOLE["bounds"], {"optimizer.id"}), encoding="utf-8")
        argv = [["bounds", "--config", str(path), "--out", str(tmp_path / "out")]]
        new, ref = invoke(main, argv, [tmp_path / "out"]), invoke(ref_main, argv, [tmp_path / "out"])
        assert (new[0], ref[0]) == ([BOUNDS_WITHOUT_ID], [NO_TUNING_FOR_NONE]) and agree(new, ref)


MANUAL_ETA = (1, "", "config error: manual runs need optimizer.eta\n")
NO_ETA = (1, "", "config error: section 'optimizer' requires key 'eta'\n")
SELF_TUNING_PREMISE = "the self-tuning method sets its own step sizes; use a constant schedule"
# the self-tuning method under a schedule that is not constant, once run had started it
SELF_TUNING_STARTED = (1, "", f"error: {SELF_TUNING_PREMISE}\n")
NO_RATE_TO_SWEEP = (1, "", "config error: the self-tuning method has no base rate to sweep\n")
# bounds without optimizer.id, once tuning was asked for the method None, and now
NO_TUNING_FOR_NONE = (1, "", "error: no closed-form tuning for None\n")
BOUNDS_WITHOUT_ID = (1, "", "config error: section 'optimizer' requires key 'id'\n")
# bounds without run.T_grid, once and now
BOUNDS_NEEDS_GRID = (1, "", "config error: bounds needs run.T_grid\n")
NO_T_GRID = (1, "", "config error: section 'run' requires key 'T_grid'\n")
# a manual run's rate outside its domain, once refused as it was resolved
OLD_RATE_DOMAIN = re.compile(r"config error: invalid hyperparameters: need eta > 0 and beta in \[0, 1\), "
                             r"got eta = .*\n")
# a rate that RunConfig refuses: built by the command (config error) or by the
# library (a sweep's grid point, a tuned horizon of bounds); the value last
RATE_RULE = re.compile(r"(?:config error: invalid run configuration: |error: )"
                       r"(?:\S+ needs a base rate: eta must be finite and > 0|beta must lie in \[0, 1\)), got (.*)\n")
OLD_COVER = "config error: invalid layer partition: ranges "
NEW_COVER = "config error: invalid run configuration: ranges "
# a layer partition refused for its own shape or scales, before and now
OLD_PARTITION = ("config error: invalid layer partition: ", "config error: optimizer.layers needs at least two boundaries")
NEW_PARTITION = "config error: invalid layer partition: "
NONFINITE_SCALE = re.compile(r"config error: invalid layer partition: lr scale must be finite and > 0, got (?:nan|inf)\n")
# a run's exact logs that refute the declared R
R_REFUTED = re.compile(r"error: F\(w1\) - min logged F = \S+ exceeds declared R \S+ \* \(1\+tol\)\n")
REPEATED_HORIZON = re.compile(r"error: T_grid must be distinct, got \[.*\]\n")
# a theorem's tuning that rounds out of its domain: refused when a run is
# built (config error) or by bound_acceptance before any horizon runs; its eta
TUNED_OUT = re.compile(r"(?:config error: invalid hyperparameters: |error: )the \S+ tuning at R = .*, T = \d+ "
                       r"rounds out of its domain: eta = (.*), beta = .*\n")
SEED_FLAGS = ("--seeds", "--master-seed")


def agree(new, ref) -> bool:
    """The same results, but for these refusals of the first command, each
    exit 1 with nothing written:

    - a manual run without optimizer.eta, as ``section 'optimizer' requires
      key 'eta'``;
    - the self-tuning method under a schedule that is not constant, when
      its run is built, with the message of the other run configuration
      faults, where run refused it once started;
    - a sweep of the self-tuning method, for having no base rate, when its
      rate is resolved, under any schedule and before the run
      configuration's own checks, where sweep refused it once started (or
      for another fault, or for its unread keys);
    - bounds without optimizer.id, when its settings are read, where tuning
      once refused the method None;
    - a base rate or beta outside its domain, with the text RunConfig raises
      when the run (or each grid point of a sweep) is built, before the run
      configuration's other checks. The earlier code refused it too, as its
      rate was resolved, when run started or at its grid point, but for a
      rate of 0, which it ran. A layer partition of the wrong shape is now
      refused before a manual rate outside its domain;
    - a layer partition that does not cover the dimension, as an invalid
      run configuration, where it was an invalid layer partition;
    - bounds without run.T_grid, as ``section 'run' requires key
      'T_grid'``;
    - bounds on a grid that repeats a horizon, which it ran twice;
    - a theorem's tuning whose eta rounds to 0 or whose beta rounds to 1,
      by the tuning, naming its constants and T, when the run is built or
      before any horizon of bounds runs. The earlier code refused its beta
      of 1 when the run (or that horizon) started, but ran an eta of 0;
    - a layer partition refused for its boundaries, its scale count or a
      scale, as an invalid layer partition with the texts of the
      boundaries: the earlier code refused it as a partition too, with the
      texts of its ranges, or, for a NaN or infinite scale, ran it;

    and for these check failures, exit 2 with nothing written:

    - a theorem run or bounds whose exact logs refute the declared R (the
      F(w1) - min logged F line), which the earlier code ran and wrote."""
    (results, files, caught), (ref_results, ref_files, ref_caught) = new, ref
    first, ref_first = results[0], ref_results[0]
    rate = RATE_RULE.fullmatch(first[2])
    tuning = TUNED_OUT.fullmatch(first[2])
    moved = (ref_first == MANUAL_ETA and first == NO_ETA
             or ref_first == SELF_TUNING_STARTED
             and first == (1, "", f"config error: invalid run configuration: {SELF_TUNING_PREMISE}\n")
             or first == NO_RATE_TO_SWEEP and ref_first[:2] == (1, "")
             or ref_first == NO_TUNING_FOR_NONE and first == BOUNDS_WITHOUT_ID
             or first[:2] == (1, "") and rate and (ref_first[0] == 1 or float(rate[1]) == 0.0)
             or first[:2] == (1, "") and OLD_RATE_DOMAIN.fullmatch(ref_first[2])
             and first[2].startswith(("config error: invalid layer partition: ", "config error: optimizer.layers "))
             or ref_first[2].startswith(OLD_COVER) and first == (1, "", NEW_COVER + ref_first[2][len(OLD_COVER):])
             or ref_first == BOUNDS_NEEDS_GRID and first == NO_T_GRID
             or first[:2] == (1, "") and REPEATED_HORIZON.fullmatch(first[2])
             or first[:2] == (1, "") and tuning and (ref_first[0] == 1 or float(tuning[1]) == 0.0)
             or first[:2] == (1, "") and first[2].startswith(NEW_PARTITION)
             and (ref_first[2].startswith(OLD_PARTITION) or NONFINITE_SCALE.fullmatch(first[2]))
             or first[:2] == (2, "") and R_REFUTED.fullmatch(first[2]) and ref_first[0] != 1)
    return new == ref or (moved and not files[0]
                          and (results[1:], files[1:], caught) == (ref_results[1:], ref_files[1:], ref_caught))


KIND_REFUSAL = (1, "", "config error: igt-check needs a noisy_quadratic problem (constant Hessian)\n")


def reference(argvs, outs):
    """What the earlier command functions do, but for one check: where their
    igt-check refused a problem for its kind (KIND_REFUSAL), what they do
    without that check, since the moment check now refuses what it does not
    cover itself."""
    ref = invoke(ref_main, argvs, outs)
    if ref[0][0] == KIND_REFUSAL:
        with mock.patch.object(sys.modules[__name__], "NoisyQuadratic", StochasticProblem):
            ref = invoke(ref_main, argvs, outs)
    return ref


def without(text: str, keys: set) -> str:
    """``text`` without the lines that set ``keys`` ("section.key")."""
    return "".join(line + "\n" for line in text.splitlines() if line.split(" = ")[0] not in keys)


def ref_refusal(text: str, command: str, flags: list[str]):
    """The message with which the earlier code refused the file's unread keys, or None."""
    try:
        ref_refuse_unread(ref_parse_experiment(text), command, *(
            int(flags[flags.index(flag) + 1]) if flag in flags else None for flag in SEED_FLAGS))
    except ConfigError as e:
        return str(e)
    return None


RUN_BOWL = BOWL + "optimizer.id = nsgdm\nrun.T = 20\nrun.n_seeds = 2\n"
LAYERWISE = BOWL + "optimizer.id = nigt_layerwise\noptimizer.layers = 0,1\nrun.T = 20\nrun.n_seeds = 2\n"
INVALID_RUN = "config error: invalid run configuration: "
BAD_RATE = "nsgdm needs a base rate: eta must be finite and > 0, got {}"
OLD_BAD_RATE = "error: nsgdm needs a base rate: eta must be finite and >= 0, got {}"
BAD_BETA = "beta must lie in [0, 1), got {}"
OLD_DOMAIN = "config error: invalid hyperparameters: need eta > 0 and beta in [0, 1), got eta = {}, beta = {}"
GAP = "ranges cover [0, 1) but dim is 2"
INVALID_PARTITION = "config error: invalid layer partition: "
BOUNDARIES = "layer boundaries must rise strictly from 0, at least two of them, got [{}]"
THEOREM_1 = BOWL + "optimizer.id = nsgdm\noptimizer.theorem = 1\n{}\nrun.n_seeds = 2\n"
TUNED_OUT_OF_DOMAIN = ("the nsgdm tuning at R = {}, L = {}, rho = 1.0, sigma = 0.5, T = {} rounds out of its domain: "
                       "eta = {}, beta = {}")
BOWL_R = make_trig_bowl(2, 1.0, 1.0, 0.5).R  # F(w1) - inf F
UNCERTIFIABLE_DIM = MAX_CERT_CELLS // (CERT_N_SIGMA // 20) + 1  # one above what certification takes

# (command, file, its stderr now, its stderr before (exit 1, or an (exit code,
# stderr) pair for a run that failed without writing), or None where the
# earlier code ran it and wrote its results): each refusal that the rate rules
# of RunConfig, the tuning or the layer boundaries moved or reworded, the
# repeated horizon that bounds refuses, and where bounds checks the size of its
# certification
CHANGED_REFUSALS = [
    *[("run", RUN_BOWL + f"optimizer.eta = {eta}\n", INVALID_RUN + BAD_RATE.format(eta), OLD_DOMAIN.format(eta, 0.9))
      for eta in ("0.0", "-0.0", "-1.0", "nan")],
    ("run", RUN_BOWL + "optimizer.eta = inf\n", INVALID_RUN + BAD_RATE.format("inf"), OLD_BAD_RATE.format("inf")),
    *[("run", RUN_BOWL + f"optimizer.eta = 0.1\noptimizer.beta = {beta}\n", INVALID_RUN + BAD_BETA.format(beta),
       OLD_DOMAIN.format(0.1, beta)) for beta in ("-0.5", "1.0", "nan")],
    ("run", RUN_BOWL, NO_ETA[2][:-1], MANUAL_ETA[2][:-1]),
    *[("sweep", RUN_BOWL + f"optimizer.beta = {beta}\nsweep.eta_grid = 0.01\n", INVALID_RUN + BAD_BETA.format(beta),
       "error: " + BAD_BETA.format(beta)) for beta in ("-0.5", "1.0", "nan")],
    *[("sweep", RUN_BOWL + f"sweep.eta_grid = 0.01,{eta}\n", "error: " + BAD_RATE.format(eta),
       None if float(eta) == 0.0 else OLD_BAD_RATE.format(eta)) for eta in ("0.0", "-0.0", "-0.1")],
    ("run", LAYERWISE + "optimizer.eta = 0.1\n", INVALID_RUN + GAP, "config error: invalid layer partition: " + GAP),
    ("sweep", LAYERWISE, INVALID_RUN + GAP, "config error: invalid layer partition: " + GAP),
    ("run", LAYERWISE.replace("layers = 0,1", "layers = 0") + "optimizer.eta = -1.0\n",
     INVALID_PARTITION + BOUNDARIES.format("0"), OLD_DOMAIN.format(-1.0, 0.9)),
    # the partition's own refusals, now of its boundaries and of a scale
    # that is not finite and > 0, where they were of its ranges
    ("run", LAYERWISE.replace("layers = 0,1", "layers = 0") + "optimizer.eta = 0.1\n",
     INVALID_PARTITION + BOUNDARIES.format("0"), "config error: optimizer.layers needs at least two boundaries"),
    *[("run", LAYERWISE.replace("layers = 0,1", f"layers = {layers}") + "optimizer.eta = 0.1\n",
       INVALID_PARTITION + BOUNDARIES.format(layers.replace(",", ", ")), INVALID_PARTITION + earlier)
      for layers, earlier in (("0,2,2", "bad range (2, 2)"), ("0,2,1", "bad range (2, 1)"),
                              ("1,2", "ranges leave a gap or overlap at index 0"))],
    ("run", LAYERWISE.replace("layers = 0,1", "layers = 0,1,2") + "optimizer.eta = 0.1\n"
     "optimizer.lr_scale = 1.0,-1.0\n",
     INVALID_PARTITION + "lr scale must be finite and > 0, got -1.0",
     INVALID_PARTITION + "lr scale must be positive, got -1.0"),
    # a NaN or infinite scale, which the earlier code ran until the step
    # after it moved every coordinate of its layer to inf or NaN
    *[("run", BOWL.replace("dim = 2", "dim = 4") + "optimizer.id = nigt_layerwise\noptimizer.eta = 0.01\n"
       f"optimizer.layers = 0,2,4\noptimizer.lr_scale = 1.0,{scale}\nrun.T = 20\nrun.n_seeds = 2\n",
       INVALID_PARTITION + f"lr scale must be finite and > 0, got {scale}",
       (2, "error: seed 0 diverged at step 2: gradient sample contains NaN or Inf")) for scale in ("nan", "inf")],
    ("bounds", BOWL + "optimizer.id = nsgdm\nrun.n_seeds = 2\n", NO_T_GRID[2][:-1], BOUNDS_NEEDS_GRID[2][:-1]),
    ("bounds", BOWL + "optimizer.id = nsgdm\nrun.T_grid = 5,5,20\nrun.n_seeds = 2\n",
     "error: T_grid must be distinct, got [5, 5, 20]", None),
    ("run", THEOREM_1.format("problem.R = 1e-30\nrun.T = 10000"),
     "config error: invalid hyperparameters: " + TUNED_OUT_OF_DOMAIN.format(1e-30, 1.0, 10000, 4.4721359549995796e-26, 1.0),
     "error: " + BAD_BETA.format(1.0)),
    ("run", THEOREM_1.format("problem.R = 1e-300\nrun.T = 20"),
     "config error: invalid hyperparameters: " + TUNED_OUT_OF_DOMAIN.format(1e-300, 1.0, 20, 0.0, 1.0),
     "error: " + BAD_BETA.format(1.0)),
    ("run", THEOREM_1.format("problem.L = 1e308\nrun.T = 20"),
     "config error: invalid hyperparameters: " + TUNED_OUT_OF_DOMAIN.format(BOWL_R, 1e308, 20, 0.0, 0.0), None),
    ("bounds", BOWL + "optimizer.id = nsgdm\nproblem.R = 1e-30\nrun.T_grid = 10,100,1000,10000\nrun.n_seeds = 2\n",
     "error: " + TUNED_OUT_OF_DOMAIN.format(1e-30, 1.0, 10000, 4.4721359549995796e-26, 1.0),
     "error: " + BAD_BETA.format(1.0)),
    # the size of bounds' certification is checked when the horizons are
    # built, after the unread keys are refused; from the time it was first
    # checked before any horizon ran until then, it was checked before them
    ("bounds", BOWL.replace("dim = 2", f"dim = {UNCERTIFIABLE_DIM}") + "optimizer.id = nsgdm\nrun.T = 5\n"
     "run.T_grid = 5\nrun.n_seeds = 2\n", "config error: keys ['T'] do not apply to bounds (section 'run')",
     "config error: keys ['T'] do not apply to bounds (section 'run')"),
]


# (command, file, its stderr now): a declared R of 0.5 on the trig bowl at
# d=4, whose F(w1) - inf F is 5.6646, refuted by the exact logs of bounds'
# first horizon and of a theorem-2 run
BOWL_4 = BOWL.replace("dim = 2", "dim = 4") + "problem.R = 0.5\n"
REFUTED_R = [
    ("bounds", BOWL_4 + "optimizer.id = nsgdm\nrun.T_grid = 100,1000,10000\nrun.n_seeds = 20\n",
     "error: F(w1) - min logged F = 4.75822 exceeds declared R 0.5 * (1+tol)"),
    ("run", BOWL_4 + "optimizer.id = nigt\noptimizer.theorem = 2\nrun.T = 1000\nrun.n_seeds = 5\n",
     "error: F(w1) - min logged F = 5.66457 exceeds declared R 0.5 * (1+tol)"),
]


class TestExitCodeContract:
    """Every command on any experiment file exits 0, 1 or 2 with no
    traceback or warning, writes nothing when it exits 1, writes the same
    bytes when run again, and does all of it as the earlier command
    functions did. The one new outcome is a refusal of the keys the
    command never reads: the earlier functions refuse that file too, or
    they write the same on it as on the file without those keys, and the
    change matches them there. The refusal is the one the read sets gave,
    but for a file that also fails to build, where that fault is named
    first. Apart from that, the refusals that :func:`agree` lists changed,
    and igt-check no longer refuses a problem for its kind
    (:func:`reference`). At least one drawn igt-check file reaches the
    moment check's refusal of a curved Hessian, and drawn files reach the
    file parser's refusal of a number, a bool and a list. Each refusal that
    the rate rules of RunConfig, the tuning or the layer boundaries moved or
    reworded, and the place of bounds' size check after its unread keys,
    also has a file of its own (:data:`CHANGED_REFUSALS`), compared the same
    way, and so does each run that now fails for logs that refute R
    (:data:`REFUTED_R`)."""

    def test_commands_keep_the_contract_and_match_the_reference(self):
        stderrs = []

        @settings(max_examples=300)
        @given(invocations())
        def check(invocation):
            stderrs.append(self.keeps_the_contract(*invocation))

        check()
        assert any(err.startswith("error: moment identity requires a constant Hessian;") for err in stderrs)
        parser = {m[1] for err in stderrs if (m := re.match(r"config error: line \d+: expected (.*?), got ", err))}
        assert parser == {"a number", "an integer", "true or false", "a comma-separated list"}

    @pytest.mark.parametrize("command, text, message, earlier", CHANGED_REFUSALS,
                             ids=[f"{i}-{case[0]}" for i, case in enumerate(CHANGED_REFUSALS)])
    def test_each_changed_refusal(self, tmp_path, command, text, message, earlier):
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text(text, encoding="utf-8")
        argvs = [[command, "--config", str(path), "--out", str(out)]]
        ref = invoke(ref_main, argvs, [out])
        assert invoke(main, argvs, [out]) == ([(1, "", f"{message}\n")], [{}], [])
        if earlier is None:
            assert ref[0][0][0] in (0, 2) and ref[1][0]
        else:
            code, earlier = earlier if isinstance(earlier, tuple) else (1, earlier)
            assert ref == ([(code, "", f"{earlier}\n")], [{}], [])
        assert self.keeps_the_contract(command, text, []) == f"{message}\n"

    @pytest.mark.parametrize("command, text, message", REFUTED_R, ids=[case[0] for case in REFUTED_R])
    def test_each_refuted_R(self, tmp_path, command, text, message):
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text(text, encoding="utf-8")
        argvs = [[command, "--config", str(path), "--out", str(out)]]
        ref = invoke(ref_main, argvs, [out])
        assert invoke(main, argvs, [out]) == ([(2, "", f"{message}\n")], [{}], [])
        assert ref[0] == [(0, "", "")] and ref[1][0]  # the earlier code passed it and wrote its results
        if command == "run":
            assert json.loads(ref[1][0]["summary.json"])["pass"] is True
        assert self.keeps_the_contract(command, text, []) == f"{message}\n"

    @staticmethod
    def keeps_the_contract(command, text, flags) -> str:
        """Check one invocation; the stderr of its first command."""
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "exp.cfg", Path(tmp) / "out"
            cfg.write_text(text, encoding="utf-8")
            argvs = [[command, "--config", str(cfg), "--out", str(out), *flags]]
            outs = [out]
            new = invoke(main, argvs, outs)
            results, files, caught = new
            assert not caught
            for (code, _, stderr), written in zip(results, files):
                assert code in (0, 1, 2)
                assert "Traceback" not in stderr and "Warning" not in stderr
                assert code != 1 or not written
            assert invoke(main, argvs, outs) == new
            ref = reference(argvs, outs)
            if agree(new, ref):
                return results[0][2]
            assert results[0][:2] == (1, "")
            read = ref_read_keys(ref_parse_experiment(text), command, *(
                int(flags[flags.index(flag) + 1]) if flag in flags else None for flag in SEED_FLAGS))
            names = [line.split(" = ")[0] for line in text.splitlines()]
            unread = {name for name in names if name.split(".")[1] not in read.get(name.split(".")[0], set())}
            assert unread
            stripped = Path(tmp) / "read.cfg"
            stripped.write_text(without(text, unread), encoding="utf-8")
            argvs_read = [[*argvs[0][:2], str(stripped), *argvs[0][3:]], *argvs[1:]]
            new_read, ref_read = invoke(main, argvs_read, outs), reference(argvs_read, outs)
            assert agree(new_read, ref_read)
            # refused as the read sets had it, or, when it does not build, for
            # the fault that the file without those keys fails on as well
            assert results[0][2] in (f"config error: {ref_refusal(text, command, flags)}\n", new_read[0][0][2])
            if ref[0][0][0] != 1:  # the refused keys did nothing
                assert ref_read == ref
            return results[0][2]


# -- what the builders read, against the read sets they replaced ------------------------
# Each command once refused, before anything was built, the keys that
# ref_read_keys did not give; now each builder notes the keys it reads, and
# the command refuses the rest once it is built.

RATE = "optimizer.eta = 0.1\n"
# a file that each command builds: run and sweep for each method and schedule
# kind (run the self-tuning method under a constant one only, sweep it not
# at all), bounds for each method
BUILT = [("run", BOWL + f"optimizer.id = {m}\n{'' if m == 'nigt_adaptive' else RATE}schedule.kind = {kind}\n"
          "run.T = 20\nrun.n_seeds = 2\n") for m in OPTIMIZER_IDS for kind in ("constant", "warmup_poly_decay")
         if m != "nigt_adaptive" or kind == "constant"]
BUILT += [("sweep", text.replace(RATE, "")) for _, text in BUILT if "nigt_adaptive" not in text]
BUILT += [("bounds", BOWL + f"optimizer.id = {m}\nrun.T_grid = 20\nrun.n_seeds = 2\n") for m in OPTIMIZER_IDS]
BUILT += [("certify", READ_WHOLE["certify"]), ("igt-check", READ_WHOLE["igt-check"])]


def with_each_key(text: str) -> list[str]:
    """``text``, and ``text`` with each key of the schema it does not set
    added at a usual value (a vector at the problem's dimension, 2)."""
    texts = [text]
    for section, keys in _SCHEMA.items():
        for key, typ in keys.items():
            name = f"{section}.{key}"
            if f"\n{name} = " in "\n" + text:
                continue
            usual = USUAL.get(name, {"str": ["out"], "bool": [True]}.get(typ))
            value = (usual * 2)[:2] if key in VECTORS else usual if typ.endswith("_list") else usual[0]
            texts.append(text + f"{name} = {_format_value(value)}\n")
    return texts


class _Built(Exception):
    """The command was built and refused none of the keys."""


class _Refused(Exception):
    """The command was built and refused the keys it left unread."""


@functools.cache
def parsed(argv: tuple[str, ...]):
    return build_parser().parse_args(argv)


def build_outcome(argv: list[str], text: str):
    """None when ``cli.main`` would build the command and refuse nothing,
    ("refused", message) when it would refuse unread keys, and ("fault",
    message) when building it fails; the command never runs."""
    args = parsed(tuple(argv))
    exp = parse_experiment(text)

    def refuse(exp, command):
        try:
            refuse_unread(exp, command)
        except ConfigError as e:
            raise _Refused(str(e)) from None
        raise _Built

    with mock.patch.object(cli, "refuse_unread", refuse):
        try:
            args.func(exp, args, output_dir(exp, args.out))  # as cli.main does with the loaded file
        except _Built:
            return None
        except _Refused as e:
            return "refused", str(e)
        except NigtLabError as e:
            return "fault", str(e)
    pytest.fail("the command ran")


class TestReadsMatchTheReadSets:
    """Every command on a file it builds and refuses nothing of, and on that
    file with each other key of the schema added in turn, under each set of
    seed flags: a file that builds refuses exactly the keys the read sets
    left out, with the same message, and a file that does not build exits
    1, as it did before (refused there, or failing in the earlier command
    functions)."""

    @pytest.mark.parametrize("command, text", BUILT, ids=[f"{c}-{i}" for i, (c, _) in enumerate(BUILT)])
    def test_refusals_match_the_read_sets(self, tmp_path, command, text):
        flag_sets = [[], ["--master-seed", "3"]] + ([["--seeds", "2"], ["--seeds", "2", "--master-seed", "3"]]
                                                   if command in ("run", "sweep", "bounds") else [])
        assert build_outcome([command, "--config", "exp.cfg", "--out", str(tmp_path / "out")], text) is None
        for extended in with_each_key(text):
            for flags in flag_sets:
                argv = [command, "--config", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "out"), *flags]
                got, ref = build_outcome(argv, extended), ref_refusal(extended, command, flags)
                if got is None or got[0] == "refused":
                    assert got == (ref and ("refused", ref)), extended
                elif ref is None:
                    (tmp_path / "exp.cfg").write_text(extended, encoding="utf-8")
                    with contextlib.redirect_stderr(io.StringIO()):
                        assert ref_main(argv) == EXIT_USAGE, extended
                assert not (tmp_path / "out").exists()
