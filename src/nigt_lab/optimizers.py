"""Step rules: one transport step shared by every method, its three moves,
the self-tuning accumulator, learning-rate schedules and layer partitions.

Every method in the package is one recurrence,

    x_t     = w_t + k_t (w_t - w_{t-1})          (query point)
    m_t     = beta_t m_{t-1} + alpha_t g(x_t)     (momentum)
    w_{t+1} = w_t - eta_t * move(m_t),

and the methods differ only in the coefficients and the move, which the rows
of :data:`METHODS` name. The fixed-beta methods set alpha_t = 1 - beta_t and
beta_1 = 0, so the first momentum is the first sample; the self-tuning one
reads (eta_t, alpha_t) from :class:`SelfTuning`, with beta_t = 1 - alpha_t.

A transporting method queries at k_t = beta_t / alpha_t, which only
:func:`transport_weight` computes; the others query at k_t = 0. This
implicit gradient transport keeps the momentum average an unbiased estimate
of the current gradient whenever the Hessian is constant, and nearly
unbiased when it drifts slowly. The normalized moves travel exactly eta per
step; when ``||m||`` falls at or below the norm floor the step is a
recorded no-move (the direction is undefined there; substituting a random
one would break replay determinism).

The step and the moves act on the last axis: a state holds one vector per
row, so the runner steps every seed of a run at once as ``(S, d)`` arrays,
with a coefficient that differs per seed given as an ``(S, 1)`` column.
Each row rounds exactly as it would on its own.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import NORM_FLOOR, InvariantEvent, normalize, pow_sevenths, rowdot, rownorm
from .errors import InvalidInput, NonFiniteGradient

# Floor applied when a learning rate is scaled by a weight norm, so layers
# that start at zero still move.
WEIGHT_NORM_FLOOR = 1e-8

# Relative slack for the self-tuning invariant checks; the identities hold in
# exact arithmetic, so anything beyond a few ulps is a real violation.
_INV_REL_TOL = 1e-12


def check_finite_rows(g: np.ndarray) -> None:
    """Raise :class:`NonFiniteGradient` naming the first row of gradient
    samples that holds a NaN or Inf."""
    bad = ~np.isfinite(g).all(axis=-1)
    if bad.any():
        raise NonFiniteGradient("gradient sample contains NaN or Inf", int(np.flatnonzero(bad)[0]))


def paired_sq_diff(g: np.ndarray, g_paired: np.ndarray) -> np.ndarray:
    """``||g - g_paired||^2`` per row, for :meth:`SelfTuning.accumulate`.
    With ``g`` finite, a finite sum proves its row of ``g_paired`` finite,
    so only a non-finite sum sends ``g_paired`` to :func:`check_finite_rows`."""
    diff = g - g_paired
    sq = rowdot(diff, diff)
    if not sq.max(initial=0.0) < math.inf:  # NaN fails too
        check_finite_rows(g_paired)
    return sq


# -- the transport step --------------------------------------------------------


@dataclass(frozen=True)
class StepState:
    w: np.ndarray
    w_prev: np.ndarray  # iterate before w; equal to w at the start
    m: np.ndarray
    no_move: np.ndarray | bool = False  # per row: the step that produced this state skipped its move
    m_norm: np.ndarray | None = None  # per row: ||m||, from the step that produced this state


def transport_step(s: StepState, sample, eta, beta, alpha, move, transport):
    """One step of the shared recurrence; returns (new state, x, g).

    Samples g = sample(x) at x = w + k (w - w_prev), where k is
    :func:`transport_weight` when ``transport`` is set and 0 otherwise, sets
    m = beta m + alpha g and moves w by eta along m. Rows with k == 0 query
    w itself (when every row does, the returned x *is* ``s.w``). The two
    momentum weights are passed separately because in float64
    ``1 - (1 - alpha)`` is not always ``alpha``; their domain is the
    caller's to check (``RunConfig``, for a fixed beta). A negative or
    non-finite eta, like a non-finite sample, raises
    :class:`NonFiniteGradient` naming the first such row.

    The row norms of m are taken once: the move and the new state's
    ``m_norm`` read them, and a finite norm proves its row of g finite
    (a non-finite entry of g makes that row of m non-finite), so only a
    non-finite norm sends g through :func:`check_finite_rows`.
    """
    if isinstance(eta, (int, float)):
        if not 0.0 <= eta < math.inf:
            raise NonFiniteGradient(f"eta must be finite and >= 0, got {float(eta)}", 0)
    else:
        bad = ~(np.greater_equal(eta, 0.0) & np.isfinite(eta))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise NonFiniteGradient(f"eta must be finite and >= 0, got {float(np.ravel(eta)[row])}", row)
    k = transport_weight(beta, alpha) if transport else 0.0
    if isinstance(k, (int, float)):
        x = s.w if k == 0.0 else s.w + k * (s.w - s.w_prev)
    else:
        at_w = np.equal(k, 0.0)
        if at_w.all():
            x = s.w
        else:
            x = s.w + k * (s.w - s.w_prev)
            if at_w.any():
                x = np.where(at_w, s.w, x)
    g = sample(x)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite g is refused below
        m = beta * s.m + alpha * g
        n = rownorm(m)
    if not n.max(initial=0.0) < math.inf:  # NaN fails too
        check_finite_rows(g)
    w, moved = move(s.w, m, eta, n)
    return StepState(w=w, w_prev=s.w, m=m, no_move=~moved, m_norm=n), x, g


def plain_move(w: np.ndarray, m: np.ndarray, eta, n):
    """w - eta m; always moves. Returns (new_w, moved per row)."""
    return w - eta * m, np.ones(w.shape[:-1], dtype=bool)


def normalized_move(w: np.ndarray, m: np.ndarray, eta, n=None):
    """Move each row ``eta`` along m / ||m||, or leave it at or below the
    norm floor; ``n`` is ``rownorm(m)``, when the caller has it."""
    unit, moved = normalize(m, NORM_FLOOR, n)
    w_new = w - eta * unit
    return (w_new if moved.all() else np.where(moved[..., None], w_new, w)), moved


def blockwise_move(partition: LayerPartition, weight_norm_scaling: bool = False):
    """Normalized move per layer: each travels its own scaled rate (times its
    weight norm, when enabled) and no-moves on its own; the step counts as a
    no-move when any layer does. On one unscaled layer this is
    :func:`normalized_move`. ``RunConfig`` checks that the layers cover w."""

    def move(w: np.ndarray, m: np.ndarray, eta, n):
        w_new = w.copy()
        moved_all = np.ones(w.shape[:-1], dtype=bool)
        for lo, hi, scale in zip(partition.boundaries, partition.boundaries[1:], partition.lr_scale):
            eta_layer = eta * scale
            if weight_norm_scaling:
                eta_layer = eta_layer * np.maximum(rownorm(w[..., lo:hi]), WEIGHT_NORM_FLOOR)[..., None]
            w_new[..., lo:hi], moved = normalized_move(w[..., lo:hi], m[..., lo:hi], eta_layer)
            moved_all &= moved
        return w_new, moved_all

    return move


@dataclass(frozen=True)
class Method:
    move: Callable  # plain_move, normalized_move, or blockwise_move over the run's partition
    transport: bool  # queries x_t at k_t = transport_weight(beta_t, alpha_t), else at w_t (k_t = 0)
    momentum: bool  # keeps its momentum past step 1, else beta_t = 0 throughout (sgd)
    self_tuning: bool = False  # its (eta_t, alpha_t) come from SelfTuning


def transport_weight(beta, alpha):
    """The transport rule k_t = beta_t / alpha_t: beta / (1 - beta) for a fixed beta."""
    return beta / alpha


METHODS = {
    "sgd": Method(plain_move, transport=False, momentum=False),
    "heavy_ball": Method(plain_move, transport=False, momentum=True),
    "nsgdm": Method(normalized_move, transport=False, momentum=True),
    "nigt": Method(normalized_move, transport=True, momentum=True),
    "nigt_adaptive": Method(normalized_move, transport=True, momentum=True, self_tuning=True),
    "nigt_layerwise": Method(blockwise_move, transport=True, momentum=True),
}


# -- self-tuning rates ----------------------------------------------------------


class SelfTuning:
    """Accumulator and rates of the self-tuning normalized method.

    ``G`` accumulates squared paired-sample gradient differences plus a
    deterministic drift term; the step size and momentum weight of step t
    are derived from it:

        eta_t   = C / (G_t^2 (t+1)^3)^{1/7}
        alpha_t = 1 / (t * eta_{t-1}^2 * G_{t-1})

    with C = sqrt(7 / (26 g_bound^{6/7})), D = C^{-14/3}, G_0 = D,
    G_1 = 3 g_bound^2 + D, and eta_0 = C / D^{2/7}. These choices make
    alpha_1 = 1 exactly and keep alpha_t <= 1 and eta_t non-increasing for
    every realization, provided g_bound truly dominates the sampled
    gradient norms. Invariant violations are appended to ``events`` rather
    than silently corrected.
    """

    def __init__(self, g_bound: float):
        if not (0.0 < g_bound < 1e150):  # C and D overflow past 1e150
            raise InvalidInput(f"g_bound must be positive and below 1e150, got {g_bound}")
        self.g_bound = g_bound
        self.C = math.sqrt(7.0 / (26.0 * pow_sevenths(g_bound, 6)))
        self.D = self.C ** (-14.0 / 3.0)
        self.G = 3.0 * g_bound**2 + self.D  # G_t, feeding eta_t of the upcoming step
        # eta_t divides by (G_t^2 (t+1)^3)^{1/7}, which needs G_1^2 in the normal floats
        if not (sys.float_info.min <= self.G * self.G < math.inf):
            raise InvalidInput(f"g_bound = {g_bound} is out of range for the self-tuning rates: "
                               f"G_1^2 = {self.G * self.G} is not a positive normal float")
        self.G_prev = self.D  # G_{t-1}, feeding alpha_t
        self.eta_prev = self.C / pow_sevenths(self.D, 2)  # eta of the latest step
        self.delta = math.nan  # accumulator increment of the latest step
        self.events: list[InvariantEvent] = []

    def rates(self, t: int) -> tuple[float, float]:
        """(eta_t, alpha_t) of step t; checks the invariants they must meet.
        Raises OverflowError where eta_t would round to zero."""
        gb2 = self.g_bound * self.g_bound
        scale = self.G * self.G * float(t + 1) ** 3
        if scale == math.inf:
            raise OverflowError(f"self-tuning rate overflows: G_t^2 (t+1)^3 is inf at G_t = {self.G:.6g}")
        eta_t = self.C / pow_sevenths(scale, 1)
        alpha_t = 1.0 / (t * self.eta_prev * self.eta_prev * self.G_prev)
        if alpha_t > 1.0 + _INV_REL_TOL:
            self.events.append(InvariantEvent("alpha_above_one", t, alpha_t, 1.0))
        if eta_t > self.eta_prev * (1.0 + _INV_REL_TOL):
            self.events.append(InvariantEvent("eta_increased", t, eta_t, self.eta_prev))
        g_floor = gb2 * float(t) ** 0.25
        if self.G < g_floor * (1.0 - _INV_REL_TOL):
            self.events.append(InvariantEvent("g_below_floor", t, self.G, g_floor))
        self.eta_prev = eta_t
        return eta_t, alpha_t

    def accumulate(self, t: int, sq_diff: float) -> None:
        """Add step t's squared paired-sample difference ``||g - g'||^2``
        plus drift to G.

        ``g`` fed the momentum; ``g'`` is an independent sample at the same
        query point from a distinct stream.
        """
        gb2 = self.g_bound * self.g_bound
        drift = gb2 * (float(t + 1) ** 0.25 - float(t) ** 0.25)
        delta = sq_diff + drift
        G_next = self.G + delta
        if G_next < self.G:
            self.events.append(InvariantEvent("g_decreased", t, G_next, self.G))
        delta_cap = 4.0 * gb2 + drift
        if delta > delta_cap * (1.0 + _INV_REL_TOL):
            self.events.append(InvariantEvent("g_increment_above_bound", t, delta, delta_cap))
        if delta < drift * (1.0 - _INV_REL_TOL):
            self.events.append(InvariantEvent("g_increment_below_drift", t, delta, drift))
        self.G_prev, self.G, self.delta = self.G, G_next, delta


# -- learning-rate schedules ----------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    kind: str = "constant"
    warmup_steps: int = 0
    power: int = 1
    weight_norm_scaling: bool = False

    def __post_init__(self):
        if self.kind not in ("constant", "warmup_poly_decay"):
            raise InvalidInput(f"unknown schedule kind {self.kind!r}")
        if self.power not in (1, 2):
            raise InvalidInput(f"decay power must be 1 or 2, got {self.power}")
        if self.warmup_steps < 0:
            raise InvalidInput(f"warmup_steps must be >= 0, got {self.warmup_steps}")


def apply_schedule(sch: Schedule, t: int, T: int, base_eta: float, w_layer_norm=None):
    """Learning rate for step t of T.

    Linear ramp over the warmup steps (fewer than T: ``RunConfig`` checks),
    then polynomial decay measured from the warmup boundary so the two
    phases agree there:

        t <= warmup:  base * t / warmup
        t >  warmup:  base * ((T - t) / (T - warmup))^power

    With weight-norm scaling enabled and a norm supplied, the result is
    multiplied by max(norm, 1e-8) (elementwise for an array of norms).
    """
    if not (1 <= t <= T):
        raise InvalidInput(f"step {t} outside [1, {T}]")
    if sch.kind == "constant":
        eta = base_eta
    else:
        if sch.warmup_steps > 0 and t <= sch.warmup_steps:
            eta = base_eta * t / sch.warmup_steps
        else:
            eta = base_eta * ((T - t) / (T - sch.warmup_steps)) ** sch.power
    if sch.weight_norm_scaling and w_layer_norm is not None:
        eta = eta * np.maximum(w_layer_norm, WEIGHT_NORM_FLOOR)
    return eta


# -- layer partitions ------------------------------------------------------------


@dataclass(frozen=True)
class LayerPartition:
    """Layers by their boundaries, layer i being [boundaries[i], boundaries[i+1]),
    with a rate scale per layer."""

    boundaries: tuple[int, ...]
    lr_scale: tuple[float, ...]

    def __post_init__(self):
        b = self.boundaries
        if len(b) < 2 or b[0] != 0 or any(lo >= hi for lo, hi in zip(b, b[1:])):
            raise InvalidInput(f"layer boundaries must rise strictly from 0, at least two of them, got {list(b)}")
        if len(b) - 1 != len(self.lr_scale):
            raise InvalidInput(f"{len(b) - 1} ranges but {len(self.lr_scale)} scale factors")
        for sc in self.lr_scale:
            if not 0.0 < sc < math.inf:
                raise InvalidInput(f"lr scale must be finite and > 0, got {sc}")
