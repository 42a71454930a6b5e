"""Step rules: one transport step shared by every method, its three moves,
the self-tuning accumulator, learning-rate schedules and layer partitions.

Every method in the package is one recurrence,

    x_t     = w_t + k_t (w_t - w_{t-1})          (query point)
    m_t     = beta_t m_{t-1} + alpha_t g(x_t)     (momentum)
    w_{t+1} = w_t - eta_t * move(m_t),

and the methods differ only in the coefficients and the move:

    id              k_t            beta_t     alpha_t    move
    sgd             0              0          1          plain
    heavy_ball      0              beta       1 - beta   plain
    nsgdm           0              beta       1 - beta   normalized
    nigt            beta/(1-beta)  beta       1 - beta   normalized
    nigt_layerwise  beta/(1-beta)  beta       1 - beta   blockwise
    nigt_adaptive   (1-a_t)/a_t    1 - a_t    a_t        normalized

with beta_1 = 0 for the fixed-beta methods, so the first momentum is the
first sample, and (eta_t, a_t) read from :class:`SelfTuning` for the
adaptive one.

The transport point k = beta / (1 - beta) (implicit gradient transport)
keeps the momentum average an unbiased estimate of the current gradient
whenever the Hessian is constant, and nearly unbiased when it drifts
slowly. The normalized moves travel exactly eta per step; when ``||m||``
falls at or below the norm floor the step is a recorded no-move (the
direction is undefined there; substituting a random one would break replay
determinism).

The step and the moves act on the last axis: a state holds one vector per
row, so the runner steps every seed of a run at once as ``(S, d)`` arrays,
with a coefficient that differs per seed given as an ``(S, 1)`` column.
Each row rounds exactly as it would on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NORM_FLOOR, InvariantEvent, normalize, pow_sevenths, rownorm
from .errors import (
    InvalidGBound,
    InvalidInput,
    InvalidRate,
    NonFiniteGradient,
    PartitionMismatch,
)

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


# -- the transport step --------------------------------------------------------


@dataclass(frozen=True)
class StepState:
    w: np.ndarray
    w_prev: np.ndarray  # iterate before w; equal to w at the start
    m: np.ndarray
    t: int = 1  # index of the next step
    no_move: np.ndarray | bool = False  # per row: the step that produced this state skipped its move

    def head(self, n: int) -> "StepState":
        """The state of the first n rows."""
        return StepState(self.w[:n], self.w_prev[:n], self.m[:n], self.t, np.asarray(self.no_move)[:n])


def transport_step(s: StepState, sample, eta, k, beta, alpha, move):
    """One step of the shared recurrence; returns (new state, x, g).

    Samples g = sample(x) at x = w + k (w - w_prev), sets
    m = beta m + alpha g and moves w by eta along m. Rows with k == 0 query
    w itself (when every row does, the returned x *is* ``s.w``). The two
    momentum weights are passed separately because in float64
    ``1 - (1 - alpha)`` is not always ``alpha``; their domain is the
    caller's to check (once per run for a fixed beta). A negative or
    non-finite eta raises :class:`InvalidRate`, a non-finite sample
    :class:`NonFiniteGradient`, each naming the first such row.
    """
    bad = ~(np.greater_equal(eta, 0.0) & np.isfinite(eta))
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise InvalidRate(f"eta must be finite and >= 0, got {float(np.ravel(eta)[row])}", row)
    at_w = np.equal(k, 0.0)
    if at_w.all():
        x = s.w
    else:
        x = s.w + k * (s.w - s.w_prev)
        if at_w.any():
            x = np.where(at_w, s.w, x)
    g = sample(x)
    check_finite_rows(g)
    m = beta * s.m + alpha * g
    w, moved = move(s.w, m, eta)
    return StepState(w=w, w_prev=s.w, m=m, t=s.t + 1, no_move=~moved), x, g


def plain_move(w: np.ndarray, m: np.ndarray, eta):
    """w - eta m; always moves. Returns (new_w, moved per row)."""
    return w - eta * m, np.ones(w.shape[:-1], dtype=bool)


def normalized_move(w: np.ndarray, m: np.ndarray, eta):
    """Move each row ``eta`` along m / ||m||, or leave it at or below the norm floor."""
    unit, moved = normalize(m, NORM_FLOOR)
    w_new = w - eta * unit
    return (w_new if moved.all() else np.where(moved[..., None], w_new, w)), moved


def blockwise_move(partition: LayerPartition, weight_norm_scaling: bool = False):
    """Normalized move per index range: each range travels its own scaled
    rate (times its weight norm, when enabled) and no-moves on its own; the
    step counts as a no-move when any range does. On a single unscaled
    range this is :func:`normalized_move`."""

    def move(w: np.ndarray, m: np.ndarray, eta):
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
        if not (g_bound > 0.0 and math.isfinite(g_bound)):
            raise InvalidGBound(f"g_bound must be finite and positive, got {g_bound}")
        self.g_bound = g_bound
        self.C = math.sqrt(7.0 / (26.0 * pow_sevenths(g_bound, 6)))
        self.D = self.C ** (-14.0 / 3.0)
        self.G = 3.0 * g_bound**2 + self.D  # G_t, feeding eta_t of the upcoming step
        self.G_prev = self.D  # G_{t-1}, feeding alpha_t
        self.eta_prev = self.C / pow_sevenths(self.D, 2)  # eta of the latest step
        self.delta = math.nan  # accumulator increment of the latest step
        self.events: list[InvariantEvent] = []

    def rates(self, t: int) -> tuple[float, float]:
        """(eta_t, alpha_t) of step t; checks the invariants they must meet."""
        gb2 = self.g_bound * self.g_bound
        eta_t = self.C / pow_sevenths(self.G * self.G * float(t + 1) ** 3, 1)
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

    def accumulate(self, t: int, g: np.ndarray, g_paired: np.ndarray) -> None:
        """Add step t's squared paired-sample difference plus drift to G.

        ``g`` fed the momentum; ``g_paired`` is an independent sample at the
        same query point from a distinct stream (finite: the caller checks).
        """
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


# -- learning-rate schedules ----------------------------------------------------

SCHEDULE_CONSTANT = "constant"
SCHEDULE_WARMUP_POLY = "warmup_poly_decay"


@dataclass(frozen=True)
class Schedule:
    kind: str = SCHEDULE_CONSTANT
    eta0: float | None = None  # optional base-rate override
    warmup_steps: int = 0
    power: int = 1
    weight_norm_scaling: bool = False

    def __post_init__(self):
        if self.kind not in (SCHEDULE_CONSTANT, SCHEDULE_WARMUP_POLY):
            raise InvalidInput(f"unknown schedule kind {self.kind!r}")
        if self.power not in (1, 2):
            raise InvalidInput(f"decay power must be 1 or 2, got {self.power}")
        if self.warmup_steps < 0:
            raise InvalidInput(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.eta0 is not None and self.eta0 <= 0.0:
            raise InvalidInput(f"eta0 must be positive, got {self.eta0}")


def apply_schedule(sch: Schedule, t: int, T: int, base_eta: float, w_layer_norm=None):
    """Learning rate for step t of T.

    Linear ramp over the warmup steps, then polynomial decay measured from
    the warmup boundary so the two phases agree there:

        t <= warmup:  base * t / warmup
        t >  warmup:  base * ((T - t) / (T - warmup))^power

    With weight-norm scaling enabled and a norm supplied, the result is
    multiplied by max(norm, 1e-8) (elementwise for an array of norms).
    """
    if not (1 <= t <= T):
        raise InvalidInput(f"step {t} outside [1, {T}]")
    if sch.kind == SCHEDULE_CONSTANT:
        eta = base_eta
    else:
        if sch.warmup_steps >= T:
            raise InvalidInput(f"warmup_steps {sch.warmup_steps} must be < T {T}")
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
    """Disjoint index intervals covering [0, d), with a rate scale per layer."""

    ranges: tuple[tuple[int, int], ...]
    lr_scale: tuple[float, ...]

    def __post_init__(self):
        if len(self.ranges) != len(self.lr_scale):
            raise PartitionMismatch(
                f"{len(self.ranges)} ranges but {len(self.lr_scale)} scale factors"
            )
        if not self.ranges:
            raise PartitionMismatch("partition must contain at least one range")
        for lo, hi in self.ranges:
            if not (0 <= lo < hi):
                raise PartitionMismatch(f"bad range ({lo}, {hi})")
        for sc in self.lr_scale:
            if sc <= 0.0:
                raise PartitionMismatch(f"lr scale must be positive, got {sc}")

    def validate_cover(self, dim: int) -> None:
        covered = sorted(self.ranges)
        pos = 0
        for lo, hi in covered:
            if lo != pos:
                raise PartitionMismatch(f"ranges leave a gap or overlap at index {pos}")
            pos = hi
        if pos != dim:
            raise PartitionMismatch(f"ranges cover [0, {pos}) but dim is {dim}")


def full_partition(dim: int) -> LayerPartition:
    return LayerPartition(ranges=((0, dim),), lr_scale=(1.0,))
