"""Seeded experiment runner, Monte-Carlo moment checks, and per-step audits.

Everything here is deterministic given the configuration: each seed drives a
counter-based stream (stream 0 for the oracle, stream 1 for the paired
samples of the self-tuning method), so reruns are bit-identical. The seeds
of a run step in lockstep as ``(S, d)`` arrays, in blocks of steps: each
block draws its noise when it starts and is logged when it ends. A wide
batch splits its seeds between two processes (:func:`run`). Each seed's
record is the one it would get alone.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .core import MAX_IGT_CELLS, MAX_SEEDS, RngStream, TrajectoryRecord, rownorm
from .errors import ConstantRefuted, Diverged, InvalidInput, NigtLabError, NonFiniteGradient
from .optimizers import (
    METHODS,
    LayerPartition,
    Schedule,
    SelfTuning,
    StepState,
    apply_schedule,
    blockwise_move,
    normalized_move,
    paired_sq_diff,
    transport_step,
)
from .problems import CERT_RADIUS, CERT_TOL, StochasticProblem, cert_points, certify_constants
from .tuning import bound_check, tuned

OPTIMIZER_IDS = tuple(METHODS)

# Tolerance for the per-step descent inequality: residuals may only dip this
# far below zero, relative to the magnitude of the objective decrease.
DESCENT_TOL = 1e-9

CONTAINMENT_PAIRS = 300  # pairs of bound_acceptance's containment certification

# Runs step in blocks whose w, x and m arrays, kept by reference until the
# block is logged, fit in this many bytes. Each block's oracle noise, drawn
# when the block starts, is at most 4/3 as large.
BLOCK_BYTES = 256 * 1024

# A run of at least this many seed cells (seeds times dim) steps its later
# seeds in a forked process (see run). On 2 CPUs at T = 1000, in two sets of
# runs, the split took 0.55-0.76 of the serial wall time for 0.91-1.34 times
# its CPU time at 4096 and 8192 cells, and 0.67-0.85 for 1.21-1.64 times at
# 2048, where the per-step Python work, paid in both processes, weighs more.
# A short run loses at most the fork's few milliseconds.
SPLIT_CELLS = 4096


@dataclass(frozen=True, eq=False)
class RunConfig:
    """A run of one method; its checks are the one statement of a run's rates."""

    problem: StochasticProblem
    optimizer_id: str
    T: int
    seeds: tuple[int, ...]
    eta: float | None = None  # base rate, before the schedule: finite and > 0; None for the self-tuning method
    beta: float = 0.9  # in [0, 1) for a momentum method with a base rate (sgd and self-tuning read none)
    schedule: Schedule = field(default_factory=Schedule)
    record_exact: bool = True
    partition: LayerPartition | None = None

    def __post_init__(self):
        if self.optimizer_id not in OPTIMIZER_IDS:
            raise InvalidInput(f"unknown optimizer {self.optimizer_id!r}; known: {OPTIMIZER_IDS}")
        method = METHODS[self.optimizer_id]
        if method.self_tuning and self.eta is not None:
            raise InvalidInput(f"the self-tuning method sets its own step sizes; it takes no eta, got {self.eta}")
        if not method.self_tuning and (self.eta is None or not 0.0 < self.eta < math.inf):
            raise InvalidInput(f"{self.optimizer_id} needs a base rate: eta must be finite and > 0, got {self.eta}")
        if method.momentum and not method.self_tuning and not 0.0 <= self.beta < 1.0:
            raise InvalidInput(f"beta must lie in [0, 1), got {self.beta}")
        if self.partition is not None:
            if method.move is not blockwise_move:
                raise InvalidInput(f"{self.optimizer_id} moves every coordinate as one; it takes no layer partition")
            if self.partition.boundaries[-1] != self.problem.dim:
                raise InvalidInput(f"ranges cover [0, {self.partition.boundaries[-1]}) but dim is {self.problem.dim}")
        if self.T < 1:
            raise InvalidInput(f"T must be >= 1, got {self.T}")
        if self.schedule.kind != "constant" and self.schedule.warmup_steps >= self.T:
            raise InvalidInput(f"warmup_steps {self.schedule.warmup_steps} must be < T {self.T}")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise InvalidInput("seeds must be non-empty")
        if len(set(seeds)) != len(seeds):
            raise InvalidInput("seeds must be distinct")
        if method.self_tuning and self.schedule.kind != "constant":
            raise InvalidInput("the self-tuning method sets its own step sizes; use a constant schedule")
        object.__setattr__(self, "seeds", seeds)


def _make_log(pb, log, i, ws, xs, ms, max_disp, f_w):
    """Log the steps from ``i + 1`` on from their new momenta ``ms``, the
    iterates ``ws`` (each step's start, then the last one's end) and the
    query points ``xs`` that were not the iterate. Returns F(ws[-1]) or None."""
    rows = slice(i, i + len(ms))
    P = _stack(ws[1:] + xs)  # the new iterates, then the query points that were not one
    _fold_distance(max_disp, P, pb.w1)
    W = P[:len(ms)]
    if "f_val" in log:  # exact values, by step: rows of the (T, S) views of the log
        g = pb.exact_grad(_stack(ws[:-1]))
        f_next = pb.exact_value(W)
        log["f_val"].T[rows] = np.concatenate((f_w[None], f_next[:-1]))
        log["grad_norm"].T[rows] = rownorm(g)
        log["mhat_err"].T[rows] = rownorm(_stack(ms) - g)
        if "descent_residual" in log:
            rhs = _descent_bound(log["eta"].T[rows], log["grad_norm"].T[rows], log["mhat_err"].T[rows], pb.L)
            log["descent_residual"].T[rows] = rhs - (f_next - log["f_val"].T[rows])
        return f_next[-1]


def _fold_distance(max_disp, P, w1):
    """Raise each seed's ``max_disp`` to its largest distance from w1 in ``P``."""
    d = rownorm(P - w1)
    np.fmax(max_disp, d[0] if len(d) == 1 else np.fmax.reduce(d, axis=0), out=max_disp)


def _stack(arrays):
    """The arrays as one block along a new first axis; one array as a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _descent_bound(eta, grad_norm, mhat_err, L):
    """Right side of F(w_{t+1}) - F(w_t) <= -eta/3 ||gradF|| + 8 eta/3 ||err|| + L eta^2 / 2."""
    return -eta / 3.0 * grad_norm + (8.0 * eta / 3.0) * mhat_err + 0.5 * L * eta * eta


def run(cfg: RunConfig) -> list[TrajectoryRecord]:
    """One record per seed, in seed order.

    The seeds step in lockstep as ``(S, d)`` arrays, and each record is
    bit-identical to a run of that seed alone. A non-finite gradient
    sample or step size raises :class:`Diverged` naming the first seed, in
    seed order, that diverged, and its step, as running the seeds one
    after another would: the seeds before a failing one are run again on
    their own, and the first of them to diverge later is named instead.

    A wide batch, of at least :data:`SPLIT_CELLS` seed cells, steps its
    later half of the seeds in a forked child process while this one steps
    the earlier half, on Linux with a second CPU and no other thread. The
    records and the error raised are the same.
    """
    return _split(cfg) if _split_pays(cfg) else _lockstep(cfg)


def _split_pays(cfg: RunConfig) -> bool:
    """Whether ``cfg``'s seeds split between two processes: two or more
    seeds, :data:`SPLIT_CELLS` seed cells, a second CPU to step them and
    Linux (Windows has no fork, and on macOS a fork after Accelerate has
    loaded is unsafe), in a process with one thread, as a fork copies only
    the calling thread."""
    S = len(cfg.seeds)
    return (S >= 2 and S * cfg.problem.dim >= SPLIT_CELLS and sys.platform == "linux"
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _split(cfg: RunConfig) -> list[TrajectoryRecord]:
    """The earlier half of the seeds stepped here and the later half in a
    forked child, which pipes back its records or its error. The earlier
    seeds' error wins: the child is then killed. The child is reaped
    before this returns or raises. Where fork fails, every seed steps
    here."""
    h = len(cfg.seeds) // 2
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: every seed steps here
        os.close(r)
        os.close(w)
        return _lockstep(cfg)
    if pid == 0:  # the child: never returns, and never forks (its re-runs stay in process)
        code = 1
        try:
            os.close(r)
            try:
                out = _lockstep(replace(cfg, seeds=cfg.seeds[h:]))
            except BaseException as e:  # sent to the parent, which raises it
                out = e
            with open(w, "wb") as fh:
                pickle.dump(out, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    later = None
    with open(r, "rb") as fh:
        try:
            first = _lockstep(replace(cfg, seeds=cfg.seeds[:h]))
            try:  # the records or the error of this program's own child, read as they arrive
                later = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):  # the child died before it sent them whole
                pass
        except BaseException:
            os.kill(pid, 9)  # SIGKILL (Linux), without importing the signal module
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
        raise NigtLabError(f"the forked process that stepped the last {len(cfg.seeds) - h} seeds {how} "
                           "before it sent its records")
    if isinstance(later, BaseException):
        raise later
    return first + later


def _lockstep(cfg: RunConfig) -> list[TrajectoryRecord]:
    """The records of :func:`run`, every seed stepped in this process."""
    pb = cfg.problem
    seeds = cfg.seeds
    method = METHODS[cfg.optimizer_id]
    sch = cfg.schedule
    T = cfg.T
    tuners = [SelfTuning(pb.g_bound) for _ in seeds] if method.self_tuning else []
    if not method.self_tuning:
        beta = cfg.beta if method.momentum else 0.0  # sgd is memoryless: the momentum is the latest sample
    scale_by_norm = sch.weight_norm_scaling and method.move is not blockwise_move  # that one scales per layer
    move = method.move
    if move is blockwise_move:
        move = blockwise_move(cfg.partition or LayerPartition((0, pb.dim), (1.0,)), sch.weight_norm_scaling)

    S = len(seeds)
    # stream 0 feeds the momentum; stream 1 the paired samples of the self-tuning method
    rngs = [RngStream(seed, sid) for sid in ((0, 1) if tuners else (0,)) for seed in seeds]
    names = ["eta", "alpha", "m_norm"]
    if cfg.record_exact:
        names += ["f_val", "grad_norm", "mhat_err"] + (["descent_residual"] if move is normalized_move else [])
    # one row per seed: each record's columns are rows of these
    log = {name: np.empty((S, T)) for name in names}
    no_move = np.zeros((S, T), dtype=bool)
    W = np.tile(pb.w1, (S, 1))
    s = StepState(w=W, w_prev=W, m=np.zeros((S, pb.dim)))
    max_disp = np.zeros(S)
    f_w = pb.exact_value(W) if cfg.record_exact else None
    block = max(1, BLOCK_BYTES // (3 * 8 * S * pb.dim))  # w, x and m per step
    # a block's noise, (step, stream, seed, noise_width), refilled in place (no
    # sample is a view of it); the streams are counter-based, so it holds
    # exactly what one draw per step would give
    Z = np.empty((min(block, T), len(rngs) // S, S, pb.noise_width))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, T, block):
            n = min(block, T - t0)
            for j, rng in enumerate(rngs):
                Z[:n, j // S, j % S] = pb.sample_noise(rng, n)
            ws, xs, ms = [s.w], [], []
            for t, z in enumerate(Z[:n], t0 + 1):
                samples = []  # one sample per stream at the query point, from one gradient evaluation

                def sample(x):
                    samples[:] = pb.noisy_grad(x, z)
                    return samples[0]

                try:
                    if tuners:
                        rates = np.empty((S, 2))
                        for row, tuner in enumerate(tuners):
                            try:
                                rates[row] = tuner.rates(t)
                            except OverflowError as e:  # the accumulator outgrew the floats
                                raise NonFiniteGradient(str(e), row) from None
                        # one seed's rates are numpy scalars: the step checks them as
                        # scalars and scales by them, not by (1, 1) columns
                        eta_t, alpha_t = rates[0] if S == 1 else (rates[:, :1], rates[:, 1:])
                        # no domain check: a corrupted accumulator that pushes alpha_t
                        # above one keeps running and is recorded as an invariant event
                        beta_t = 1.0 - alpha_t
                        alpha_log = alpha_t
                    else:
                        eta_t = apply_schedule(sch, t, T, cfg.eta, rownorm(s.w)[:, None] if scale_by_norm else None)
                        beta_t = 0.0 if t == 1 else beta  # first momentum is the first sample
                        alpha_t = 1.0 - beta_t
                        alpha_log = 1.0 - beta
                    s_next, x, g = transport_step(s, sample, eta_t, beta_t, alpha_t, move, method.transport)
                    if tuners:
                        for tuner, sq in zip(tuners, paired_sq_diff(g, samples[1]).tolist()):
                            tuner.accumulate(t, sq)
                except NonFiniteGradient as e:
                    if e.row:  # raises the error of an earlier seed that diverges later
                        _lockstep(replace(cfg, seeds=seeds[:e.row]))
                    raise Diverged(f"seed {seeds[e.row]} diverged at step {t}: {e}", t) from None
                log["eta"][:, t - 1:t] = eta_t  # a scalar or an (S, 1) column
                log["alpha"][:, t - 1:t] = alpha_log
                log["m_norm"][:, t - 1] = s_next.m_norm
                no_move[:, t - 1] = s_next.no_move
                ws.append(s_next.w)
                ms.append(s_next.m)
                if x is not s.w:
                    xs.append(x)
                s = s_next
            f_w = _make_log(pb, log, t0, ws, xs, ms, max_disp, f_w)

    return [
        TrajectoryRecord(
            problem_id=pb.problem_id, optimizer_id=cfg.optimizer_id, seed=seed,
            no_move=no_move[i], **{name: a[i] for name, a in log.items()},
            invariant_violations=tuners[i].events if tuners else [],
            max_displacement=float(max_disp[i]), final_w=s.w[i],
        )
        for i, seed in enumerate(seeds)
    ]


# -- gradient-transport moment check -----------------------------------------

# step size of the moment check's moves; on a constant Hessian the moments
# do not depend on it
IGT_CHECK_ETA = 0.01


@dataclass(frozen=True)
class MomentCheckpoint:
    k: int  # total samples consumed
    bias_norm: float
    variance: float
    target_variance: float  # sigma^2 / k
    bias_limit: float
    n_runs: int
    passed: bool


@dataclass(frozen=True)
class MomentReport:
    sigma: float
    n_runs: int
    checkpoints: tuple[MomentCheckpoint, ...]
    passed: bool


def igt_moment_check(problem: StochasticProblem, checkpoints: Sequence[int] = (1, 10, 100), n_runs: int = 10_000, *,
                     seed: int) -> MomentReport:
    """Verify that the transported momentum is unbiased with variance sigma^2/k.

    Runs ``n_runs`` independent trajectories of the transport step indexed
    by sample count: step k weighs the fresh sample by alpha_t = 1/k
    (beta_t = (k-1)/k), queries the point the transport rule gives for these
    weights (k_t = beta_t / alpha_t, which is k-1 up to rounding) and takes
    the normalized move of length :data:`IGT_CHECK_ETA`. The samples come
    from the problem's own oracle. With a constant Hessian and noise that
    does not depend on the point (refused otherwise) the estimator after k
    samples is unbiased for the gradient at the current iterate with total
    variance sigma^2 / k; each checkpoint asserts both moments against the
    declared sigma, so a sigma that misstates the oracle's noise fails it.
    """
    if problem.rho != 0.0:
        raise InvalidInput(
            f"moment identity requires a constant Hessian; {problem.problem_id} declares rho={problem.rho}"
        )
    if problem.sigma_at_w1_only:
        raise InvalidInput(f"moment identity requires noise that does not depend on the point; "
                           f"{problem.problem_id} certifies sigma at the start point only")
    if n_runs < 1000:
        raise InvalidInput(f"n_runs must be >= 1000 for a meaningful check, got {n_runs}")
    if n_runs > MAX_SEEDS:
        raise InvalidInput(f"n_runs = {n_runs} is above the limit of {MAX_SEEDS}")
    ks = sorted(set(int(k) for k in checkpoints))
    if not ks or ks[0] < 1:
        raise InvalidInput(f"checkpoints must be positive sample counts, got {checkpoints}")
    # the state is n_runs rows of dim cells; the samples, n_runs per step,
    # are held to the same count
    for name, size in (("dim", problem.dim), ("max(checkpoints)", ks[-1])):
        if n_runs * size > MAX_IGT_CELLS:
            raise InvalidInput(f"n_runs = {n_runs} times {name} = {size} is {n_runs * size} cells, "
                               f"above the limit of {MAX_IGT_CELLS}")

    sigma = problem.sigma
    rng = RngStream(seed, 0)
    W = np.tile(problem.w1, (n_runs, 1))
    s = StepState(w=W, w_prev=W, m=np.zeros_like(W))
    out = []
    for k in range(1, ks[-1] + 1):
        noise = problem.sample_noise(rng, n_runs)
        s_next, _, _ = transport_step(s, lambda x: problem.noisy_grad(x, noise), IGT_CHECK_ETA,
                                      (k - 1.0) / k, 1.0 / k, normalized_move, True)
        if k in ks:
            E = s_next.m - problem.exact_grad(s.w)
            mean_err = E.mean(axis=0)
            bias = float(np.linalg.norm(mean_err))
            var = float(np.mean(np.sum((E - mean_err) ** 2, axis=1)))
            target = sigma * sigma / k
            if sigma == 0.0:
                # deterministic oracle: all runs coincide, so the variance is
                # exactly zero; the bias is zero up to accumulated transport
                # rounding (~1e-15), hence a numerical-zero threshold
                ok = bias <= 1e-12 and var == 0.0
                limit = 1e-12
            else:
                limit = 4.0 * math.sqrt(target / n_runs)
                ok = bias <= limit and 0.9 * target <= var <= 1.1 * target
            out.append(MomentCheckpoint(k, bias, var, target, limit, n_runs, ok))
        s = s_next

    return MomentReport(sigma=sigma, n_runs=n_runs, checkpoints=tuple(out), passed=all(c.passed for c in out))


# -- per-step descent inequality audit ----------------------------------------


@dataclass(frozen=True)
class DescentAudit:
    """Residuals of F(w_{t+1}) - F(w_t) <= -eta/3 ||gradF|| + 8 eta/3 ||err|| + L eta^2 / 2."""

    residuals: np.ndarray
    lhs: np.ndarray
    violations: tuple[int, ...]
    passed: bool


def descent_check(problem: StochasticProblem, record: TrajectoryRecord) -> DescentAudit:
    """Audit the logged per-step descent residuals of a normalized run.

    Residuals for steps 1..T-1 are recomputed from the logged objective
    chain and must agree with the logged values; the final step's residual
    is validated as logged. A residual may not fall below
    -1e-9 (1 + |objective decrease|).
    """
    res = record.descent_residual
    if res is None:
        raise InvalidInput(
            f"descent audit needs exact logging on a normalized-update run ({record.optimizer_id} lacks it)"
        )
    rhs = _descent_bound(record.eta, record.grad_norm, record.mhat_err, problem.L)
    f = record.f_val
    lhs = rhs - res  # exact for every step, including the last
    # recompute the first T-1 residuals offline from the objective chain
    recomputed = rhs[:-1] - (f[1:] - f[:-1])
    drift = np.abs(recomputed - res[:-1])
    if np.any(drift > 1e-12 * (1.0 + np.abs(res[:-1]))):
        raise InvalidInput("logged residuals disagree with the logged objective chain")
    tol = -DESCENT_TOL * (1.0 + np.abs(lhs))
    bad = tuple(int(i) + 1 for i in np.flatnonzero(res < tol))
    return DescentAudit(residuals=res, lhs=lhs, violations=bad, passed=not bad)


# -- one-sided bound acceptance --------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    T: int
    mean_avg_grad_norm: float
    stderr: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class BoundReport:
    problem_id: str
    optimizer_id: str
    rows: tuple[BoundRow, ...]
    max_displacement: float
    cert_radius: float
    passed: bool


def bound_acceptance(
    problem: StochasticProblem,
    optimizer_id: str,
    T_grid,
    seeds,
    records_out: list | None = None,
) -> BoundReport:
    """Run the tuned optimizer over a horizon grid and compare the measured
    average gradient norm (plus a 3-standard-error seed allowance) against
    the method's guaranteed ceiling. One-sided: means must sit at or below.

    Each horizon's logs must not refute R (:func:`check_declared_R`); after
    all runs, the declared constants are re-certified on a ball covering
    every iterate and query point visited, of radius at least CERT_RADIUS.
    Each horizon is tuned and built, and the certification sized, first.
    """
    seeds = tuple(int(s) for s in seeds)
    T_grid = sorted(int(t) for t in T_grid)
    if not T_grid:
        raise InvalidInput("T_grid must be non-empty")
    if len(set(T_grid)) != len(T_grid):
        raise InvalidInput(f"T_grid must be distinct, got {T_grid}")
    tunings = [tuned(optimizer_id, problem, T) for T in T_grid]  # (params, ceiling) per horizon
    configs = [RunConfig(problem=problem, optimizer_id=optimizer_id, T=T, seeds=seeds, eta=params.eta,
                         beta=params.beta) for T, (params, _) in zip(T_grid, tunings)]
    cert_points(problem, CONTAINMENT_PAIRS)
    rows = []
    max_disp = 0.0
    for cfg, (_, bound) in zip(configs, tunings):
        recs = run(cfg)
        if records_out is not None:
            records_out.extend(recs)
        max_disp = max(max_disp, max(r.max_displacement for r in recs))
        check_declared_R(problem, recs)
        mean, stderr, passed = bound_check([r.avg_grad_norm() for r in recs], bound)
        rows.append(BoundRow(T=cfg.T, mean_avg_grad_norm=mean, stderr=stderr, bound=bound, passed=passed))

    cert_radius = max(CERT_RADIUS, 1.05 * max_disp)
    certify_constants(problem, n_pairs=CONTAINMENT_PAIRS, radius=cert_radius, rng=RngStream(seeds[0], 101))
    return BoundReport(
        problem_id=problem.problem_id,
        optimizer_id=optimizer_id,
        rows=tuple(rows),
        max_displacement=max_disp,
        cert_radius=cert_radius,
        passed=all(r.passed for r in rows),
    )


def check_declared_R(problem: StochasticProblem, records) -> None:
    """Raise :class:`ConstantRefuted` where exact logs refute R, at no oracle call: R
    bounds F(w1) - inf F, so no logged F(w) lies more than R (1 + CERT_TOL) below F(w1)."""
    gap = float(records[0].f_val[0] - min(r.f_val.min() for r in records))
    if gap > problem.R * (1.0 + CERT_TOL):
        raise ConstantRefuted(f"F(w1) - min logged F = {gap:.6g} exceeds declared R {problem.R:.6g} * (1+tol)")


def rate_diagnostic(points) -> float:
    """Least-squares slope of log(mean avg gradient norm) against log T,
    over ``(T, mean)`` pairs.

    Purely informational: the ceilings are upper bounds, so no pass/fail is
    attached. Needs at least three horizons spanning two decades.
    """
    if len(points) < 3:
        raise InvalidInput(f"need >= 3 horizons, got {len(points)}")
    Ts = np.array([p[0] for p in points], dtype=float)
    vals = np.array([p[1] for p in points], dtype=float)
    if Ts.max() / Ts.min() < 100.0:
        raise InvalidInput("horizon grid must span at least two decades")
    if np.any(vals <= 0.0):
        raise InvalidInput("gradient-norm averages must be positive for a log-log fit")
    slope = np.polyfit(np.log(Ts), np.log(vals), 1)[0]
    return float(slope)
