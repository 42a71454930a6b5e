"""Seeded experiment runner, Monte-Carlo moment checks, and per-step audits.

Everything here is deterministic given the configuration: each seed drives a
counter-based stream (stream 0 for the oracle, stream 1 for the paired
samples of the self-tuning method), so reruns are bit-identical and runs
across seeds or grid points can execute in parallel without changing any
result.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import RngStream, StepLog, TrajectoryRecord, gaussian_noise
from .errors import (
    Diverged,
    InsufficientGrid,
    InvalidInput,
    MissingExactOracle,
    NonConstantHessian,
    NonFiniteGradient,
)
from .optimizers import (
    LayerPartition,
    Schedule,
    SelfTuning,
    StepState,
    apply_schedule,
    blockwise_move,
    full_partition,
    normalized_move,
    plain_move,
    transport_step,
)
from .problems import (
    StochasticProblem,
    ball_pairs,
    certify_constants,
    fd_slack,
    taylor_remainder,
)
from .tuning import TunedParams, nigt_bound, nigt_params, nsgdm_bound, nsgdm_params

OPTIMIZER_IDS = ("sgd", "heavy_ball", "nsgdm", "nigt", "nigt_adaptive", "nigt_layerwise")

# Tolerance for the per-step descent inequality: residuals may only dip this
# far below zero, relative to the magnitude of the objective decrease.
DESCENT_TOL = 1e-9

DEFAULT_ETA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_CERT_RADIUS = 10.0


@dataclass(frozen=True, eq=False)
class RunConfig:
    problem: StochasticProblem
    optimizer_id: str
    T: int
    seeds: tuple[int, ...]
    eta: float | None = None
    beta: float = 0.9
    params: TunedParams | None = None
    schedule: Schedule = field(default_factory=Schedule)
    record_exact: bool = True
    g_bound: float | None = None  # override for the self-tuning method
    partition: LayerPartition | None = None

    def __post_init__(self):
        if self.optimizer_id not in OPTIMIZER_IDS:
            raise InvalidInput(f"unknown optimizer {self.optimizer_id!r}; known: {OPTIMIZER_IDS}")
        if self.T < 1:
            raise InvalidInput(f"T must be >= 1, got {self.T}")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise InvalidInput("seeds must be non-empty")
        if len(set(seeds)) != len(seeds):
            raise InvalidInput("seeds must be distinct")
        object.__setattr__(self, "seeds", seeds)


def _resolve_eta_beta(cfg: RunConfig) -> tuple[float, float]:
    if cfg.schedule.eta0 is not None:
        base_eta = cfg.schedule.eta0
    elif cfg.params is not None:
        base_eta = cfg.params.eta
    elif cfg.eta is not None:
        base_eta = cfg.eta
    else:
        raise InvalidInput(f"optimizer {cfg.optimizer_id!r} needs eta (manual, tuned, or schedule.eta0)")
    if cfg.optimizer_id == "sgd":
        beta = 0.0  # memoryless: the momentum is the latest sample
    else:
        beta = cfg.params.beta if cfg.params is not None else cfg.beta
    if not (0.0 <= beta < 1.0):
        raise InvalidInput(f"beta must lie in [0, 1), got {beta}")
    return base_eta, beta


def _make_log(
    pb: StochasticProblem,
    record_exact: bool,
    t: int,
    eta_t: float,
    alpha: float,
    w_before: np.ndarray,
    m: np.ndarray,
    w_after: np.ndarray,
    no_move: bool,
    normalized: bool,
) -> StepLog:
    m_norm = float(np.linalg.norm(m))
    if not record_exact:
        return StepLog(t=t, eta=eta_t, alpha=alpha, m_norm=m_norm, no_move=no_move)
    f_val = pb.exact_value(w_before)
    g_exact = pb.exact_grad(w_before)
    grad_norm = float(np.linalg.norm(g_exact))
    mhat_err = float(np.linalg.norm(m - g_exact))
    residual = None
    if normalized:
        lhs = pb.exact_value(w_after) - f_val
        rhs = -eta_t / 3.0 * grad_norm + (8.0 * eta_t / 3.0) * mhat_err + 0.5 * pb.L * eta_t * eta_t
        residual = rhs - lhs
    return StepLog(
        t=t,
        eta=eta_t,
        alpha=alpha,
        m_norm=m_norm,
        f_val=f_val,
        grad_norm=grad_norm,
        mhat_err=mhat_err,
        descent_residual=residual,
        no_move=no_move,
    )


def run_single(cfg: RunConfig, seed: int) -> TrajectoryRecord:
    """Execute one seeded trajectory of ``cfg.T`` steps.

    Every optimizer is :func:`transport_step` with its own per-step
    ``(eta_t, k_t, beta_t, alpha_t)`` and move (table in the optimizers
    module); the self-tuning method adds a paired sample per step from
    stream 1 of the seed. A non-finite gradient sample raises
    :class:`Diverged` naming the step.
    """
    pb = cfg.problem
    opt = cfg.optimizer_id
    sch = cfg.schedule
    T = cfg.T
    rng = RngStream(seed, 0)
    tuner = None
    if opt == "nigt_adaptive":
        if sch.kind != "constant" or sch.eta0 is not None:
            raise InvalidInput("the self-tuning method sets its own step sizes; use a constant schedule")
        tuner = SelfTuning(cfg.g_bound if cfg.g_bound is not None else pb.g_bound)
        rng_paired = RngStream(seed, 1)
    else:
        base_eta, beta = _resolve_eta_beta(cfg)
    transport = opt in ("nigt", "nigt_layerwise")
    # per-layer norm scaling happens inside the blockwise move
    scale_by_norm = sch.weight_norm_scaling and opt != "nigt_layerwise"
    if opt in ("sgd", "heavy_ball"):
        move = plain_move
    elif opt == "nigt_layerwise":
        partition = cfg.partition if cfg.partition is not None else full_partition(pb.dim)
        partition.validate_cover(pb.dim)
        move = blockwise_move(partition, sch.weight_norm_scaling)
    else:
        move = normalized_move

    rec = TrajectoryRecord(problem_id=pb.problem_id, optimizer_id=opt, seed=seed)
    w1 = pb.w1
    s = StepState(w=w1, w_prev=w1, m=np.zeros(pb.dim))
    max_disp = 0.0
    for t in range(1, T + 1):
        if tuner is None:
            wnorm = float(np.linalg.norm(s.w)) if scale_by_norm else None
            eta_t = apply_schedule(sch, t, T, base_eta, wnorm)
            beta_t = 0.0 if t == 1 else beta  # first momentum is the first sample
            alpha_t = 1.0 - beta_t
            k = beta_t / (1.0 - beta_t) if transport else 0.0
            alpha_log = 1.0 - beta
        else:
            eta_t, alpha_t = tuner.rates(t)
            # no domain check: a corrupted accumulator that pushes alpha_t
            # above one keeps running and is recorded as an invariant event
            beta_t = 1.0 - alpha_t
            k = (1.0 - alpha_t) / alpha_t
            alpha_log = alpha_t
        w_before = s.w
        try:
            s, x, g = transport_step(s, pb, rng, eta_t, k, beta_t, alpha_t, move)
            if tuner is not None:
                tuner.accumulate(t, g, pb.sample_grad(x, rng_paired))
        except NonFiniteGradient as e:
            raise Diverged(f"seed {seed} diverged at step {t}: {e}", t) from None
        max_disp = max(max_disp, float(np.linalg.norm(s.w - w1)))
        if x is not w_before:
            max_disp = max(max_disp, float(np.linalg.norm(x - w1)))
        if s.no_move:
            rec.no_move_steps.append(t)
        rec.steps.append(
            _make_log(pb, cfg.record_exact, t, eta_t, alpha_log,
                      w_before, s.m, s.w, s.no_move, normalized=move is normalized_move)
        )
    if tuner is not None:
        rec.invariant_violations = tuner.events
    rec.max_displacement = max_disp
    rec.final_w = s.w
    return rec


def _run_single_args(args) -> TrajectoryRecord:
    cfg, seed = args
    return run_single(cfg, seed)


def run(cfg: RunConfig, jobs: int = 1) -> list[TrajectoryRecord]:
    """One record per seed, in seed order regardless of completion order."""
    if jobs <= 1 or len(cfg.seeds) == 1:
        return [run_single(cfg, s) for s in cfg.seeds]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(_run_single_args, [(cfg, s) for s in cfg.seeds]))


# -- gradient-transport moment check -----------------------------------------


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


def igt_moment_check(
    problem: StochasticProblem,
    checkpoints,
    n_runs: int,
    seed: int,
    eta: float = 0.01,
) -> MomentReport:
    """Verify that the transported momentum is unbiased with variance sigma^2/k.

    Runs ``n_runs`` independent trajectories of the sample-count-indexed
    recursion (m after k samples uses weight 1/k on the fresh sample and is
    anchored at the extrapolated point with multiplier k-1), driven by the
    normalized update. The oracle is the problem's exact gradient field plus
    isotropic Gaussian noise of total scale ``problem.sigma``. On a
    constant-Hessian problem the estimator after k samples is exactly
    unbiased for the gradient at the current iterate with total variance
    sigma^2 / k; each checkpoint asserts both moments.
    """
    if problem.rho != 0.0:
        raise NonConstantHessian(
            f"moment identity requires a constant Hessian; {problem.problem_id} declares rho={problem.rho}"
        )
    if n_runs < 1000:
        raise InvalidInput(f"n_runs must be >= 1000 for a meaningful check, got {n_runs}")
    ks = sorted(set(int(k) for k in checkpoints))
    if not ks or ks[0] < 1:
        raise InvalidInput(f"checkpoints must be positive sample counts, got {checkpoints}")

    sigma = problem.sigma
    rng = RngStream(seed, 0)
    W = np.tile(problem.w1, (n_runs, 1))
    W_prev = W.copy()
    M = np.zeros_like(W)
    out = []
    for k in range(1, ks[-1] + 1):
        if k == 1:
            X = W
            M = problem.exact_grad(X) + gaussian_noise(rng, (n_runs, problem.dim), sigma)
        else:
            mult = float(k - 1)
            X = W + mult * (W - W_prev)
            G = problem.exact_grad(X) + gaussian_noise(rng, (n_runs, problem.dim), sigma)
            M = (mult / k) * M + (1.0 / k) * G

        if k in ks:
            E = M - problem.exact_grad(W)
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

        # normalized move to the next iterate
        norms = np.linalg.norm(M, axis=1, keepdims=True)
        safe = norms > 1e-300
        step = np.where(safe, eta * M / np.where(safe, norms, 1.0), 0.0)
        W_prev = W
        W = W - step

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
    steps = record.steps
    if not steps:
        raise MissingExactOracle("record contains no steps")
    for s in steps:
        if s.f_val is None or s.grad_norm is None or s.mhat_err is None or s.descent_residual is None:
            raise MissingExactOracle(
                "descent audit needs exact logging on a normalized-update run "
                f"(step {s.t} lacks it in {record.optimizer_id})"
            )
    res = np.array([s.descent_residual for s in steps])
    rhs = np.array(
        [-s.eta / 3.0 * s.grad_norm + (8.0 * s.eta / 3.0) * s.mhat_err + 0.5 * problem.L * s.eta * s.eta for s in steps]
    )
    f = np.array([s.f_val for s in steps])
    lhs = rhs - res  # exact for every step, including the last
    # recompute the first T-1 residuals offline from the objective chain
    recomputed = rhs[:-1] - (f[1:] - f[:-1])
    drift = np.abs(recomputed - res[:-1])
    if np.any(drift > 1e-12 * (1.0 + np.abs(res[:-1]))):
        raise InvalidInput("logged residuals disagree with the logged objective chain")
    tol = -DESCENT_TOL * (1.0 + np.abs(lhs))
    bad = tuple(int(steps[i].t) for i in np.nonzero(res < tol)[0])
    return DescentAudit(residuals=res, lhs=lhs, violations=bad, passed=not bad)


# -- curvature remainder check -------------------------------------------------


def taylor_remainder_check(
    problem: StochasticProblem,
    n_pairs: int = 200,
    radius: float = DEFAULT_CERT_RADIUS,
    rng: RngStream | None = None,
) -> float:
    """Largest ||remainder|| / ||a-b||^2 over sampled pairs.

    The remainder is the exact gradient difference minus a finite-difference
    Hessian-vector product, so the ratio is bounded by the declared rho up
    to finite-difference slack; compare against
    ``problem.rho * 1.05 + fd_slack(problem, radius)``.
    """
    if rng is None:
        rng = RngStream(0, 23)
    worst = 0.0
    for x, y, sep in ball_pairs(rng, problem.w1, radius, n_pairs):
        worst = max(worst, float(np.linalg.norm(taylor_remainder(problem, x, y))) / sep**2)
    return worst


def taylor_threshold(problem: StochasticProblem, radius: float = DEFAULT_CERT_RADIUS) -> float:
    return problem.rho * 1.05 + fd_slack(problem, radius)


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
    jobs: int = 1,
    records_out: list | None = None,
) -> BoundReport:
    """Run the tuned optimizer over a horizon grid and compare the measured
    average gradient norm (plus a 3-standard-error seed allowance) against
    the method's guaranteed ceiling. One-sided: means must sit at or below.

    Also asserts trajectory containment: after all runs, the declared
    constants are re-certified on a ball wide enough to cover every iterate
    and query point actually visited.
    """
    if optimizer_id not in ("nsgdm", "nigt"):
        raise InvalidInput(f"bound acceptance covers nsgdm and nigt, got {optimizer_id!r}")
    if problem.sigma_at_w1_only:
        raise InvalidInput(
            "oracle variance is only certified at the start point for "
            f"{problem.problem_id}; bound acceptance excluded"
        )
    seeds = tuple(int(s) for s in seeds)
    rows = []
    max_disp = 0.0
    for T in sorted(int(t) for t in T_grid):
        if optimizer_id == "nsgdm":
            params = nsgdm_params(problem.R, problem.L, problem.sigma, T)
            bound = nsgdm_bound(problem.R, problem.L, problem.sigma, T)
        else:
            params = nigt_params(problem.R, problem.L, problem.rho, problem.sigma, T)
            bound = nigt_bound(problem.R, problem.L, problem.rho, problem.sigma, T)
        cfg = RunConfig(problem=problem, optimizer_id=optimizer_id, T=T, seeds=seeds, params=params)
        recs = run(cfg, jobs=jobs)
        if records_out is not None:
            records_out.extend(recs)
        avgs = np.array([r.avg_grad_norm() for r in recs])
        max_disp = max(max_disp, max(r.max_displacement for r in recs))
        mean = float(avgs.mean())
        stderr = float(avgs.std(ddof=1) / math.sqrt(len(avgs))) if len(avgs) > 1 else 0.0
        rows.append(BoundRow(T=T, mean_avg_grad_norm=mean, stderr=stderr, bound=bound,
                             passed=mean + 3.0 * stderr <= bound))

    cert_radius = max(DEFAULT_CERT_RADIUS, 1.05 * max_disp)
    certify_constants(problem, n_pairs=300, radius=cert_radius, rng=RngStream(seeds[0], 101))
    return BoundReport(
        problem_id=problem.problem_id,
        optimizer_id=optimizer_id,
        rows=tuple(rows),
        max_displacement=max_disp,
        cert_radius=cert_radius,
        passed=all(r.passed for r in rows),
    )


def rate_diagnostic(rows) -> float:
    """Least-squares slope of log(mean avg gradient norm) against log T.

    Purely informational: the ceilings are upper bounds, so no pass/fail is
    attached. Needs at least three horizons spanning two decades.
    """
    if isinstance(rows, BoundReport):
        rows = rows.rows
    pts = [(r.T, r.mean_avg_grad_norm) if isinstance(r, BoundRow) else (r[0], r[1]) for r in rows]
    if len(pts) < 3:
        raise InsufficientGrid(f"need >= 3 horizons, got {len(pts)}")
    Ts = np.array([p[0] for p in pts], dtype=float)
    vals = np.array([p[1] for p in pts], dtype=float)
    if Ts.max() / Ts.min() < 100.0:
        raise InsufficientGrid("horizon grid must span at least two decades")
    if np.any(vals <= 0.0):
        raise InsufficientGrid("gradient-norm averages must be positive for a log-log fit")
    slope = np.polyfit(np.log(Ts), np.log(vals), 1)[0]
    return float(slope)


# -- base-rate grid sweep ----------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    eta0: float
    final_grad_norm: float | None  # ||gradF(w_T)||, averaged over seeds
    diverged_at: int | None = None  # step of the first diverging seed


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]  # ranked, best first
    best_eta0: float | None  # None when every rate diverged


def grid_sweep(base: RunConfig, eta0_grid=None, jobs: int = 1) -> SweepReport:
    """Run each base rate and rank by the final exact gradient norm,
    averaged over seeds (an over-large rate keeps oscillating and ends far
    from critical). Ties break toward the smaller rate. A rate at which a
    seed diverges is recorded with the step where the first such seed (in
    seed order) did, and ranked last. Seeds are shared across grid points
    so comparisons see identical noise realizations.
    """
    if base.optimizer_id == "nigt_adaptive":
        raise InvalidInput("the self-tuning method has no base rate to sweep")
    if not base.record_exact:
        raise InvalidInput("grid sweep ranks by exact gradient norms; set record_exact")
    grid = tuple(float(e) for e in (DEFAULT_ETA_GRID if eta0_grid is None else eta0_grid))
    if not grid:
        raise InvalidInput("eta0 grid must be non-empty")
    rows = []
    for eta0 in grid:
        cfg = replace(base, params=None, eta=None, schedule=replace(base.schedule, eta0=eta0))
        try:
            recs = run(cfg, jobs=jobs)
        except Diverged as e:
            rows.append(SweepRow(eta0=eta0, final_grad_norm=None, diverged_at=e.step))
            continue
        metric = float(np.mean([r.steps[-1].grad_norm for r in recs]))
        rows.append(SweepRow(eta0=eta0, final_grad_norm=metric))
    # diverged rates have no norm: they go last, in rate order
    rows.sort(key=lambda r: (r.diverged_at is not None, r.final_grad_norm or 0.0, r.eta0))
    best = rows[0]
    return SweepReport(rows=tuple(rows), best_eta0=None if best.diverged_at is not None else best.eta0)
