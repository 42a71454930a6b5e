"""Seeded experiment runner, Monte-Carlo moment checks, and per-step audits.

Everything here is deterministic given the configuration: each seed drives a
counter-based stream (stream 0 for the oracle, stream 1 for the paired
samples of the self-tuning method), so reruns are bit-identical and runs
across seeds or grid points can execute in parallel without changing any
result. The seeds of a run step in lockstep as ``(S, d)`` arrays, their
noise drawn ahead in bounded blocks, and each seed's record is the one it
would get alone.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import RngStream, TrajectoryRecord, gaussian_noise, rownorm
from .errors import (
    Diverged,
    InsufficientGrid,
    InvalidInput,
    InvalidRate,
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
    check_finite_rows,
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

# Oracle noise is drawn ahead in blocks of at most this many bytes per
# stream (one stream per seed, two for the self-tuning method).
NOISE_BLOCK_BYTES = 256 * 1024


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


class _NoiseTape:
    """Oracle randomness of the given streams of every seed, drawn ahead in
    blocks.

    Each block holds the next rows of every stream, at most
    :data:`NOISE_BLOCK_BYTES` per stream, so memory stays bounded whatever
    the horizon. The streams are counter-based, so a block holds exactly
    the numbers one draw per step would have produced.
    """

    def __init__(self, problem: StochasticProblem, seeds, stream_ids, T: int):
        self.problem = problem
        self.streams = [[RngStream(seed, sid) for seed in seeds] for sid in stream_ids]
        self.left = T
        row_bytes = 8 * problem.noise_width
        rows = min(T, max(1, NOISE_BLOCK_BYTES // row_bytes)) if row_bytes else T
        self.block = np.empty((rows, len(stream_ids), len(seeds), problem.noise_width))  # refilled in place
        self.size = self.pos = 0

    def next(self, n: int) -> np.ndarray:
        """The noise of the next step, ``(streams, n, noise_width)``, for the first n seeds."""
        if self.pos == self.size:
            self.size = min(len(self.block), self.left)
            for j, streams in enumerate(self.streams):
                for i, rng in enumerate(streams[:n]):
                    self.block[:self.size, j, i] = self.problem.sample_noise(rng, self.size)
            self.left -= self.size
            self.pos = 0
        self.pos += 1
        return self.block[self.pos - 1, :, :n]


def _make_log(pb, log, i, eta, alpha, w, m, w_next, f_w):
    """Write the log row of step ``i + 1`` for the rows of ``w`` (the
    iterates the step started from) and return F(w_next), the next step's
    f_val, when the run records exact values."""
    n = len(w)
    eta, alpha = _column(eta), _column(alpha)
    log["eta"][i, :n] = eta
    log["alpha"][i, :n] = alpha
    log["m_norm"][i, :n] = rownorm(m)
    if "f_val" not in log:
        return None
    g = pb.exact_grad(w)
    grad_norm = rownorm(g)
    mhat_err = rownorm(m - g)
    f_next = pb.exact_value(w_next)
    log["f_val"][i, :n] = f_w
    log["grad_norm"][i, :n] = grad_norm
    log["mhat_err"][i, :n] = mhat_err
    if "descent_residual" in log:
        rhs = -eta / 3.0 * grad_norm + (8.0 * eta / 3.0) * mhat_err + 0.5 * pb.L * eta * eta
        log["descent_residual"][i, :n] = rhs - (f_next - f_w)
    return f_next


def _column(v):
    """A per-row ``(S, 1)`` coefficient as one value per row; a scalar as is."""
    return v[:, 0] if isinstance(v, np.ndarray) else v


def _run_batch(cfg: RunConfig, seeds: tuple[int, ...]) -> list[TrajectoryRecord]:
    """Run ``seeds`` of ``cfg`` in lockstep as ``(S, d)`` arrays; one record
    per seed, each bit-identical to a run of that seed alone."""
    pb = cfg.problem
    opt = cfg.optimizer_id
    sch = cfg.schedule
    T = cfg.T
    tuners = []
    if opt == "nigt_adaptive":
        if sch.kind != "constant" or sch.eta0 is not None:
            raise InvalidInput("the self-tuning method sets its own step sizes; use a constant schedule")
        tuners = [SelfTuning(cfg.g_bound if cfg.g_bound is not None else pb.g_bound) for _ in seeds]
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

    S = len(seeds)
    # stream 0 feeds the momentum; stream 1 the paired samples of the self-tuning method
    tape = _NoiseTape(pb, seeds, (0, 1) if tuners else (0,), T)
    names = ["eta", "alpha", "m_norm"]
    if cfg.record_exact:
        names += ["f_val", "grad_norm", "mhat_err"] + (["descent_residual"] if move is normalized_move else [])
    log = {name: np.empty((T, S)) for name in names}
    no_move = np.zeros((T, S), dtype=bool)
    w1 = pb.w1
    W = np.tile(w1, (S, 1))
    s = StepState(w=W, w_prev=W, m=np.zeros((S, pb.dim)))
    max_disp = np.zeros(S)
    f_w = pb.exact_value(W) if cfg.record_exact else None
    n = S  # rows still running: the seeds before the first one that failed
    failure = None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            if tuners:
                rates = np.array([tuner.rates(t) for tuner in tuners[:n]])
                eta_t, alpha_t = rates[:, :1], rates[:, 1:]
                # no domain check: a corrupted accumulator that pushes alpha_t
                # above one keeps running and is recorded as an invariant event
                beta_t = 1.0 - alpha_t
                k = (1.0 - alpha_t) / alpha_t
                alpha_log = alpha_t
            else:
                eta_t = apply_schedule(sch, t, T, base_eta, rownorm(s.w)[:, None] if scale_by_norm else None)
                beta_t = 0.0 if t == 1 else beta  # first momentum is the first sample
                alpha_t = 1.0 - beta_t
                k = beta_t / (1.0 - beta_t) if transport else 0.0
                alpha_log = 1.0 - beta
            z = tape.next(n)
            samples = []  # one sample per stream at the query point, from one gradient evaluation

            def sample(x):
                samples[:] = pb.noisy_grad(x, z[:, :len(x)])
                return samples[0]

            while True:
                try:
                    s_next, x, g = transport_step(s, sample, eta_t, k, beta_t, alpha_t, move)
                    if tuners:
                        check_finite_rows(samples[1])
                    break
                except (NonFiniteGradient, InvalidRate) as e:
                    # a seed fails as it would alone; the seeds after it no
                    # longer matter, the ones before it run on
                    n = e.row
                    failure = (Diverged(f"seed {seeds[n]} diverged at step {t}: {e}", t)
                               if isinstance(e, NonFiniteGradient) else InvalidInput(str(e)))
                    if n == 0:
                        raise failure from None
                    s = s.head(n)
                    eta_t, k, beta_t, alpha_t, alpha_log = (
                        v[:n] if isinstance(v, np.ndarray) else v for v in (eta_t, k, beta_t, alpha_t, alpha_log))
            for tuner, g_row, g_paired_row in zip(tuners, g, samples[1] if tuners else ()):
                tuner.accumulate(t, g_row, g_paired_row)
            f_w = _make_log(pb, log, t - 1, eta_t, alpha_log, s.w, s_next.m, s_next.w,
                            None if f_w is None else f_w[:n])
            no_move[t - 1, :n] = s_next.no_move
            disp = rownorm(s_next.w - w1)
            if x is not s.w:
                disp = np.fmax(disp, rownorm(x - w1))
            max_disp[:n] = np.fmax(max_disp[:n], disp)
            s = s_next
    if failure is not None:
        raise failure

    # one contiguous column per seed, so per-seed reductions see the same
    # memory layout as a run of that seed alone
    cols = {name: np.ascontiguousarray(a.T) for name, a in log.items()}
    no_move = np.ascontiguousarray(no_move.T)
    return [
        TrajectoryRecord(
            problem_id=pb.problem_id, optimizer_id=opt, seed=seed,
            no_move=no_move[i], **{name: c[i] for name, c in cols.items()},
            invariant_violations=tuners[i].events if tuners else [],
            max_displacement=float(max_disp[i]), final_w=s.w[i],
        )
        for i, seed in enumerate(seeds)
    ]


def run(cfg: RunConfig, jobs: int = 1) -> list[TrajectoryRecord]:
    """One record per seed, in seed order.

    The seeds run in lockstep (:func:`_run_batch`); with ``jobs`` > 1 they
    are split into that many contiguous chunks, each batched in a worker
    process. A non-finite gradient sample raises :class:`Diverged` naming
    the first seed, in seed order, that diverged, and its step, as running
    the seeds one after another would.
    """
    seeds = cfg.seeds
    jobs = min(jobs, len(seeds))
    if jobs <= 1:
        return _run_batch(cfg, seeds)
    chunks = [seeds[len(seeds) * i // jobs:len(seeds) * (i + 1) // jobs] for i in range(jobs)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
        return [rec for part in ex.map(_run_batch, [cfg] * jobs, chunks) for rec in part]


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
    res = record.descent_residual
    if res is None:
        raise MissingExactOracle(
            f"descent audit needs exact logging on a normalized-update run ({record.optimizer_id} lacks it)"
        )
    eta = record.eta
    rhs = -eta / 3.0 * record.grad_norm + (8.0 * eta / 3.0) * record.mhat_err + 0.5 * problem.L * eta * eta
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
        metric = float(np.mean([r.grad_norm[-1] for r in recs]))
        rows.append(SweepRow(eta0=eta0, final_grad_norm=metric))
    # diverged rates have no norm: they go last, in rate order
    rows.sort(key=lambda r: (r.diverged_at is not None, r.final_grad_norm or 0.0, r.eta0))
    best = rows[0]
    return SweepReport(rows=tuple(rows), best_eta0=None if best.diverged_at is not None else best.eta0)
