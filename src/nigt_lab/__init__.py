"""Normalized stochastic optimization with momentum, gradient transport, and
self-tuning step sizes, plus synthetic problems with certified constants and
a seeded harness that verifies every guarantee at desk scale."""

import os

# One BLAS thread unless the caller set a count, before numpy first loads:
# OpenBLAS otherwise starts a worker per CPU that spins while idle, and from
# 10,001 entries on it splits a row dot product across its threads, so the
# rounding, and every output byte, would depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    NORM_FLOOR,
    InvariantEvent,
    RngStream,
    TrajectoryRecord,
    gaussian_noise,
    normalize,
    pow_sevenths,
    rowdot,
    rownorm,
)
from .harness import (
    OPTIMIZER_IDS,
    BoundReport,
    BoundRow,
    DescentAudit,
    MomentCheckpoint,
    MomentReport,
    RunConfig,
    SweepReport,
    SweepRow,
    bound_acceptance,
    descent_check,
    grid_sweep,
    igt_moment_check,
    rate_diagnostic,
    run,
)
from .optimizers import (
    LayerPartition,
    Schedule,
    SelfTuning,
    StepState,
    apply_schedule,
    blockwise_move,
    normalized_move,
    plain_move,
    transport_step,
)
from .problems import (
    PROBLEM_KINDS,
    CertReport,
    NoisyQuadratic,
    SignNoise,
    StochasticProblem,
    StreamingLeastSquares,
    TrigBowl,
    certify_constants,
    fd_slack,
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
    taylor_remainder,
    with_constants,
)
from .tuning import (
    TunedParams,
    nigt_bound,
    nigt_params,
    nsgdm_bound,
    nsgdm_params,
)

__version__ = "0.1.0"
