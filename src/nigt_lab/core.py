"""Dense-vector primitives, deterministic random streams, and trajectory records.

Vectors are float64 numpy arrays: one vector, or one per row of an
``(S, d)`` batch, with row reductions that round every row exactly as the
vector alone. All randomness flows through :class:`RngStream`, a
counter-based generator keyed by ``(seed, stream_id)`` so that replays are
bit-identical and paired draws (two independent gradients at one point)
come from provably independent streams of a single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

# Norm floor used by optimizer steps. The update direction m / ||m|| is left
# undefined at m = 0; a hard floor keeps behavior deterministic and guards
# against overflow on subnormal norms.
NORM_FLOOR = 1e-300

# Size limits on what an input may ask for, checked before anything is
# allocated or drawn: a count (of seeds, runs or pairs), and the cells (a
# count times a length: steps, dimension or sample count) it sizes. Each
# cell limit is one memory budget over the bytes a cell of its kind costs:
# the growth of the command's tracemalloc peak per cell between two sizes,
# rounded up to whole float64s with room to spare. The tests pin each
# constant (tests/test_cli.py, TestBytesPerCell).
MAX_SEEDS = 10**5
MEMORY_BUDGET = 2 * 10**9  # bytes
# a step of one seed, logged and written as csv, json and svg: 57 B (csv and
# json) to about 165 B (one seed with its charts)
LOG_CELL_BYTES = 176
# a dimension of one seed's state in the runner: 88 B (sgd) to 136 B (the
# self-tuning method), one seed's problem included; a problem's dimension is
# one seed's
STATE_CELL_BYTES = 144
IGT_CELL_BYTES = 112  # a dimension of one run of igt-check: 104 B
# a dimension of one pair or noise draw of certify: 24 B (noise) to 64 B (pairs)
CERT_CELL_BYTES = 72
MAX_LOG_CELLS = MEMORY_BUDGET // LOG_CELL_BYTES
MAX_STATE_CELLS = MEMORY_BUDGET // STATE_CELL_BYTES
MAX_IGT_CELLS = MEMORY_BUDGET // IGT_CELL_BYTES
MAX_CERT_CELLS = MEMORY_BUDGET // CERT_CELL_BYTES


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise InvalidInput(f"expected a 1-D vector, got shape {v.shape}")
    return v


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of matching rows (last axis) of ``a`` and ``b``.

    Computed as a stack of 1 x d by d x 1 products, which numpy hands to the
    same ``dot`` that ``a @ b`` and ``np.linalg.norm`` use on one vector,
    so every row rounds exactly as it would alone (``einsum`` and
    ``norm(axis=-1)`` sum in other orders and differ in the last ulp).
    That holds on one BLAS thread, which importing the package sets unless
    the caller set a count: OpenBLAS splits a row of more than 10,000
    entries across its threads, and the rounding then follows their number.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def rownorm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to ``np.linalg.norm`` of that row."""
    return np.sqrt(rowdot(a, a))


def normalize(v, floor: float = 0.0, n=None):
    """Each row of ``v`` scaled to unit length: returns ``(unit, ok)``.

    ``ok`` is False for rows with ``||v|| <= floor``, whose direction is
    undefined (their ``unit`` row is meaningless); the optimizer moves treat
    them as no-moves. A 1-D ``v`` is one row, with a 0-d ``ok``. ``n`` is
    ``rownorm(v)``, when the caller has it. Raises :class:`InvalidInput`
    when a row is not finite.
    """
    if floor < 0.0:
        raise InvalidInput(f"floor must be >= 0, got {floor}")
    v = np.asarray(v, dtype=np.float64)
    rows = v.reshape(-1, v.shape[-1])
    if n is None:
        with np.errstate(over="ignore", invalid="ignore"):
            n = rownorm(rows)
    else:
        n = n.reshape(-1)
    num, den = rows, n
    lo = n.min(initial=math.inf)  # an empty batch takes the direct path
    if not (lo > 1e-150 and n.max(initial=0.0) < 1e150):  # NaN fails too
        in_range = (n > 1e-150) & (n < 1e150)
        num, den, n = rows.copy(), n.copy(), n.copy()
        for i in np.flatnonzero(~in_range):
            big = float(np.max(np.abs(rows[i])))
            if 0.0 < big < math.inf:
                # v.v left the normal range (subnormal squares lose digits,
                # large ones overflow): rescale by a power of two, which is exact
                e = math.frexp(big)[1]
                num[i] = np.ldexp(rows[i], -e)
                den[i] = n_u = float(rownorm(num[i]))
                with np.errstate(over="ignore"):
                    n[i] = np.ldexp(n_u, e)
            elif not math.isfinite(n[i]):
                raise InvalidInput("cannot normalize a non-finite vector")
        lo = n.min(initial=math.inf)
    ok = n > floor
    unit = num / (den if lo > floor else np.where(ok, den, 1.0))[:, None]
    return unit.reshape(v.shape), ok.reshape(v.shape[:-1])


def gaussian_noise(rng: "RngStream", shape, sigma: float) -> np.ndarray:
    """Isotropic Gaussian noise with total expected squared norm ``sigma**2``
    per vector.

    ``shape`` is the vector dimension d, or a tuple ending in d (``(n, d)``
    for n vectors in one draw). Components are i.i.d. zero-mean with
    per-component standard deviation ``sigma / sqrt(d)``. A zero ``sigma``
    returns zeros without consuming any draws.
    """
    d = shape if isinstance(shape, (int, np.integer)) else shape[-1]
    if d < 1:
        raise InvalidInput(f"dimension must be >= 1, got {d}")
    if sigma < 0.0:
        raise InvalidInput(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return np.zeros(shape)
    return rng.generator.normal(0.0, sigma / math.sqrt(d), size=shape)


def pow_sevenths(x: float, k: int) -> float:
    """``x ** (k/7)`` for positive ``x``, computed as exp(log(x) * k / 7).

    Seventh roots show up throughout the tuned step sizes; going through
    exp/log avoids platform-dependent ``pow`` edge cases near zero.
    """
    if x <= 0.0:
        raise InvalidInput(f"pow_sevenths needs a positive base, got {x}")
    return math.exp(math.log(x) * (k / 7.0))


class RngStream:
    """Counter-based random stream identified by ``(seed, stream_id)``.

    Backed by the Philox generator, so identical ``(seed, stream_id, draw
    index)`` triples produce identical output on every platform, and any two
    distinct ``stream_id`` values give statistically independent streams of
    the same seed.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not (0 <= seed < 2**64):
            raise InvalidInput(f"seed must fit in 64 bits, got {seed}")
        if not (0 <= stream_id < 2**64):
            raise InvalidInput(f"stream_id must fit in 64 bits, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        key = np.array([seed, stream_id], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class InvariantEvent:
    """One recorded violation of a per-step algorithm invariant."""

    kind: str
    t: int
    value: float
    limit: float


@dataclass(eq=False)
class TrajectoryRecord:
    """Log of one seeded run as per-step float64 columns.

    Entry ``i`` of a column belongs to step ``i + 1``. The exact-oracle
    columns are None when the run did not record them, and
    ``descent_residual`` is None for runs whose move is not the plain
    normalized one.
    """

    problem_id: str
    optimizer_id: str
    seed: int
    eta: np.ndarray
    alpha: np.ndarray
    m_norm: np.ndarray
    no_move: np.ndarray  # bool per step
    f_val: np.ndarray | None = None
    grad_norm: np.ndarray | None = None
    mhat_err: np.ndarray | None = None
    descent_residual: np.ndarray | None = None
    invariant_violations: list[InvariantEvent] = field(default_factory=list)
    max_displacement: float = 0.0
    final_w: np.ndarray | None = None  # iterate after the last step

    def avg_grad_norm(self) -> float:
        """Time average of the exact gradient norm over the trajectory."""
        if self.grad_norm is None:
            raise InvalidInput("run was recorded without exact gradient norms")
        return float(np.mean(self.grad_norm))
