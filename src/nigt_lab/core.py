"""Dense-vector primitives, deterministic random streams, and trajectory records.

Vectors throughout the package are plain 1-D float64 numpy arrays. All
randomness flows through :class:`RngStream`, a counter-based generator keyed
by ``(seed, stream_id)`` so that replays are bit-identical and paired draws
(two independent gradients at one point) come from provably independent
streams of a single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NormalizationSingularity

# Norm floor used by optimizer steps. The update direction m / ||m|| is left
# undefined at m = 0; a hard floor keeps behavior deterministic and guards
# against overflow on subnormal norms.
NORM_FLOOR = 1e-300


def as_vector(x) -> np.ndarray:
    """Coerce ``x`` to a 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    return v


def normalize(v, floor: float = 0.0) -> np.ndarray:
    """Return ``v / ||v||``, or signal that the direction is undefined.

    Raises :class:`NormalizationSingularity` when ``||v|| <= floor``; the
    optimizer steps catch this and treat the step as a no-move.
    """
    if floor < 0.0:
        raise InvalidInput(f"floor must be >= 0, got {floor}")
    v = as_vector(v)
    n = float(np.linalg.norm(v))
    if not (1e-150 < n < 1e150):
        big = float(np.max(np.abs(v)))
        if 0.0 < big < math.inf:
            # v.v left the normal range (subnormal squares lose digits, large
            # ones overflow): rescale by a power of two, which is exact
            e = math.frexp(big)[1]
            u = np.ldexp(v, -e)
            n_u = float(np.linalg.norm(u))
            with np.errstate(over="ignore"):
                n = float(np.ldexp(n_u, e))
            if n <= floor:
                raise NormalizationSingularity(f"norm {n} <= floor {floor}")
            return u / n_u
    if not math.isfinite(n):
        raise InvalidInput("cannot normalize a non-finite vector")
    if n <= floor:
        raise NormalizationSingularity(f"norm {n} <= floor {floor}")
    return v / n


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

    def derive(self, stream_id: int) -> "RngStream":
        """A fresh stream with the same seed and a different stream id."""
        return RngStream(self.seed, stream_id)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class InvariantEvent:
    """One recorded violation of a per-step algorithm invariant."""

    kind: str
    t: int
    value: float
    limit: float


@dataclass(frozen=True)
class StepLog:
    """Per-step log entry. Exact-oracle fields are None when not recorded."""

    t: int
    eta: float
    alpha: float
    m_norm: float
    f_val: float | None = None
    grad_norm: float | None = None
    mhat_err: float | None = None
    descent_residual: float | None = None
    no_move: bool = False


@dataclass
class TrajectoryRecord:
    """Full log of one seeded run: one :class:`StepLog` per step."""

    problem_id: str
    optimizer_id: str
    seed: int
    steps: list[StepLog] = field(default_factory=list)
    no_move_steps: list[int] = field(default_factory=list)
    invariant_violations: list[InvariantEvent] = field(default_factory=list)
    max_displacement: float = 0.0
    final_w: np.ndarray | None = None  # iterate after the last step

    def avg_grad_norm(self) -> float:
        """Time average of the exact gradient norm over the trajectory."""
        vals = [s.grad_norm for s in self.steps]
        if any(v is None for v in vals):
            from .errors import MissingExactOracle

            raise MissingExactOracle("run was recorded without exact gradient norms")
        return float(np.mean(vals))
