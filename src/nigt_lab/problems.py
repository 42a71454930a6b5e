"""Synthetic stochastic problems with analytically certified constants.

Each problem kind is a frozen subclass of :class:`StochasticProblem` holding
only its own parameters. It ships a closed-form population objective F and
gradient, a sampling gradient oracle, and declared constants:

    L        gradient Lipschitz constant,
    rho      Hessian Lipschitz constant,
    sigma    oracle noise level (sqrt of the expected squared error),
    g_bound  almost-sure bound on sampled gradient norms (may be +inf),
    R        upper bound on F at the start point (we declare F(w1) exactly).

Every oracle sample is a deterministic function of the query point and a
row of randomness, so the randomness of many samples can be drawn from a
stream in one block (:meth:`StochasticProblem.sample_noise`) and turned
into samples later (:meth:`StochasticProblem.noisy_grad`); the stream is
counter-based, so a block holds exactly the numbers that one draw per
sample would have produced.

The ``make_*`` constructors validate their arguments and derive the
constants, and every problem refuses a NaN or out-of-domain constant when
it is created or overridden; :data:`PROBLEM_KINDS` maps each kind name to its constructor,
whose parameter names are the experiment-file keys of that kind.
:func:`certify_constants` re-measures L, rho, and sigma empirically and
fails loudly if any declared value is contradicted.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .core import MAX_CERT_CELLS, MAX_SEEDS, RngStream, as_vector, gaussian_noise, rowdot, rownorm
from .errors import CertificationFailure, InvalidInput


@dataclass(frozen=True, eq=False)
class StochasticProblem:
    """Declared constants shared by every kind; the oracles dispatch to the
    kind's ``_value``, ``_grad``, ``_draw`` and ``_sample`` hooks, which
    act on the last axis and so take one point or a stack of them."""

    kind: ClassVar[str]
    # sigma certified at w1 only (true for streaming least squares, whose
    # oracle variance depends on the query point)
    sigma_at_w1_only: ClassVar[bool] = False
    # parameters printed by problem_id, in order
    id_params: ClassVar[tuple[str, ...]]

    dim: int
    w1: np.ndarray
    L: float
    rho: float
    sigma: float
    g_bound: float
    R: float

    def __post_init__(self):
        # one domain rule per declared constant, each false for NaN
        for name, ok, rule in (
            ("L", 0.0 <= self.L < math.inf, "finite and >= 0"),
            ("rho", 0.0 <= self.rho < math.inf, "finite and >= 0"),
            ("sigma", 0.0 <= self.sigma < math.inf, "finite and >= 0"),
            ("g_bound", 0.0 < self.g_bound <= math.inf, "in (0, +inf]"),
            ("R", -math.inf < self.R < math.inf, "finite"),
        ):
            if not ok:
                raise InvalidInput(f"{name} must be {rule}, got {getattr(self, name)}")

    @property
    def problem_id(self) -> str:
        def fmt(v):
            return f"[{';'.join(repr(float(e)) for e in v)}]" if isinstance(v, np.ndarray) else repr(v)

        spec = ",".join(f"{name}={fmt(getattr(self, name))}" for name in self.id_params)
        return f"{self.kind}(d={self.dim},{spec})"

    # -- exact population quantities -------------------------------------

    def exact_value(self, w):
        """F at ``w`` (a float), or at each row of an ``(n, dim)`` array."""
        w = _points(w)
        v = self._value(w)
        return float(v) if w.ndim == 1 else v

    def exact_grad(self, w) -> np.ndarray:
        """Exact gradient at ``w``, or at each row of an ``(n, dim)`` array."""
        return self._grad(_points(w))

    # -- stochastic oracle -------------------------------------------------

    noise_width: ClassVar[int]  # randomness per sample: columns of a sample_noise block

    def sample_noise(self, rng: RngStream, n: int) -> np.ndarray:
        """The randomness of the next ``n`` samples from ``rng``, as an
        ``(n, noise_width)`` block whose row i feeds sample i."""
        return self._draw(rng, n)

    def noisy_grad(self, w, noise: np.ndarray) -> np.ndarray:
        """The samples at ``w`` given their rows of :meth:`sample_noise`.

        The points (the rows of ``w``, or one point) broadcast against the
        leading axes of ``noise``: one point with n noise rows gives n
        samples there, and ``(k, S, width)`` noise at S points gives k
        samples at each, with a single gradient evaluation.
        """
        return self._sample(_points(w), noise)


def _points(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    return w.reshape(1) if w.ndim == 0 else w


@dataclass(frozen=True, eq=False)
class NoisyQuadratic(StochasticProblem):
    """F(w) = (1/2) sum_i eigs_i w_i^2, Gaussian oracle noise; see :func:`make_noisy_quadratic`."""

    kind: ClassVar[str] = "noisy_quadratic"
    id_params: ClassVar[tuple[str, ...]] = ("eigs", "sigma")

    eigs: np.ndarray
    # generative noise amplitude; kept separate from the declared sigma so a
    # mis-declared constant can actually be caught by certification
    noise_scale: float

    @property
    def noise_width(self):
        return self.dim

    def _value(self, w):
        return 0.5 * np.sum(self.eigs * w * w, axis=-1)

    def _grad(self, w):
        return self.eigs * w

    def _draw(self, rng, n):
        return gaussian_noise(rng, (n, self.dim), self.noise_scale)

    def _sample(self, w, z):
        return self._grad(w) + z


@dataclass(frozen=True, eq=False)
class SignNoise(StochasticProblem):
    """Flat F = 1, oracle p w.p. 1-p and p-1 w.p. p; see :func:`make_sign_noise`."""

    kind: ClassVar[str] = "sign_noise"
    id_params: ClassVar[tuple[str, ...]] = ("p",)

    p: float

    noise_width: ClassVar[int] = 1

    def _value(self, w):
        return np.ones(w.shape[:-1])

    def _grad(self, w):
        return np.zeros_like(w)

    def _draw(self, rng, n):
        return rng.generator.random((n, 1))

    def _sample(self, w, u):
        return np.where(u < self.p, self.p - 1.0, self.p)


@dataclass(frozen=True, eq=False)
class TrigBowl(StochasticProblem):
    """F(w) = sum_i a (1 - cos(b w_i)), bounded uniform noise; see :func:`make_trig_bowl`."""

    kind: ClassVar[str] = "trig_bowl"
    id_params: ClassVar[tuple[str, ...]] = ("a", "b", "sigma")

    a: float
    b: float
    noise_scale: float  # as in NoisyQuadratic

    @property
    def noise_width(self):
        return self.dim if self.noise_scale > 0.0 else 0

    def _value(self, w):
        return self.a * np.sum(1.0 - np.cos(self.b * w), axis=-1)

    def _grad(self, w):
        return self.a * self.b * np.sin(self.b * w)

    def _draw(self, rng, n):
        if self.noise_scale == 0.0:
            return np.zeros((n, 0))
        # bounded noise keeps the a.s. gradient bound finite:
        # per-component uniform on [-c, c] with c = sigma*sqrt(3/d)
        # gives E||zeta||^2 = sigma^2 and ||zeta|| <= sqrt(3)*sigma
        c = self.noise_scale * math.sqrt(3.0 / self.dim)
        return rng.generator.uniform(-c, c, size=(n, self.dim))

    def _sample(self, w, z):
        g = self._grad(w)
        if self.noise_scale == 0.0:  # nothing drawn: the exact gradient, once per noise row
            return np.broadcast_to(g, np.broadcast_shapes(g.shape, z.shape[:-1] + (self.dim,)))
        return g + z


@dataclass(frozen=True, eq=False)
class StreamingLeastSquares(StochasticProblem):
    """Streaming linear regression; see :func:`make_streaming_least_squares`."""

    kind: ClassVar[str] = "streaming_least_squares"
    sigma_at_w1_only: ClassVar[bool] = True
    id_params: ClassVar[tuple[str, ...]] = ("cov_eigs", "label_noise")

    cov_eigs: np.ndarray
    label_noise: float
    w_star: np.ndarray

    @property
    def noise_width(self):
        # standard normal features, then the label noise when there is any
        return self.dim + (self.label_noise > 0.0)

    def _value(self, w):
        delta = w - self.w_star
        return 0.5 * (np.sum(self.cov_eigs * delta * delta, axis=-1) + self.label_noise**2)

    def _grad(self, w):
        return self.cov_eigs * (w - self.w_star)

    def _draw(self, rng, n):
        return rng.generator.normal(size=(n, self.noise_width))

    def _sample(self, w, z):
        x = z[..., :self.dim] * np.sqrt(self.cov_eigs)
        y = rowdot(x, self.w_star)
        if self.label_noise > 0.0:
            y = y + self.label_noise * z[..., self.dim]
        return x * (rowdot(x, w) - y)[..., None]


# -- constructors ----------------------------------------------------------


def make_noisy_quadratic(dim: int, eigs: Sequence[float], sigma: float = 0.0,
                         w1: Sequence[float] | None = None) -> NoisyQuadratic:
    """Quadratic bowl F(w) = (1/2) sum_i eigs_i w_i^2 with Gaussian oracle noise."""
    eigs = np.asarray(eigs, dtype=np.float64)
    if eigs.ndim != 1 or eigs.size != dim:
        raise InvalidInput(f"expected {dim} eigenvalues, got shape {eigs.shape}")
    if not np.all((0.0 < eigs) & (eigs < math.inf)):
        raise InvalidInput(f"eigenvalues must be positive and finite, got {eigs.tolist()}")
    w1 = np.ones(dim) if w1 is None else as_vector(w1)
    if w1.size != dim:
        raise InvalidInput(f"w1 has dim {w1.size}, expected {dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite R is refused below
        R = float(0.5 * np.sum(eigs * w1 * w1))
    if not R < math.inf:
        raise InvalidInput(f"R = sum(eigs w1^2) / 2 must be finite, got eigs={eigs.tolist()}, "
                           f"w1={w1.tolist()}")
    return NoisyQuadratic(dim=dim, w1=w1, L=float(np.max(eigs)), rho=0.0, sigma=float(sigma),
                          g_bound=math.inf, R=R, eigs=eigs, noise_scale=float(sigma))


def make_sign_noise(p: float) -> SignNoise:
    """Flat 1-D objective whose oracle returns p w.p. 1-p and p-1 w.p. p.

    The population gradient is identically zero, yet the normalized sample
    has mean 1 - 2p > 0, so memoryless normalized descent drifts away from
    the critical point. F is set to the constant 1 so that R = 1.
    """
    if not (0.0 < p < 0.5):
        raise InvalidInput(f"p must lie in (0, 1/2), got {p}")
    return SignNoise(dim=1, w1=np.zeros(1), L=0.0, rho=0.0, sigma=math.sqrt(p * (1.0 - p)),
                     g_bound=max(p, 1.0 - p), R=1.0, p=float(p))


def make_trig_bowl(dim: int, a: float, b: float, sigma: float = 0.0, w1: Sequence[float] | None = None) -> TrigBowl:
    """Separable non-convex bowl F(w) = sum_i a (1 - cos(b w_i)).

    All second and third derivatives are bounded (L = a b^2, rho = a b^3),
    and the oracle noise is bounded uniform so the almost-sure gradient
    bound g_bound = a b sqrt(d) + sqrt(3) sigma is finite. This is the
    workhorse for step-size rules that need every constant finite.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise InvalidInput(f"a and b must be positive and finite, got a={a}, b={b}")
    if dim < 1:
        raise InvalidInput(f"dimension must be >= 1, got {dim}")
    w1 = np.full(dim, 2.0 / b) if w1 is None else as_vector(w1)
    if w1.size != dim:
        raise InvalidInput(f"w1 has dim {w1.size}, expected {dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite R is refused below
        R = float(a * np.sum(1.0 - np.cos(b * w1)))
    try:  # float ** raises where * rounds to inf
        L, rho = a * b * b, a * b**3
    except OverflowError:
        L = rho = math.inf
    if not (L < math.inf and rho < math.inf and R < math.inf):
        raise InvalidInput(f"a b^2, a b^3 and a sum(1 - cos(b w1)) must be finite, got a={a}, b={b}")
    return TrigBowl(dim=dim, w1=w1, L=L, rho=rho, sigma=float(sigma),
                    g_bound=a * b * math.sqrt(dim) + math.sqrt(3.0) * sigma, R=R, a=float(a), b=float(b),
                    noise_scale=float(sigma))


def make_streaming_least_squares(
    dim: int, cov_eigs: Sequence[float], label_noise: float = 0.0, w1: Sequence[float] | None = None,
    w_star: Sequence[float] | None = None,
) -> StreamingLeastSquares:
    """Linear regression in the streaming oracle model.

    Each sample is (x, y) with x Gaussian (diagonal covariance cov_eigs) and
    y = <x, w_star> + label_noise * N(0,1); the per-sample loss is
    (1/2)(<x, w> - y)^2. The population Hessian is constant, but the oracle
    variance grows with the distance from w_star, so sigma is declared (and
    certified) at w1 only; the class is flagged accordingly.
    """
    cov_eigs = np.asarray(cov_eigs, dtype=np.float64)
    if cov_eigs.ndim != 1 or cov_eigs.size != dim:
        raise InvalidInput(f"expected {dim} covariance eigenvalues, got shape {cov_eigs.shape}")
    if not np.all((0.0 < cov_eigs) & (cov_eigs < math.inf)):
        raise InvalidInput(f"covariance eigenvalues must be positive and finite, got {cov_eigs.tolist()}")
    if not (0.0 <= label_noise < math.inf):
        raise InvalidInput(f"label_noise must be finite and >= 0, got {label_noise}")
    w1 = np.ones(dim) if w1 is None else as_vector(w1)
    w_star = np.zeros(dim) if w_star is None else as_vector(w_star)
    for name, v in (("w1", w1), ("w_star", w_star)):
        if v.size != dim or not np.all(np.isfinite(v)):
            raise InvalidInput(f"{name} must be {dim} finite numbers, got {v.tolist()}")
    try:  # float ** raises where * rounds to inf
        noise2 = label_noise**2
    except OverflowError:
        noise2 = math.inf
    # E||grad sample - grad||^2 at w1 for Gaussian features:
    #   sum_i lam_i^2 delta_i^2 + (sum_i lam_i)(sum_i lam_i delta_i^2)
    #   + label_noise^2 sum_i lam_i
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        delta = w1 - w_star
        sig2 = float(
            np.sum(cov_eigs**2 * delta**2)
            + np.sum(cov_eigs) * np.sum(cov_eigs * delta**2)
            + noise2 * np.sum(cov_eigs)
        )
        R = float(0.5 * (np.sum(cov_eigs * delta * delta) + noise2))
    if not (sig2 < math.inf and R < math.inf):
        raise InvalidInput(f"sigma^2 and R at w1 must be finite, got cov_eigs={cov_eigs.tolist()}, "
                           f"label_noise={label_noise}")
    return StreamingLeastSquares(dim=dim, w1=w1, L=float(np.max(cov_eigs)), rho=0.0,
                                 sigma=math.sqrt(sig2), g_bound=math.inf, R=R,
                                 cov_eigs=cov_eigs, label_noise=float(label_noise), w_star=w_star)


# kind name -> validated constructor; its parameters are the kind's
# experiment-file keys
PROBLEM_KINDS = {
    NoisyQuadratic.kind: make_noisy_quadratic,
    SignNoise.kind: make_sign_noise,
    TrigBowl.kind: make_trig_bowl,
    StreamingLeastSquares.kind: make_streaming_least_squares,
}


# -- finite differences and certification ----------------------------------

# relative tolerance on each declared constant, and the number of oracle
# samples behind sigma_hat (split evenly over its points)
CERT_TOL = 0.05
CERT_RADIUS = 10.0  # the certification ball's default radius, and the floor of bounds' containment ball
CERT_N_SIGMA = 20_000

# certification skips a pair closer than this fraction of the radius: its
# ratios would be rounding noise
MIN_SEP = 1e-6


def fd_step(point_norm):
    """Central-difference step for Hessian-vector products: 1e-5 * (1 + |w|),
    for one norm or an array of them."""
    return 1e-5 * (1.0 + point_norm)


def fd_slack(problem: StochasticProblem, radius: float) -> float:
    """Tolerance absorbing finite-difference truncation in curvature checks.

    10 * h * rho + 1e-6, with h evaluated at the largest norm reachable in
    the sampling ball.
    """
    h = fd_step(float(np.linalg.norm(problem.w1)) + radius)
    return 10.0 * h * problem.rho + 1e-6


def taylor_remainder(problem: StochasticProblem, x, y) -> np.ndarray:
    """Second-order remainder gradF(x) - gradF(y) - H(y)(x - y), at one pair
    of points or at each pair of rows of two ``(n, dim)`` stacks; zero where
    x = y.

    The Hessian-vector product is formed by central differences of the exact
    gradient, so this stays an independent measurement of curvature drift
    even on problems whose Hessian we never write down.
    """
    x = _points(x)
    y = _points(y)
    v = x - y
    sep = rownorm(v)[..., None]
    h = fd_step(rownorm(y))[..., None]
    u = v / np.where(sep == 0.0, 1.0, sep)
    hvp = (problem.exact_grad(y + h * u) - problem.exact_grad(y - h * u)) / (2.0 * h) * sep
    return np.where(sep == 0.0, 0.0, problem.exact_grad(x) - problem.exact_grad(y) - hvp)


def ball_point(rng: RngStream, center: np.ndarray, radius: float) -> np.ndarray:
    """Uniform draw from the ball of given radius around ``center``."""
    d = center.size
    v = rng.generator.normal(size=d)
    n = math.sqrt(v.dot(v))  # np.linalg.norm(v), without its dispatch
    if n == 0.0:
        return center.copy()
    r = radius * float(rng.generator.random()) ** (1.0 / d)
    return center + (r / n) * v


def ball_pairs(rng: RngStream, center: np.ndarray, radius: float, n_pairs: int):
    """Yield ``n_pairs`` triples (x, y, ||x - y||) of ball draws, skipping
    pairs closer than ``MIN_SEP * radius``."""
    min_sep = MIN_SEP * radius
    done = 0
    while done < n_pairs:
        x = ball_point(rng, center, radius)
        y = ball_point(rng, center, radius)
        diff = x - y
        sep = math.sqrt(diff.dot(diff))
        if sep < min_sep:
            continue
        done += 1
        yield x, y, sep


@dataclass(frozen=True)
class CertReport:
    problem_id: str
    L_hat: float
    rho_hat: float
    sigma_hat: float
    L_declared: float
    rho_declared: float
    sigma_declared: float
    tol: float
    fd_slack: float
    radius: float
    n_pairs: int
    n_sigma: int
    passed: bool
    failures: tuple[str, ...]


def cert_points(problem: StochasticProblem, n_pairs: int) -> tuple[int, int]:
    """(points, noise draws per point) of the sigma estimate of
    :func:`certify_constants` with ``n_pairs`` pairs, which it takes only
    within :data:`MAX_SEEDS` pairs and :data:`MAX_CERT_CELLS` cells."""
    if n_pairs < 100:
        raise InvalidInput(f"n_pairs must be >= 100, got {n_pairs}")
    if n_pairs > MAX_SEEDS:
        raise InvalidInput(f"n_pairs = {n_pairs} is above the limit of {MAX_SEEDS}")
    # sigma: RMS oracle error, at w1 only when variance is point-dependent
    n_points = 1 if problem.sigma_at_w1_only else 20
    per_point = CERT_N_SIGMA // n_points
    # the largest arrays are the pairs and one point's noise draws
    cells = max(n_pairs, per_point) * problem.dim
    if cells > MAX_CERT_CELLS:
        raise InvalidInput(f"max(n_pairs = {n_pairs}, {per_point} noise draws) times dim = {problem.dim} "
                           f"is {cells} cells, above the limit of {MAX_CERT_CELLS}")
    return n_points, per_point


def certify_constants(problem: StochasticProblem, n_pairs: int = 400, radius: float = CERT_RADIUS,
                      rng: RngStream | None = None) -> CertReport:
    """Empirically validate the declared constants L, rho, and sigma.

    L_hat is the largest gradient-difference ratio over sampled pairs,
    rho_hat the largest Taylor-remainder ratio (finite-difference curvature),
    and sigma_hat the root mean squared oracle error. The check is one-sided
    for L and rho (declared values must not be exceeded) and two-sided for
    sigma, each within the relative :data:`CERT_TOL`. Raises
    :class:`CertificationFailure` with the report attached if any declared
    constant is contradicted.
    """
    n_points, per_point = cert_points(problem, n_pairs)
    # A pair's separation lies in [MIN_SEP radius, 2 radius]. The floor and
    # its square must be normal floats, and the floor must exceed the spacing
    # of floats at w1, or the draws round to one point and every pair is
    # skipped; the widest separation must square to a finite float.
    lo = max(math.sqrt(sys.float_info.min), math.ulp(float(np.max(np.abs(problem.w1))))) / MIN_SEP
    hi = math.sqrt(sys.float_info.max) / 2.0
    if not lo <= radius <= hi:
        raise InvalidInput(f"radius must lie in [{lo:.6g}, {hi:.6g}], got {radius}")
    if rng is None:
        rng = RngStream(0, 17)
    slack = fd_slack(problem, radius)

    X, Y, sep = (np.array(c) for c in zip(*ball_pairs(rng, problem.w1, radius, n_pairs)))
    # squared one at a time: Python's pow rounds a few squares unlike sep * sep
    sep2 = np.array([s**2 for s in sep.tolist()])
    # gradients that overflow give inf or NaN estimates, which the checks
    # below refuse; fmax skips a NaN ratio, as a running max() over the pairs did
    with np.errstate(over="ignore", invalid="ignore"):
        L_hat = float(np.fmax.reduce(rownorm(problem.exact_grad(X) - problem.exact_grad(Y)) / sep, initial=0.0))
        rho_hat = float(np.fmax.reduce(rownorm(taylor_remainder(problem, X, Y)) / sep2, initial=0.0))

        points = [problem.w1] + [ball_point(rng, problem.w1, radius) for _ in range(n_points - 1)]
        sq_err = []
        for pt in points:
            e = problem.noisy_grad(pt, problem.sample_noise(rng, per_point)) - problem.exact_grad(pt)
            sq_err.append(rowdot(e, e))
    # a running sum in draw order, as one sample at a time would add them
    sq_err_sum = float(np.add.accumulate(np.concatenate(sq_err))[-1])
    n_draws = per_point * len(points)
    sigma_hat = math.sqrt(sq_err_sum / n_draws)

    failures = []
    if L_hat > problem.L * (1.0 + CERT_TOL):
        failures.append(f"L_hat {L_hat:.6g} exceeds declared L {problem.L:.6g} * (1+tol)")
    if rho_hat > problem.rho * (1.0 + CERT_TOL) + slack:
        failures.append(f"rho_hat {rho_hat:.6g} exceeds declared rho {problem.rho:.6g} * (1+tol) + fd_slack")
    lo, hi = problem.sigma * (1.0 - CERT_TOL), problem.sigma * (1.0 + CERT_TOL)
    if not (lo <= sigma_hat <= hi):
        failures.append(f"sigma_hat {sigma_hat:.6g} outside [{lo:.6g}, {hi:.6g}]")

    report = CertReport(
        problem_id=problem.problem_id,
        L_hat=L_hat,
        rho_hat=rho_hat,
        sigma_hat=sigma_hat,
        L_declared=problem.L,
        rho_declared=problem.rho,
        sigma_declared=problem.sigma,
        tol=CERT_TOL,
        fd_slack=slack,
        radius=radius,
        n_pairs=n_pairs,
        n_sigma=n_draws,
        passed=not failures,
        failures=tuple(failures),
    )
    if failures:
        raise CertificationFailure("; ".join(failures), report=report)
    return report


def with_constants(problem: StochasticProblem, **overrides) -> StochasticProblem:
    """Copy of ``problem`` with some declared constants replaced.

    Used to assert externally supplied constants (which certification then
    validates) and by fault-injection fixtures.
    """
    allowed = {"L", "rho", "sigma", "g_bound", "R"}
    bad = set(overrides) - allowed
    if bad:
        raise InvalidInput(f"cannot override {sorted(bad)}; allowed: {sorted(allowed)}")
    return replace(problem, **overrides)
