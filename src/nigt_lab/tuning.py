"""Closed-form hyperparameter rules and the matching average-gradient bounds.

For each normalized method there is a certified tuning of the momentum
weight alpha (beta = 1 - alpha) and step size eta in terms of the problem
constants and the horizon T, together with an explicit ceiling on the
T-step average of E||gradF(w_t)||. The ceilings are one-sided guarantees:
measured averages must fall at or below them.

Divisions by sigma = 0 or rho = 0 are handled by symbolic clamping: the
affected branch is treated as +inf inside the min, which matches the limits
of the formulas exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import pow_sevenths
from .errors import InvalidInput

# theorem -> the one method it tunes (the self-tuning method takes no
# theorem: it tunes itself as it runs)
THEOREM_METHODS = {"1": "nsgdm", "2": "nigt"}


@dataclass(frozen=True)
class TunedParams:
    alpha: float  # momentum weight on the fresh sample, in (0, 1]
    eta: float

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha


def _validate(R: float, L: float, T: int, sigma: float, rho: float | None = None) -> None:
    if not (R > 0.0 and math.isfinite(R)):
        raise InvalidInput(f"R must be finite and positive, got {R}")
    if not (L > 0.0 and math.isfinite(L)):
        raise InvalidInput(f"L must be finite and positive, got {L}")
    if not (isinstance(T, (int,)) and T >= 1):
        raise InvalidInput(f"T must be an integer >= 1, got {T}")
    if sigma < 0.0:
        raise InvalidInput(f"sigma must be >= 0, got {sigma}")
    if rho is not None and rho < 0.0:
        raise InvalidInput(f"rho must be >= 0, got {rho}")


def nsgdm_params(R: float, L: float, sigma: float, T: int) -> TunedParams:
    """alpha = min(sqrt(RL) / (sigma sqrt(T)), 1), eta = sqrt(R alpha / (T L))."""
    _validate(R, L, T, sigma)
    if sigma == 0.0:
        alpha = 1.0
    else:
        alpha = min(math.sqrt(R * L) / (sigma * math.sqrt(T)), 1.0)
    eta = math.sqrt(R * alpha) / math.sqrt(T * L)
    return TunedParams(alpha=alpha, eta=eta)


def nsgdm_bound(R: float, L: float, sigma: float, T: int) -> float:
    """Average-gradient ceiling for the tuned momentum method:

    29 sqrt(RL)/sqrt(T) + 21 sqrt(sigma) (RL)^{1/4} / T^{1/4} + 8 sigma / sqrt(RLT)
    """
    _validate(R, L, T, sigma)
    val = 29.0 * math.sqrt(R * L) / math.sqrt(T)
    if sigma > 0.0:
        val += 21.0 * math.sqrt(sigma) * (R * L) ** 0.25 / T**0.25
        val += 8.0 * sigma / math.sqrt(R * L * T)
    return val


def nigt_params(R: float, L: float, rho: float, sigma: float, T: int) -> TunedParams:
    """Tuning for the gradient-transport variant:

        eta   = min(R^{5/7} / (T^{5/7} rho^{1/7} sigma^{4/7}), sqrt(R/(TL)))
        alpha = min(R^{4/7} rho^{2/7} / (T^{4/7} sigma^{6/7}), 1)

    With sigma = 0 both noise branches clamp (alpha = 1, eta = sqrt(R/(TL))).
    With sigma > 0 the rule needs rho > 0: the alpha formula degenerates to 0
    otherwise, which would freeze the momentum.
    """
    _validate(R, L, T, sigma, rho)
    eta_smooth = math.sqrt(R / (T * L))
    if sigma == 0.0:
        return TunedParams(alpha=1.0, eta=eta_smooth)
    if rho == 0.0:
        raise InvalidInput(
            "this tuning rule needs rho > 0 when sigma > 0 (alpha would degenerate to 0); "
            "use the plain momentum tuning on constant-curvature problems"
        )
    eta_noise = pow_sevenths(R, 5) / (pow_sevenths(T, 5) * pow_sevenths(rho, 1) * pow_sevenths(sigma, 4))
    alpha = min(pow_sevenths(R, 4) * pow_sevenths(rho, 2) / (pow_sevenths(T, 4) * pow_sevenths(sigma, 6)), 1.0)
    return TunedParams(alpha=alpha, eta=min(eta_noise, eta_smooth))


def nigt_bound(R: float, L: float, rho: float, sigma: float, T: int) -> float:
    """Average-gradient ceiling for the tuned gradient-transport variant:

    5 sqrt(RL)/sqrt(T) + 8 sigma^{13/7} / (R^{4/7} rho^{2/7} T^{3/7})
                       + 27 R^{2/7} rho^{1/7} sigma^{4/7} / T^{2/7}

    The noise terms vanish with sigma = 0; with sigma > 0 the middle term
    requires rho > 0.
    """
    _validate(R, L, T, sigma, rho)
    val = 5.0 * math.sqrt(R * L) / math.sqrt(T)
    if sigma == 0.0:
        return val
    if rho == 0.0:
        raise InvalidInput("bound requires rho > 0 when sigma > 0")
    val += 8.0 * pow_sevenths(sigma, 13) / (pow_sevenths(R, 4) * pow_sevenths(rho, 2) * pow_sevenths(T, 3))
    val += 27.0 * pow_sevenths(R, 2) * pow_sevenths(rho, 1) * pow_sevenths(sigma, 4) / pow_sevenths(T, 2)
    return val


def tuned(optimizer_id: str, problem, T: int) -> tuple[TunedParams, float]:
    """The tuning of ``optimizer_id`` on ``problem`` for horizon T, and its
    ceiling; both theorems need the noise bounded by sigma at every point.
    A tuning whose eta rounds to 0 or beta = 1 - alpha to 1 is refused."""
    if optimizer_id not in THEOREM_METHODS.values():
        raise InvalidInput(f"no closed-form tuning for {optimizer_id!r}")
    if problem.sigma_at_w1_only:
        raise InvalidInput(f"oracle variance is only certified at the start point for {problem.problem_id}; "
                           "the tuned ceilings need it at every point")
    R, L, rho, sigma = problem.R, problem.L, problem.rho, problem.sigma
    if optimizer_id == "nsgdm":
        params, bound = nsgdm_params(R, L, sigma, T), nsgdm_bound(R, L, sigma, T)
    else:
        params, bound = nigt_params(R, L, rho, sigma, T), nigt_bound(R, L, rho, sigma, T)
    if not (params.eta > 0.0 and params.beta < 1.0):
        raise InvalidInput(f"the {optimizer_id} tuning at R = {R}, L = {L}, rho = {rho}, sigma = {sigma}, T = {T} "
                           f"rounds out of its domain: eta = {params.eta}, beta = {params.beta}")
    return params, bound


def bound_check(avgs, bound: float | None) -> tuple[float, float, bool]:
    """(mean, stderr, passed) of per-seed average gradient norms: passed
    when mean + 3 stderr (the seed allowance) is at or below the ceiling,
    or when there is no ceiling."""
    avgs = np.asarray(avgs)
    mean = float(avgs.mean())
    stderr = float(avgs.std(ddof=1) / math.sqrt(len(avgs))) if len(avgs) > 1 else 0.0
    return mean, stderr, bound is None or mean + 3.0 * stderr <= bound
