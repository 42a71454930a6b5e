"""Nothing is taken on faith: constants and inequalities are re-measured.

Every problem declares smoothness L, curvature drift rho, and noise level
sigma. Certification hammers those claims with sampled gradient-difference
ratios, finite-difference curvature remainders, and Monte-Carlo noise
measurement. Separately, every normalized run logs a per-step residual of
the descent inequality

    F(w_{t+1}) - F(w_t) <= -eta/3 ||gradF(w_t)|| + 8 eta/3 ||err_t|| + L eta^2/2

which must never go (numerically) negative.
"""

import numpy as np

from nigt_lab import (
    RunConfig,
    certify_constants,
    descent_check,
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
    run,
)
from nigt_lab.core import RngStream


def main():
    problems = [
        make_noisy_quadratic(2, [1.0, 4.0], 1.0),
        make_sign_noise(0.25),
        make_trig_bowl(4, 1.0, 1.0, 0.5),
        make_streaming_least_squares(2, [1.0, 2.0], 0.5),
    ]
    print(f"{'problem':<55} {'L_hat/L':>8} {'rho_hat':>9} {'sigma err':>10}")
    for pb in problems:
        rep = certify_constants(pb, n_pairs=300, rng=RngStream(1, 2))
        l_ratio = rep.L_hat / pb.L if pb.L > 0 else 0.0
        sig_err = abs(rep.sigma_hat - pb.sigma) / pb.sigma if pb.sigma > 0 else 0.0
        print(f"{pb.problem_id:<55} {l_ratio:>8.3f} {rep.rho_hat:>9.2e} {sig_err:>10.2%}")

    bowl = problems[2]
    curv = certify_constants(bowl, n_pairs=200, rng=RngStream(2, 3))
    ceiling = curv.rho_declared * (1.0 + curv.tol) + curv.fd_slack
    print(f"\ncurvature remainder ratio on the bowl: {curv.rho_hat:.3f} "
          f"(ceiling {ceiling:.3f}, declared rho {bowl.rho})")

    cfg = RunConfig(problem=bowl, optimizer_id="nigt", T=2000, seeds=(1, 2, 3), eta=0.01)
    worst_resid = np.inf
    total = 0
    for rec in run(cfg):
        audit = descent_check(bowl, rec)
        worst_resid = min(worst_resid, float(audit.residuals.min()))
        total += audit.residuals.size
        assert audit.passed
    print(f"descent inequality audited on {total} steps; most negative residual "
          f"{worst_resid:+.2e} (tolerance -1e-9 of scale)")


if __name__ == "__main__":
    main()
