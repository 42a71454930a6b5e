"""Gradient transport turns momentum into a variance-reduced estimator.

On a constant-Hessian objective, sampling the gradient at the extrapolated
point x_k = w_k + (k-1)(w_k - w_{k-1}) and averaging with weights
(k-1)/k, 1/k keeps the running average m_k an exactly unbiased estimate of
the CURRENT gradient, with total variance sigma^2 / k: the estimator gets
better every step even though the iterate keeps moving.
"""

from nigt_lab import igt_moment_check, make_noisy_quadratic

D = 4
EIGS = [0.5, 1.0, 2.0, 4.0]
SIGMA = 1.0


def main():
    report = igt_moment_check(
        make_noisy_quadratic(D, EIGS, SIGMA),
        checkpoints=[1, 2, 5, 10, 25, 50, 100],
        n_runs=10_000, seed=7,
    )
    print(f"noisy quadratic, d={D}, sigma={SIGMA}, {report.n_runs} runs\n")
    print(f"{'samples k':>10} {'bias norm':>12} {'variance':>12} {'sigma^2/k':>12} {'ratio':>8}")
    for c in report.checkpoints:
        print(
            f"{c.k:>10d} {c.bias_norm:>12.2e} {c.variance:>12.5f} "
            f"{c.target_variance:>12.5f} {c.variance / c.target_variance:>8.3f}"
        )
    print(f"\nall checkpoints within [0.9, 1.1] of target: {report.passed}")


if __name__ == "__main__":
    main()
