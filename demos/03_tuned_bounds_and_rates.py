"""Certified ceilings on the average gradient norm, and the observed rates.

Both normalized methods come with closed-form hyperparameters and an
explicit upper bound on (1/T) sum_t E||gradF(w_t)||. The bounds are
one-sided guarantees, so measured averages must sit at or below them; the
log-log slope of the measurements themselves is reported as a diagnostic
(the transport variant's ceiling decays like T^{-2/7} once noise dominates).
"""

from nigt_lab import bound_acceptance, make_trig_bowl, rate_diagnostic

T_GRID = (100, 1000, 10_000)
SEEDS = tuple(range(1, 21))


def show(report):
    print(f"\n{report.optimizer_id} on {report.problem_id}")
    print(f"{'T':>7} {'measured':>10} {'+3se':>8} {'ceiling':>9} {'ok':>4}")
    for r in report.rows:
        print(
            f"{r.T:>7d} {r.mean_avg_grad_norm:>10.4f} "
            f"{r.mean_avg_grad_norm + 3 * r.stderr:>8.4f} {r.bound:>9.4f} "
            f"{'yes' if r.passed else 'NO':>4}"
        )
    slope = rate_diagnostic([(r.T, r.mean_avg_grad_norm) for r in report.rows])
    print(f"measured log-log slope: {slope:+.4f}")
    print(f"iterates stayed within {report.max_displacement:.2f} of the start; "
          f"constants re-certified on radius {report.cert_radius:.1f}")


def main():
    bowl = make_trig_bowl(4, 1.0, 1.0, 0.5)
    show(bound_acceptance(bowl, "nsgdm", T_GRID, SEEDS))
    show(bound_acceptance(bowl, "nigt", T_GRID, SEEDS))


if __name__ == "__main__":
    main()
