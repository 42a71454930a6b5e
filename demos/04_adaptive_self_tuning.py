"""The self-tuning variant: step sizes from observed gradient disagreement.

Instead of receiving (eta, beta), this method accumulates the squared
difference of two independent gradient samples per step (plus a small
deterministic drift) into a statistic G_t, and derives

    eta_t   = C / (G_t^2 (t+1)^3)^{1/7}
    alpha_t = 1 / (t eta_{t-1}^2 G_{t-1})

from it. When the oracle is quiet, G grows slowly and the step size stays
large; when samples disagree, G grows and the method backs off. Along any
honest run: alpha_t <= 1, eta_t never increases, and G_t >= g^2 t^{1/4}.
"""

import numpy as np

from nigt_lab import RunConfig, SelfTuning, make_trig_bowl, run

T = 10_000


def main():
    for sigma in (0.0, 0.5):
        pb = make_trig_bowl(4, 1.0, 1.0, sigma)
        init = SelfTuning(pb.g_bound)
        print(f"\nsigma = {sigma}: g_bound = {pb.g_bound:.4f}  "
              f"C = {init.C:.4f}  D = {init.D:.2f}  eta_0 = {init.eta_prev:.4f}")
        cfg = RunConfig(problem=pb, optimizer_id="nigt_adaptive", T=T, seeds=(3,))
        rec = run(cfg)[0]
        print(f"{'t':>7} {'eta_t':>10} {'alpha_t':>10} {'|gradF|':>9}")
        for t in (1, 10, 100, 1000, 10_000):
            s = rec.steps[t - 1]
            print(f"{t:>7d} {s.eta:>10.5f} {s.alpha:>10.5f} {s.grad_norm:>9.4f}")
        etas = [s.eta for s in rec.steps]
        print(f"invariant violations: {len(rec.invariant_violations)}; "
              f"eta monotone: {all(a <= b for a, b in zip(etas[1:], etas[:-1]))}; "
              f"avg |gradF| = {np.mean([s.grad_norm for s in rec.steps]):.4f}")


if __name__ == "__main__":
    main()
