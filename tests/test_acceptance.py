"""Acceptance gate: every shipped guarantee, verified at desk scale.

Each test prints one pass/fail line. The expensive tuned runs are shared
module-scoped fixtures so the whole gate stays within a couple of minutes.
Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import math

import numpy as np
import pytest

from nigt_lab.cli import main
from nigt_lab.core import RngStream, TrajectoryRecord
from nigt_lab.harness import (
    RunConfig,
    bound_acceptance,
    descent_check,
    igt_moment_check,
    run,
    taylor_remainder_check,
    taylor_threshold,
)
from nigt_lab.optimizers import SelfTuning, StepState, normalized_move, transport_step
from nigt_lab.problems import (
    certify_constants,
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
)
from nigt_lab.reports import CSV_HEADER
from nigt_lab.tuning import nsgdm_params

SEEDS_20 = tuple(range(1, 21))
T_GRID = (100, 1000, 10_000)


def _same_columns(a, b) -> bool:
    """Every log column of two records equal (a column absent from both counts as equal)."""
    for name in TrajectoryRecord.COLUMNS + ("no_move",):
        ca, cb = getattr(a, name), getattr(b, name)
        if (ca is None) != (cb is None) or (ca is not None and not np.array_equal(ca, cb)):
            return False
    return True


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok


@pytest.fixture(scope="module")
def bowl():
    return make_trig_bowl(4, 1.0, 1.0, 0.5)


@pytest.fixture(scope="module")
def nsgdm_run(bowl):
    records = []
    report = bound_acceptance(bowl, "nsgdm", T_GRID, SEEDS_20, records_out=records)
    return report, records


@pytest.fixture(scope="module")
def nigt_run(bowl):
    records = []
    report = bound_acceptance(bowl, "nigt", T_GRID, SEEDS_20, records_out=records)
    return report, records


class TestCriterion1VarianceIdentity:
    def test_transported_momentum_moments(self):
        n_runs = 10_000
        rep = igt_moment_check(
            make_noisy_quadratic(4, [0.5, 1.0, 2.0, 4.0], 1.0),
            checkpoints=[1, 10, 100], n_runs=n_runs, seed=2024,
        )
        for c in rep.checkpoints:
            assert c.target_variance == pytest.approx(1.0 / c.k, rel=1e-12)
            assert c.bias_norm <= 4.0 * math.sqrt(c.target_variance / n_runs)
            assert 0.9 * c.target_variance <= c.variance <= 1.1 * c.target_variance
        detail = "; ".join(
            f"k={c.k}: bias={c.bias_norm:.2e} var/target={c.variance / c.target_variance:.3f}"
            for c in rep.checkpoints
        )
        _report(1, rep.passed, detail)


class TestCriterion2MomentumBound:
    def test_tuned_momentum_meets_ceiling(self, nsgdm_run):
        report, _ = nsgdm_run
        for row in report.rows:
            assert row.mean_avg_grad_norm + 3.0 * row.stderr <= row.bound
        detail = "; ".join(
            f"T={r.T}: {r.mean_avg_grad_norm:.3f}+3se<= {r.bound:.3f}" for r in report.rows
        )
        _report(2, report.passed, detail)


class TestCriterion3TransportBound:
    def test_tuned_transport_meets_ceiling(self, bowl, nigt_run):
        report, _ = nigt_run
        assert bowl.rho == 1.0  # certified curvature drift for a = b = 1
        for row in report.rows:
            assert row.mean_avg_grad_norm + 3.0 * row.stderr <= row.bound
        detail = "; ".join(
            f"T={r.T}: {r.mean_avg_grad_norm:.3f}+3se<= {r.bound:.3f}" for r in report.rows
        )
        _report(3, report.passed, detail)


class TestCriterion4DescentAudit:
    def test_every_step_of_every_bound_run(self, bowl, nsgdm_run, nigt_run):
        total = 0
        violations = 0
        for rec in nsgdm_run[1] + nigt_run[1]:
            audit = descent_check(bowl, rec)
            total += audit.residuals.size
            violations += len(audit.violations)
        _report(4, violations == 0, f"{total} steps audited, {violations} violations")


class TestCriterion5CounterexampleRescue:
    def test_drift_with_and_without_momentum(self):
        pb = make_sign_noise(0.25)
        eta, T = 0.01, 10_000

        def drift(cfg):
            out = []
            for rec in run(cfg):
                out.append(float((pb.w1[0] - rec.final_w[0]) / (eta * T)))
            return float(np.mean(out))

        memoryless = drift(RunConfig(problem=pb, optimizer_id="nsgdm", T=T,
                                     seeds=SEEDS_20, eta=eta, beta=0.0))
        assert abs(memoryless - 0.5) <= 0.05  # normalized samples drift at 1 - 2p

        params = nsgdm_params(R=1.0, L=1.0, sigma=math.sqrt(0.1875), T=T)
        damped = drift(RunConfig(problem=pb, optimizer_id="nsgdm", T=T,
                                 seeds=SEEDS_20, eta=eta, beta=params.beta))
        assert abs(damped) <= 0.1

        _report(5, True, f"memoryless drift {memoryless:.3f} ~ 0.5; momentum drift {damped:.3f} <= 0.1")


class TestCriterion6AdaptiveInvariants:
    def test_long_noisy_run_has_zero_violations(self, bowl):
        cfg = RunConfig(problem=bowl, optimizer_id="nigt_adaptive", T=10_000, seeds=(5,))
        rec = run(cfg)[0]
        etas = rec.eta.tolist()
        alphas = rec.alpha.tolist()
        assert not rec.invariant_violations
        assert all(a <= b * (1 + 1e-12) for a, b in zip(etas[1:], etas[:-1]))
        assert all(a <= 1.0 + 1e-12 for a in alphas)
        self._noisy_ok = True

    def test_noise_free_increments_equal_drift(self):
        pb = make_trig_bowl(4, 1.0, 1.0, 0.0)
        tuner = SelfTuning(pb.g_bound)
        s = StepState(w=pb.w1, w_prev=pb.w1, m=np.zeros(4))
        rng, rng2 = RngStream(6, 0), RngStream(6, 1)
        gb2 = pb.g_bound**2
        worst = 0.0
        for t in range(1, 10_001):
            eta, alpha = tuner.rates(t)
            s, x, g = transport_step(s, lambda x: pb.sample_grad(x, rng), eta, (1.0 - alpha) / alpha,
                                     1.0 - alpha, alpha, normalized_move)
            tuner.accumulate(t, g, pb.sample_grad(x, rng2))
            assert not tuner.events
            drift = gb2 * ((t + 1) ** 0.25 - t**0.25)
            # the paired samples coincide, so the added increment IS the drift
            worst = max(worst, abs(tuner.delta - drift) / drift)
        assert worst <= 1e-12
        print(f"[criterion 6a] PASS: noise-free accumulator increments match drift "
              f"(worst rel err {worst:.2e})")

    def test_constants_against_high_precision_oracle(self):
        import mpmath as mp  # a missing oracle fails the gate rather than skipping it

        mp.mp.dps = 50
        C_hp = mp.sqrt(mp.mpf(7) / (26 * mp.mpf(1) ** (mp.mpf(6) / 7)))
        D_hp = C_hp ** (-mp.mpf(14) / 3)
        eta0_hp = C_hp / D_hp ** (mp.mpf(2) / 7)
        s = SelfTuning(1.0)
        assert s.C == pytest.approx(float(C_hp), rel=1e-5)
        assert s.D == pytest.approx(float(D_hp), rel=1e-5)
        assert s.eta_prev == pytest.approx(float(eta0_hp), rel=1e-5)
        # five-significant-digit values of the re-derived constants
        assert f"{s.C:.6g}" == "0.518875"
        assert f"{s.D:.5g}" == "21.365"
        assert f"{s.eta_prev:.5g}" == "0.21634"
        _report(6, True, f"C={s.C:.6f} D={s.D:.5f} eta0={s.eta_prev:.6f} vs 50-digit oracle")


class TestCriterion7Certification:
    def test_all_shipped_problems_certify(self, bowl):
        problems = [
            make_noisy_quadratic(2, [1.0, 4.0], 1.0),
            make_sign_noise(0.25),
            bowl,
            make_streaming_least_squares(2, [1.0, 2.0], 0.5),
        ]
        for pb in problems:
            report = certify_constants(pb, n_pairs=300, radius=10.0, rng=RngStream(3, 2))
            assert report.passed, pb.problem_id

        quad = problems[0]
        worst_quad = taylor_remainder_check(quad, n_pairs=150, rng=RngStream(4, 3))
        assert worst_quad <= taylor_threshold(quad)  # rho = 0: slack only
        worst_bowl = taylor_remainder_check(bowl, n_pairs=150, rng=RngStream(5, 3))
        assert worst_bowl <= taylor_threshold(bowl)  # rho 1.05 + slack
        _report(7, True,
                f"4 problems certified; remainder ratios quad={worst_quad:.2e} "
                f"bowl={worst_bowl:.3f} <= {taylor_threshold(bowl):.3f}")


class TestCriterion8MechanicalInvariants:
    @staticmethod
    def _len_tol(w, eta):
        d = np.asarray(w).size
        return 8.0 * (np.spacing(eta) + math.sqrt(d) * np.spacing(float(np.linalg.norm(w)) + eta))

    def test_exact_step_lengths(self, bowl):
        worst = 0.0
        checked = 0
        # momentum method
        rng = RngStream(8, 0)
        s = StepState(w=bowl.w1, w_prev=bowl.w1, m=np.zeros(4))
        eta = 0.03
        for t in range(1, 501):
            prev = s.w
            beta = 0.0 if t == 1 else 0.9
            s, _, _ = transport_step(s, lambda x: bowl.sample_grad(x, rng), eta, 0.0, beta, 1.0 - beta,
                                     normalized_move)
            if not s.no_move:
                err = abs(float(np.linalg.norm(s.w - prev)) - eta)
                assert err <= self._len_tol(prev, eta)
                worst = max(worst, err)
                checked += 1
        # transport method
        rng = RngStream(9, 0)
        st = StepState(w=bowl.w1, w_prev=bowl.w1, m=np.zeros(4))
        sample = lambda x: bowl.sample_grad(x, rng)
        st, _, _ = transport_step(st, sample, eta, 0.0, 0.0, 1.0, normalized_move)
        prev = bowl.w1
        for _ in range(500):
            if not st.no_move:
                err = abs(float(np.linalg.norm(st.w - prev)) - eta)
                assert err <= self._len_tol(prev, eta)
                worst = max(worst, err)
                checked += 1
            prev = st.w
            st, _, _ = transport_step(st, sample, eta, 0.9 / (1.0 - 0.9), 0.9, 1.0 - 0.9, normalized_move)
        # self-tuning method: step length equals its own eta_t
        tuner = SelfTuning(bowl.g_bound)
        sa = StepState(w=bowl.w1, w_prev=bowl.w1, m=np.zeros(4))
        rng, rng2 = RngStream(10, 0), RngStream(10, 1)
        for t in range(1, 501):
            prev = sa.w
            eta_t, alpha = tuner.rates(t)
            sa, x, g = transport_step(sa, lambda x: bowl.sample_grad(x, rng), eta_t, (1.0 - alpha) / alpha,
                                      1.0 - alpha, alpha, normalized_move)
            tuner.accumulate(t, g, bowl.sample_grad(x, rng2))
            if not sa.no_move:
                err = abs(float(np.linalg.norm(sa.w - prev)) - tuner.eta_prev)
                assert err <= self._len_tol(prev, tuner.eta_prev)
                worst = max(worst, err)
                checked += 1
        print(f"[criterion 8a] PASS: {checked} steps with exact unit length "
              f"(worst |err| {worst:.2e})")

    def test_beta_zero_equivalence_through_harness(self, bowl):
        base = dict(problem=bowl, T=50, seeds=(4, 5), eta=0.05, beta=0.0)
        recs_a = run(RunConfig(optimizer_id="nsgdm", **base))
        recs_b = run(RunConfig(optimizer_id="nigt", **base))
        for a, b in zip(recs_a, recs_b):
            assert _same_columns(a, b)  # exact float equality
            np.testing.assert_array_equal(a.final_w, b.final_w)

    def test_bit_identical_reruns(self, bowl):
        for opt in ("nsgdm", "nigt", "nigt_adaptive", "nigt_layerwise"):
            cfg = RunConfig(problem=bowl, optimizer_id=opt, T=60, seeds=(7,), eta=0.04)
            a, b = run(cfg)[0], run(cfg)[0]
            assert _same_columns(a, b)
            np.testing.assert_array_equal(a.final_w, b.final_w)
        _report(8, True, "step lengths exact; beta=0 degeneracy bitwise; reruns bit-identical")


class TestCriterion9ToolingContract:
    def test_golden_formats_and_exit_codes(self, tmp_path):
        from pathlib import Path

        golden = Path(__file__).parent / "golden"
        out = tmp_path / "out"
        assert main(["run", "--config", str(golden / "golden_run.cfg"), "--out", str(out)]) == 0
        assert (out / "seed_1.csv").read_bytes() == (golden / "golden_seed_1.csv").read_bytes()
        assert (out / "summary.json").read_bytes() == (golden / "golden_summary.json").read_bytes()
        assert (out / "grad_norm.svg").read_bytes() == (golden / "golden_grad_norm.svg").read_bytes()
        assert (out / "seed_1.csv").read_text().splitlines()[0] == CSV_HEADER

        # exit 1: config error with a named diagnostic
        bad = tmp_path / "bad.cfg"
        bad.write_text((golden / "golden_run.cfg").read_text() + "optimizer.theta = 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1

        # exit 2: corrupted gradient bound trips the invariant audit
        corrupt = tmp_path / "corrupt.cfg"
        corrupt.write_text(
            "problem.kind = trig_bowl\nproblem.dim = 2\nproblem.a = 1.0\nproblem.b = 1.0\n"
            "problem.sigma = 0.5\noptimizer.id = nigt_adaptive\noptimizer.g_bound = 0.01\n"
            "run.T = 40\nrun.seeds = 2\n"
        )
        out2 = tmp_path / "y"
        assert main(["run", "--config", str(corrupt), "--out", str(out2)]) == 2
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["invariant_violations"][0]["t"] >= 1

        # config round-trip identity
        from nigt_lab.config import parse_experiment, serialize_experiment

        text = (golden / "golden_run.cfg").read_text()
        once = parse_experiment(text)
        assert parse_experiment(serialize_experiment(once)) == once
        _report(9, True, "golden CSV/JSON/SVG bytes, exit codes 0/1/2, round-trip identity")
