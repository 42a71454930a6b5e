from dataclasses import replace

import numpy as np
import pytest

from nigt_lab.core import RngStream, TrajectoryRecord
from nigt_lab.errors import (
    Diverged,
    InsufficientGrid,
    InvalidInput,
    MissingExactOracle,
    NonConstantHessian,
)
from nigt_lab.harness import (
    DEFAULT_ETA_GRID,
    RunConfig,
    bound_acceptance,
    descent_check,
    grid_sweep,
    igt_moment_check,
    rate_diagnostic,
    run,
    taylor_remainder_check,
    taylor_threshold,
)
from nigt_lab.optimizers import Schedule, StepState, normalized_move, transport_step
from nigt_lab.problems import (
    make_noisy_quadratic,
    make_sign_noise,
    make_trig_bowl,
)

TRIG = make_trig_bowl(4, 1.0, 1.0, 0.5)


def _records_equal(a, b):
    for name in TrajectoryRecord.COLUMNS + ("no_move",):
        ca, cb = getattr(a, name), getattr(b, name)
        if (ca is None) != (cb is None) or (ca is not None and not np.array_equal(ca, cb)):
            return False
    return (
        a.max_displacement == b.max_displacement
        and a.invariant_violations == b.invariant_violations
    )


class TestRunDeterminism:
    @pytest.mark.parametrize("opt", ["sgd", "heavy_ball", "nsgdm", "nigt", "nigt_adaptive", "nigt_layerwise"])
    def test_bit_identical_rerun(self, opt):
        cfg = RunConfig(problem=TRIG, optimizer_id=opt, T=40, seeds=(3, 9), eta=0.05, beta=0.9)
        first = run(cfg)
        second = run(cfg)
        for a, b in zip(first, second):
            assert _records_equal(a, b)

    def test_parallel_equals_sequential(self):
        cfg = RunConfig(problem=TRIG, optimizer_id="nigt", T=30, seeds=(1, 2, 3, 4), eta=0.05)
        seq = run(cfg, jobs=1)
        par = run(cfg, jobs=2)
        for a, b in zip(seq, par):
            assert _records_equal(a, b)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            RunConfig(problem=TRIG, optimizer_id="nadam", T=10, seeds=(1,), eta=0.1)
        with pytest.raises(InvalidInput):
            RunConfig(problem=TRIG, optimizer_id="nigt", T=10, seeds=(), eta=0.1)
        with pytest.raises(InvalidInput):
            RunConfig(problem=TRIG, optimizer_id="nigt", T=10, seeds=(1, 1), eta=0.1)
        with pytest.raises(InvalidInput):
            run(RunConfig(problem=TRIG, optimizer_id="nigt", T=10, seeds=(1,)))

    def test_adaptive_rejects_decay_schedule(self):
        cfg = RunConfig(
            problem=TRIG,
            optimizer_id="nigt_adaptive",
            T=10,
            seeds=(1,),
            schedule=Schedule(kind="warmup_poly_decay", power=1),
        )
        with pytest.raises(InvalidInput):
            run(cfg)


class TestRunSemantics:
    def test_noise_free_quadratic_descends_without_no_moves(self):
        pb = make_noisy_quadratic(2, [1.0, 1.0], 0.0, w1=[3.0, 4.0])
        cfg = RunConfig(problem=pb, optimizer_id="nigt", T=100, seeds=(0,), eta=0.05, beta=0.9)
        rec = run(cfg)[0]
        assert not rec.no_move.any()
        gn = rec.grad_norm
        # strictly positive until the iterate is within one step of the origin
        assert np.all((gn > 0.0) | (rec.f_val <= 0.5 * 0.05**2))
        # monotone approach in the far field: ||w||=5 start, step 0.05
        assert gn[0] == pytest.approx(5.0, rel=1e-12)
        assert min(gn) < 0.2

    def test_exact_log_consistency_white_box(self):
        # replay the same stream manually and recompute every logged quantity
        pb = TRIG
        eta, beta, T, seed = 0.04, 0.9, 25, 11
        cfg = RunConfig(problem=pb, optimizer_id="nigt", T=T, seeds=(seed,), eta=eta, beta=beta)
        rec = run(cfg)[0]

        rng = RngStream(seed, 0)
        s = StepState(w=pb.w1, w_prev=pb.w1, m=np.zeros(pb.dim))
        sample = lambda x: pb.sample_grad(x, rng)
        s, _, _ = transport_step(s, sample, eta, 0.0, 0.0, 1.0, normalized_move)
        w_seq = [pb.w1, s.w]
        m_seq = [s.m]
        for _ in range(T - 1):
            s, _, _ = transport_step(s, sample, eta, beta / (1.0 - beta), beta, 1.0 - beta, normalized_move)
            w_seq.append(s.w)
            m_seq.append(s.m)
        assert len(rec.eta) == T
        for i in range(T):
            g_exact = pb.exact_grad(w_seq[i])
            assert rec.f_val[i] == pb.exact_value(w_seq[i])
            assert rec.grad_norm[i] == float(np.linalg.norm(g_exact))
            assert rec.m_norm[i] == float(np.linalg.norm(m_seq[i]))
            assert rec.mhat_err[i] == float(np.linalg.norm(m_seq[i] - g_exact))

    def test_record_exact_off_leaves_fields_empty(self):
        cfg = RunConfig(problem=TRIG, optimizer_id="nsgdm", T=10, seeds=(1,), eta=0.05,
                        record_exact=False)
        rec = run(cfg)[0]
        assert rec.f_val is None and rec.grad_norm is None
        assert rec.mhat_err is None and rec.descent_residual is None
        assert np.all(rec.m_norm >= 0.0) and np.all(rec.eta == 0.05)

    def test_schedule_is_applied(self):
        sch = Schedule(kind="warmup_poly_decay", warmup_steps=5, power=1)
        cfg = RunConfig(problem=TRIG, optimizer_id="nsgdm", T=20, seeds=(1,), eta=0.1,
                        schedule=sch)
        rec = run(cfg)[0]
        etas = rec.eta
        assert etas[0] == pytest.approx(0.1 / 5)
        assert etas[4] == pytest.approx(0.1)
        assert etas[-1] == pytest.approx(0.0, abs=1e-18)  # full decay at t = T
        assert all(e >= 0 for e in etas)


class TestMomentCheck:
    def test_noise_free_is_exactly_zero(self):
        rep = igt_moment_check(make_noisy_quadratic(3, [1.0, 2.0, 3.0], 0.0), [1, 5, 20], n_runs=1000, seed=0)
        assert rep.passed
        for c in rep.checkpoints:
            # identical runs: variance is exactly zero; the bias is zero up
            # to accumulated transport rounding
            assert c.variance == 0.0
            assert c.bias_norm <= 1e-12
        assert rep.checkpoints[0].bias_norm == 0.0  # first sample is literal

    def test_unit_noise_matches_one_over_k(self):
        rep = igt_moment_check(make_noisy_quadratic(4, [0.5, 1.0, 2.0, 4.0], 1.0), [1, 10, 100], n_runs=4000,
                               seed=1)
        targets = {c.k: c.target_variance for c in rep.checkpoints}
        assert targets[1] == 1.0 and targets[10] == pytest.approx(0.1) and targets[100] == pytest.approx(0.01)
        assert rep.passed

    def test_pass_fail_stable_across_master_seeds(self):
        outcomes = {
            igt_moment_check(make_noisy_quadratic(2, [1.0, 2.0], 0.7), [1, 10], n_runs=3000, seed=s).passed
            for s in (10, 20, 30)
        }
        assert outcomes == {True}

    def test_rejects_curved_problems(self):
        with pytest.raises(NonConstantHessian):
            igt_moment_check(TRIG, [1], n_runs=1000, seed=0)

    def test_rejects_small_run_counts(self):
        with pytest.raises(InvalidInput):
            igt_moment_check(make_noisy_quadratic(2, [1.0, 1.0], 0.1), [1], n_runs=10, seed=0)


class TestDescentCheck:
    def test_noise_free_quadratic_residuals_nonnegative(self):
        pb = make_noisy_quadratic(2, [1.0, 4.0], 0.0, w1=[2.0, 1.0])
        cfg = RunConfig(problem=pb, optimizer_id="nsgdm", T=100, seeds=(0,), eta=0.02, beta=0.5)
        audit = descent_check(pb, run(cfg)[0])
        assert audit.passed
        assert np.all(audit.residuals >= 0.0)

    def test_flat_objective_residuals_nonnegative(self):
        pb = make_sign_noise(0.25)
        cfg = RunConfig(problem=pb, optimizer_id="nsgdm", T=200, seeds=(1,), eta=0.01, beta=0.0)
        audit = descent_check(pb, run(cfg)[0])
        assert audit.passed
        np.testing.assert_array_equal(audit.lhs, np.zeros(200))  # F is constant

    def test_stochastic_bowl_many_seeds(self):
        for seed in range(5):
            cfg = RunConfig(problem=TRIG, optimizer_id="nigt", T=300, seeds=(seed,), eta=0.03)
            audit = descent_check(TRIG, run(cfg)[0])
            assert audit.passed, f"seed {seed}: violations at {audit.violations}"

    def test_requires_exact_logs(self):
        cfg = RunConfig(problem=TRIG, optimizer_id="nsgdm", T=5, seeds=(1,), eta=0.05,
                        record_exact=False)
        with pytest.raises(MissingExactOracle):
            descent_check(TRIG, run(cfg)[0])

    def test_requires_normalized_update(self):
        cfg = RunConfig(problem=TRIG, optimizer_id="sgd", T=5, seeds=(1,), eta=0.05)
        with pytest.raises(MissingExactOracle):
            descent_check(TRIG, run(cfg)[0])


class TestTaylorRemainderCheck:
    def test_constant_hessian_below_slack(self):
        pb = make_noisy_quadratic(3, [1.0, 2.0, 4.0], 1.0)
        worst = taylor_remainder_check(pb, n_pairs=150, rng=RngStream(1, 3))
        assert worst <= taylor_threshold(pb)
        assert pb.rho == 0.0

    def test_trig_bowl_within_declared_curvature(self):
        pb = make_trig_bowl(3, 1.0, 1.0, 0.0)
        worst = taylor_remainder_check(pb, n_pairs=200, rng=RngStream(2, 3))
        assert worst <= taylor_threshold(pb)
        assert worst <= 1.05 + taylor_threshold(pb)


class TestRateDiagnostic:
    def test_exact_power_laws(self):
        Ts = [100, 1000, 10_000, 100_000]
        rows = [(T, 3.0 * T ** (-2.0 / 7.0)) for T in Ts]
        assert rate_diagnostic(rows) == pytest.approx(-2.0 / 7.0, abs=1e-9)
        rows = [(T, 0.5 * T**-0.25) for T in Ts]
        assert rate_diagnostic(rows) == pytest.approx(-0.25, abs=1e-9)

    def test_insufficient_grid(self):
        with pytest.raises(InsufficientGrid):
            rate_diagnostic([(100, 1.0), (1000, 0.5)])
        with pytest.raises(InsufficientGrid):
            rate_diagnostic([(100, 1.0), (200, 0.8), (400, 0.6)])  # only one decade


class TestGridSweep:
    def test_single_point_grid_returns_it(self):
        cfg = RunConfig(problem=TRIG, optimizer_id="nsgdm", T=20, seeds=(1,), eta=0.05)
        rep = grid_sweep(cfg, [0.03])
        assert rep.best_eta0 == 0.03
        assert len(rep.rows) == 1

    def test_overlarge_rate_loses_on_noise_free_quadratic(self):
        pb = make_noisy_quadratic(2, [1.0, 1.0], 0.0, w1=[2.0, 1.0])
        cfg = RunConfig(problem=pb, optimizer_id="nsgdm", T=400, seeds=(0,), beta=0.0)
        rep = grid_sweep(cfg, [1e-2, 1.0])
        assert rep.best_eta0 == 1e-2
        by_eta = {r.eta0: r.final_grad_norm for r in rep.rows}
        assert by_eta[1.0] > by_eta[1e-2]  # the big rate keeps oscillating

    def test_default_grid_is_six_decades(self):
        assert DEFAULT_ETA_GRID == (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        cfg = RunConfig(problem=TRIG, optimizer_id="nsgdm", T=5, seeds=(1,))
        rep = grid_sweep(cfg)
        assert sorted(r.eta0 for r in rep.rows) == sorted(DEFAULT_ETA_GRID)

    def test_shared_noise_across_grid_points(self):
        cfg = RunConfig(problem=TRIG, optimizer_id="nsgdm", T=10, seeds=(7,))
        r1 = grid_sweep(cfg, [0.01, 0.01000000001])
        # nearly identical rates on identical noise rank deterministically
        assert r1.rows[0].eta0 == 0.01 or r1.rows[0].eta0 == 0.01000000001

    def test_rejects_adaptive(self):
        cfg = RunConfig(problem=TRIG, optimizer_id="nigt_adaptive", T=5, seeds=(1,))
        with pytest.raises(InvalidInput):
            grid_sweep(cfg, [0.1])

    def test_all_rates_diverged_leaves_no_best_rate(self):
        # plain steps of 1 and 2 on eigenvalue 4 grow like 3^t and 7^t
        pb = make_noisy_quadratic(2, [1.0, 4.0], 0.0)
        cfg = RunConfig(problem=pb, optimizer_id="sgd", T=1000, seeds=(1, 2))
        rep = grid_sweep(cfg, [2.0, 1.0], jobs=2)
        assert rep.best_eta0 is None
        assert [r.eta0 for r in rep.rows] == [1.0, 2.0]
        steps = {r.eta0: r.diverged_at for r in rep.rows}
        assert steps[2.0] < steps[1.0]
        with pytest.raises(Diverged) as exc:
            run(replace(cfg, eta=1.0, seeds=(1,)))
        assert exc.value.step == steps[1.0]
        assert f"diverged at step {steps[1.0]}:" in str(exc.value)


class TestDivergenceOrder:
    # plain steps of 0.6 on eigenvalue 4 grow like 1.4^t; the noise decides
    # at which step each seed overflows
    CFG = RunConfig(problem=make_noisy_quadratic(2, [1.0, 4.0], 1.0), optimizer_id="sgd", T=2200,
                    seeds=(1, 2, 3, 4), eta=0.6)

    def test_first_diverging_seed_in_seed_order_is_named(self):
        alone = {}
        for seed in self.CFG.seeds:
            with pytest.raises(Diverged) as exc:
                run(replace(self.CFG, seeds=(seed,)))
            alone[seed] = exc.value.step
        assert alone[2] < alone[1]  # a later seed diverges first
        for jobs in (1, 2):
            with pytest.raises(Diverged) as exc:
                run(self.CFG, jobs=jobs)
            assert exc.value.step == alone[1] == 2106
            assert str(exc.value) == "seed 1 diverged at step 2106: gradient sample contains NaN or Inf"

    def test_order_of_the_seeds_decides_which_failure_is_named(self):
        # seed 2 alone diverges at 2105 and seed 1 at 2106: listed as (2, 1)
        # the batch names seed 2, listed as (1, 2) it names seed 1
        with pytest.raises(Diverged) as exc:
            run(replace(self.CFG, seeds=(2, 1)))
        assert (exc.value.step, str(exc.value).split(" diverged")[0]) == (2105, "seed 2")

    def test_runaway_weight_norm_rate_is_refused_as_alone(self):
        # weight-norm scaling with eta0 = 1 lets |w| grow until the rate
        # overflows: seed 3 alone fails at step 577, seed 1 at 587, so the
        # batch drops seed 3, runs seeds 1 and 2 on with their own rates,
        # and fails with seed 1's error
        cfg = RunConfig(problem=make_trig_bowl(2, 1.0, 1.0, 0.5), optimizer_id="nsgdm", T=3000,
                        seeds=(1, 2, 3), eta=1.0, schedule=Schedule(weight_norm_scaling=True))
        with pytest.raises(InvalidInput) as alone:
            run(replace(cfg, seeds=(1,)))
        with pytest.raises(InvalidInput) as batch:
            run(cfg)
        assert str(batch.value) == str(alone.value) == "eta must be finite and >= 0, got inf"


class TestBoundAcceptanceSmoke:
    def test_small_grid_passes_and_reports(self):
        pb = make_trig_bowl(2, 1.0, 1.0, 0.3)
        rep = bound_acceptance(pb, "nsgdm", [50, 100], seeds=(1, 2, 3))
        assert rep.passed
        assert [r.T for r in rep.rows] == [50, 100]
        for r in rep.rows:
            assert r.mean_avg_grad_norm + 3 * r.stderr <= r.bound
        assert rep.cert_radius >= rep.max_displacement

    def test_noise_free_single_seed_suffices(self):
        pb = make_trig_bowl(2, 1.0, 1.0, 0.0)
        rep = bound_acceptance(pb, "nsgdm", [40, 80], seeds=(0,))
        assert rep.passed
        for r in rep.rows:
            assert r.stderr == 0.0  # deterministic run, no seed noise

    def test_records_pass_structural_validation(self):
        cfg = RunConfig(problem=TRIG, optimizer_id="nigt_adaptive", T=30, seeds=(1, 2))
        for rec in run(cfg):
            assert all(len(getattr(rec, c)) == 30 for c in TrajectoryRecord.COLUMNS if c != "descent_residual")
            assert np.all(rec.eta >= 0.0) and np.all(rec.grad_norm >= 0.0)

    def test_rejects_point_certified_sigma(self):
        from nigt_lab.problems import make_streaming_least_squares

        ls = make_streaming_least_squares(2, [1.0, 2.0], 0.5)
        with pytest.raises(InvalidInput):
            bound_acceptance(ls, "nsgdm", [10], seeds=(1,))

    def test_rejects_unsupported_optimizer(self):
        with pytest.raises(InvalidInput):
            bound_acceptance(TRIG, "sgd", [10], seeds=(1,))
