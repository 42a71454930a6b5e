import errno
import functools
import math
import os
import re
import signal
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nigt_lab import harness
from nigt_lab.core import RngStream, gaussian_noise
from nigt_lab.errors import ConstantRefuted, Diverged, InvalidInput, NigtLabError
from nigt_lab.harness import (
    BLOCK_BYTES,
    OPTIMIZER_IDS,
    RunConfig,
    bound_acceptance,
    check_declared_R,
    descent_check,
    igt_moment_check,
    rate_diagnostic,
    run,
)
from nigt_lab.optimizers import METHODS, LayerPartition, Schedule, StepState, normalized_move, transport_step
from nigt_lab.problems import (
    certify_constants,
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
    with_constants,
)

from test_trajectory_digests import RECORD_COLUMNS

TRIG = make_trig_bowl(4, 1.0, 1.0, 0.5)


def _rate(opt, eta):
    """``eta``, or None for the self-tuning method, which sets its own rates."""
    return None if opt == "nigt_adaptive" else eta


def _records_equal(a, b):
    for name in RECORD_COLUMNS + ("no_move",):
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
        cfg = RunConfig(problem=TRIG, optimizer_id=opt, T=40, seeds=(3, 9), eta=_rate(opt, 0.05), beta=0.9)
        first = run(cfg)
        second = run(cfg)
        for a, b in zip(first, second):
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

    @pytest.mark.parametrize("warmup", [10, 11])
    def test_a_warmup_not_below_the_horizon_is_refused_when_built(self, warmup):
        with pytest.raises(InvalidInput, match=f"^warmup_steps {warmup} must be < T 10$"):
            RunConfig(problem=TRIG, optimizer_id="nigt", T=10, seeds=(1,), eta=0.1,
                      schedule=Schedule(kind="warmup_poly_decay", warmup_steps=warmup))
        # the constant schedule reads no warmup
        RunConfig(problem=TRIG, optimizer_id="nigt", T=10, seeds=(1,), eta=0.1, schedule=Schedule(warmup_steps=warmup))

    def test_adaptive_rejects_decay_schedule(self):
        # refused when built, as the other run premises are
        with pytest.raises(InvalidInput, match="^the self-tuning method sets its own step sizes"):
            RunConfig(problem=TRIG, optimizer_id="nigt_adaptive", T=10, seeds=(1,),
                      schedule=Schedule(kind="warmup_poly_decay", power=1))

    @pytest.mark.parametrize("eta", [0.05, 0.0])
    def test_adaptive_takes_no_rate(self, eta):
        with pytest.raises(InvalidInput, match=rf"^the self-tuning method sets its own step sizes; "
                                               rf"it takes no eta, got {eta}$"):
            RunConfig(problem=TRIG, optimizer_id="nigt_adaptive", T=10, seeds=(1,), eta=eta)

    @pytest.mark.parametrize("opt", ["sgd", "heavy_ball", "nsgdm", "nigt", "nigt_adaptive"])
    def test_a_method_that_moves_as_one_refuses_a_layer_partition(self, opt):
        # it would not cover the dimension either: the method is refused first
        part = LayerPartition((0, 3), (1.0,))
        with pytest.raises(InvalidInput, match=f"^{opt} moves every coordinate as one; it takes no layer partition$"):
            RunConfig(problem=TRIG, optimizer_id=opt, T=10, seeds=(1,), eta=_rate(opt, 0.1), partition=part)

    def test_a_layer_partition_that_misses_the_dimension_is_refused_when_built(self):
        part = LayerPartition((0, 3), (1.0,))
        with pytest.raises(InvalidInput, match=r"^ranges cover \[0, 3\) but dim is 4$"):
            RunConfig(problem=TRIG, optimizer_id="nigt_layerwise", T=10, seeds=(1,), eta=0.1, partition=part)
        # without one, the layerwise method runs the whole vector as one layer
        RunConfig(problem=TRIG, optimizer_id="nigt_layerwise", T=10, seeds=(1,), eta=0.1)


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
        xs = []  # the query points, in step order

        def sample(x):
            xs.append(x)
            return pb.noisy_grad(x, pb.sample_noise(rng, 1)[0])

        s, _, _ = transport_step(s, sample, eta, 0.0, 1.0, normalized_move, True)
        w_seq = [pb.w1, s.w]
        m_seq = [s.m]
        for _ in range(T - 1):
            s, _, _ = transport_step(s, sample, eta, beta, 1.0 - beta, normalized_move, True)
            w_seq.append(s.w)
            m_seq.append(s.m)
        # the step's query points are the transport rule written out by hand,
        # so a fault in the rule the step and the runner share fails here
        assert xs[0].tobytes() == pb.w1.tobytes()
        for t in range(1, T):
            w, w_prev = w_seq[t], w_seq[t - 1]
            assert xs[t].tobytes() == (w + beta / (1 - beta) * (w - w_prev)).tobytes()
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
        with pytest.raises(InvalidInput, match=re.escape("moment identity requires a constant Hessian; "
                                                         "trig_bowl(d=4,a=1.0,b=1.0,sigma=0.5) declares rho=1.0")):
            igt_moment_check(TRIG, [1], n_runs=1000, seed=0)

    def test_rejects_sigma_certified_at_w1_only(self):
        pb = make_streaming_least_squares(2, [1.0, 2.0], 0.5)
        with pytest.raises(InvalidInput, match=re.escape(
                "moment identity requires noise that does not depend on the point; streaming_least_squares"
                "(d=2,cov_eigs=[1.0;2.0],label_noise=0.5) certifies sigma at the start point only")):
            igt_moment_check(pb, [1, 100], n_runs=1000, seed=0)

    @pytest.mark.parametrize("checkpoints", [(), (0,), (-1, 4), (0, 1, 10)])
    def test_rejects_checkpoints_that_are_not_sample_counts(self, checkpoints):
        message = f"checkpoints must be positive sample counts, got {checkpoints}"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            igt_moment_check(make_noisy_quadratic(2, [1.0, 4.0], 1.0), checkpoints, n_runs=1000, seed=0)

    def test_rejects_small_run_counts(self):
        with pytest.raises(InvalidInput):
            igt_moment_check(make_noisy_quadratic(2, [1.0, 1.0], 0.1), [1], n_runs=10, seed=0)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_the_hand_coded_recurrence(self, sigma, seed):
        pb = make_noisy_quadratic(3, [1.0, 2.0, 3.0], sigma)
        got = igt_moment_check(pb, [1, 2, 10, 50], n_runs=1000, seed=seed).checkpoints
        want = _moment_reference(pb, [1, 2, 10, 50], 1000, seed)
        assert [(c.k, c.target_variance, c.bias_limit, c.passed) for c in got] == [w[:4] for w in want]
        for c, w in zip(got, want):
            assert c.bias_norm == pytest.approx(w[4], rel=1e-12)
            assert c.variance == pytest.approx(w[5], rel=1e-12)

    def test_samples_the_oracle_not_the_declared_sigma(self):
        # the oracle's noise has scale 1; a declared sigma of 2 claims four
        # times the variance it has, so the check must fail
        pb = with_constants(make_noisy_quadratic(2, [1.0, 2.0], 1.0), sigma=2.0)
        rep = igt_moment_check(pb, [1, 10], n_runs=4000, seed=3)
        assert not rep.passed
        for c in rep.checkpoints:
            assert c.variance / c.target_variance == pytest.approx(0.25, rel=0.1)


def _moment_reference(problem, ks, n_runs, seed, eta=0.01):
    """The moment check as a hand-coded recurrence, independent of the
    transport step: (k, target, limit, passed, bias, variance) per checkpoint."""
    sigma = problem.sigma
    rng = RngStream(seed, 0)
    W = np.tile(problem.w1, (n_runs, 1))
    W_prev = W.copy()
    M = np.zeros_like(W)
    out = []
    for k in range(1, max(ks) + 1):
        if k == 1:
            M = problem.exact_grad(W) + gaussian_noise(rng, (n_runs, problem.dim), sigma)
        else:
            mult = float(k - 1)
            X = W + mult * (W - W_prev)
            G = problem.exact_grad(X) + gaussian_noise(rng, (n_runs, problem.dim), sigma)
            M = (mult / k) * M + (1.0 / k) * G
        if k in ks:
            E = M - problem.exact_grad(W)
            mean_err = E.mean(axis=0)
            bias = float(np.linalg.norm(mean_err))
            var = float(np.mean(np.sum((E - mean_err) ** 2, axis=1)))
            target = sigma * sigma / k
            if sigma == 0.0:
                limit, ok = 1e-12, bias <= 1e-12 and var == 0.0
            else:
                limit = 4.0 * math.sqrt(target / n_runs)
                ok = bias <= limit and 0.9 * target <= var <= 1.1 * target
            out.append((k, target, limit, ok, bias, var))
        norms = np.linalg.norm(M, axis=1, keepdims=True)
        safe = norms > 1e-300
        step = np.where(safe, eta * M / np.where(safe, norms, 1.0), 0.0)
        W_prev = W
        W = W - step
    return out


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
        with pytest.raises(InvalidInput, match=r"^descent audit needs exact logging on a normalized-update run "
                                                r"\(nsgdm lacks it\)$"):
            descent_check(TRIG, run(cfg)[0])

    def test_requires_normalized_update(self):
        cfg = RunConfig(problem=TRIG, optimizer_id="sgd", T=5, seeds=(1,), eta=0.05)
        with pytest.raises(InvalidInput, match=r"^descent audit needs exact logging on a normalized-update run "
                                                r"\(sgd lacks it\)$"):
            descent_check(TRIG, run(cfg)[0])


    def test_a_log_off_its_objective_chain_is_refused(self):
        pb = make_noisy_quadratic(2, [1.0, 4.0], 0.0, w1=[2.0, 1.0])
        rec = run(RunConfig(problem=pb, optimizer_id="nsgdm", T=20, seeds=(0,), eta=0.02, beta=0.5))[0]
        assert descent_check(pb, rec).passed
        rec.f_val[5] += 1e-6
        with pytest.raises(InvalidInput, match="^logged residuals disagree with the logged objective chain$"):
            descent_check(pb, rec)


class TestTaylorRemainderCheck:
    # the curvature part of certification: the largest remainder ratio
    # against the declared rho, widened by the tolerance and the
    # finite-difference slack
    @staticmethod
    def ceiling(rep):
        return rep.rho_declared * (1.0 + rep.tol) + rep.fd_slack

    def test_constant_hessian_below_slack(self):
        pb = make_noisy_quadratic(3, [1.0, 2.0, 4.0], 1.0)
        rep = certify_constants(pb, n_pairs=150, rng=RngStream(1, 3))
        assert rep.rho_hat <= self.ceiling(rep)
        assert pb.rho == 0.0

    def test_trig_bowl_within_declared_curvature(self):
        pb = make_trig_bowl(3, 1.0, 1.0, 0.0)
        rep = certify_constants(pb, n_pairs=200, rng=RngStream(2, 3))
        assert rep.rho_hat <= self.ceiling(rep)
        assert rep.rho_hat <= 1.05 + self.ceiling(rep)


class TestRateDiagnostic:
    def test_exact_power_laws(self):
        Ts = [100, 1000, 10_000, 100_000]
        rows = [(T, 3.0 * T ** (-2.0 / 7.0)) for T in Ts]
        assert rate_diagnostic(rows) == pytest.approx(-2.0 / 7.0, abs=1e-9)
        rows = [(T, 0.5 * T**-0.25) for T in Ts]
        assert rate_diagnostic(rows) == pytest.approx(-0.25, abs=1e-9)

    def test_insufficient_grid(self):
        with pytest.raises(InvalidInput, match=r"^need >= 3 horizons, got 2$"):
            rate_diagnostic([(100, 1.0), (1000, 0.5)])
        with pytest.raises(InvalidInput, match=r"^horizon grid must span at least two decades$"):
            rate_diagnostic([(100, 1.0), (200, 0.8), (400, 0.6)])  # only one decade

    @pytest.mark.parametrize("bad", [0.0, -1.0, -math.inf])
    def test_averages_that_are_not_positive(self, bad):
        with pytest.raises(InvalidInput, match="^gradient-norm averages must be positive for a log-log fit$"):
            rate_diagnostic([(100, 1.0), (1000, bad), (10_000, 0.5)])


class TestRunConfigRates:
    """RunConfig is the one check of a run's rates, for every method: a
    base rate is finite and > 0, and a fixed momentum lies in [0, 1). sgd
    and the self-tuning method read no beta, and the self-tuning method
    takes no eta: it is the one method whose eta is None."""

    @pytest.mark.parametrize("opt", OPTIMIZER_IDS)
    def test_each_method_s_rates(self, opt):
        method = METHODS[opt]
        config = functools.partial(RunConfig, problem=TRIG, optimizer_id=opt, T=5, seeds=(1, 2))
        for eta in (0.0, -0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidInput) as exc:
                config(eta=eta)
            assert str(exc.value) == (f"the self-tuning method sets its own step sizes; it takes no eta, got {eta}"
                                      if method.self_tuning else
                                      f"{opt} needs a base rate: eta must be finite and > 0, got {eta}")
        eta = _rate(opt, 0.1)
        config(eta=_rate(opt, 5e-324), beta=0.0)  # the least rate and beta there are
        for beta in (-0.5, 1.0, math.nan):
            if method.momentum and not method.self_tuning:
                with pytest.raises(InvalidInput) as exc:
                    config(eta=eta, beta=beta)
                assert str(exc.value) == f"beta must lie in [0, 1), got {beta}"
            else:  # unread: the run is the one at the default beta
                assert all(map(_records_equal, run(config(eta=eta, beta=beta)), run(config(eta=eta))))
        if method.self_tuning:
            assert len(run(config())) == 2
        else:
            with pytest.raises(InvalidInput) as exc:
                config()
            assert str(exc.value) == f"{opt} needs a base rate: eta must be finite and > 0, got None"


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
        with pytest.raises(Diverged) as exc:
            run(self.CFG)
        assert exc.value.step == alone[1] == 2106
        assert str(exc.value) == "seed 1 diverged at step 2106: gradient sample contains NaN or Inf"

    def test_order_of_the_seeds_decides_which_failure_is_named(self):
        # seed 2 alone diverges at 2105 and seed 1 at 2106: listed as (2, 1)
        # the batch names seed 2, listed as (1, 2) it names seed 1
        with pytest.raises(Diverged) as exc:
            run(replace(self.CFG, seeds=(2, 1)))
        assert (exc.value.step, str(exc.value).split(" diverged")[0]) == (2105, "seed 2")

    # CFG's seeds 1, 3 and 4 all diverge alone at step 2106, so no order of
    # them needs a re-run of a re-run. Here weight-norm scaling with eta0 = 1
    # lets |w| grow until the rate overflows, which is divergence; alone,
    # seeds 1, 2, 3 and 4 diverge at steps 587, 597, 577 and 638
    RUNAWAY = RunConfig(problem=make_trig_bowl(2, 1.0, 1.0, 0.5), optimizer_id="nsgdm", T=3000,
                        seeds=(1, 2, 3, 4), eta=1.0, schedule=Schedule(weight_norm_scaling=True))

    @pytest.fixture(scope="class")
    def alone(self):
        """The (step, message) of each seed of RUNAWAY run alone."""
        out = {}
        for seed in self.RUNAWAY.seeds:
            with pytest.raises(Diverged) as exc:
                run(replace(self.RUNAWAY, seeds=(seed,)))
            out[seed] = (exc.value.step, str(exc.value))
        return out

    # each case lists the seeds of every run it takes, the first as listed:
    # when a seed diverges first, the seeds listed before it run again, so
    # (2, 1, 3, 4) needs a re-run of a re-run and (4, 2, 1, 3) one more
    @pytest.mark.parametrize("runs", [
        [(3, 1, 2, 4)],
        [(1, 2, 3, 4), (1, 2)],
        [(2, 1, 3, 4), (2, 1), (2,)],
        [(4, 2, 1, 3), (4, 2, 1), (4, 2), (4,)],
    ], ids=lambda runs: "-".join(map(str, runs[0])))
    def test_every_listed_order_names_its_first_seed(self, monkeypatch, alone, runs):
        assert {seed: step for seed, (step, _) in alone.items()} == {1: 587, 2: 597, 3: 577, 4: 638}
        seen, lockstep = [], harness._lockstep

        def counted(cfg):  # the re-runs step through _lockstep too
            seen.append(cfg.seeds)
            return lockstep(cfg)

        monkeypatch.setattr(harness, "_lockstep", counted)
        with pytest.raises(Diverged) as exc:
            run(replace(self.RUNAWAY, seeds=runs[0]))
        assert (exc.value.step, str(exc.value)) == alone[runs[0][0]]
        assert seen == runs

    def test_runaway_weight_norm_rate_is_refused_as_alone(self):
        # seed 3 alone diverges at step 577, seed 1 at 587, so the batch
        # runs seeds 1 and 2 again on their own and fails with seed 1's error
        cfg = replace(self.RUNAWAY, seeds=(1, 2, 3))
        with pytest.raises(Diverged) as alone:
            run(replace(cfg, seeds=(1,)))
        with pytest.raises(Diverged) as batch:
            run(cfg)
        assert batch.value.step == alone.value.step == 587
        assert str(batch.value) == str(alone.value) == "seed 1 diverged at step 587: eta must be finite and >= 0, got inf"

    def test_bad_base_rate_is_a_usage_error(self):
        # refused when the run is built, before it can start
        for eta in (-1.0, math.inf, math.nan):
            with pytest.raises(InvalidInput, match=f"^nsgdm needs a base rate: eta must be finite and > 0, got {eta}$"):
                RunConfig(problem=TRIG, optimizer_id="nsgdm", T=5, seeds=(1,), eta=eta)


class TestSplitRun:
    """A wide batch steps its later seeds in a forked child: the records and
    the error raised are those of the batch in one process."""

    WIDE = RunConfig(problem=make_trig_bowl(2048, 1.0, 1.0, 0.5), optimizer_id="nsgdm", T=5, seeds=(1, 2), eta=0.01)
    RUNAWAY = TestDivergenceOrder.RUNAWAY  # alone, seeds 1 to 4 diverge at steps 587, 597, 577 and 638

    def test_a_wide_batch_splits_where_the_fork_pays_and_is_safe(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert harness._split_pays(self.WIDE)  # 2 seeds of 2,048 cells: SPLIT_CELLS
        assert not harness._split_pays(replace(self.WIDE, seeds=(1,)))
        assert not harness._split_pays(replace(self.WIDE, problem=make_trig_bowl(2047, 1.0, 1.0, 0.5)))
        for name, value in [("platform", "darwin"), ("platform", "win32")]:
            with monkeypatch.context() as m:
                m.setattr(sys, name, value)
                assert not harness._split_pays(self.WIDE)
        for target, value in [("os.sched_getaffinity", lambda pid: {0}), ("threading.active_count", lambda: 2)]:
            with monkeypatch.context() as m:
                m.setattr(target, value)
                assert not harness._split_pays(self.WIDE)

    def test_the_earlier_half_s_divergence_wins(self, split):
        # seed 3, in the child, diverges first; seed 1, here, is named
        with pytest.raises(Diverged) as exc:
            run(self.RUNAWAY)
        assert exc.value.step == 587
        assert str(exc.value) == "seed 1 diverged at step 587: eta must be finite and >= 0, got inf"
        assert len(split) == 1

    def test_a_divergence_in_the_later_half_only_is_raised_as_alone(self, split):
        # by step 600 seeds 4, 6 and 8 have not diverged and 1, 2 and 5 have;
        # the child steps (1, 2, 5), and seed 5 fails first, so the child runs
        # (1, 2) again, without a fork, and names seed 1
        with pytest.raises(Diverged) as alone:
            run(replace(self.RUNAWAY, seeds=(1,)))
        with pytest.raises(Diverged) as exc:
            run(replace(self.RUNAWAY, T=600, seeds=(4, 6, 8, 1, 2, 5)))
        assert (exc.value.step, str(exc.value)) == (alone.value.step, str(alone.value))
        assert exc.value.step == 587 and len(split) == 1

    @staticmethod
    def _child_does(monkeypatch, act):
        """Patch the stepping so that, in a forked child, it calls ``act(cfg)`` first."""
        lockstep, parent = harness._lockstep, os.getpid()

        def patched(cfg):
            if os.getpid() != parent:
                act(cfg)
            return lockstep(cfg)

        monkeypatch.setattr(harness, "_lockstep", patched)

    def test_a_foreign_error_in_the_child_is_raised(self, split, monkeypatch):
        def fail(cfg):
            raise ValueError(f"no seeds {cfg.seeds}")

        self._child_does(monkeypatch, fail)
        with pytest.raises(ValueError, match=r"^no seeds \(3, 4\)$"):
            run(replace(self.RUNAWAY, T=5))

    def test_the_child_is_killed_when_the_earlier_half_fails(self, split, monkeypatch):
        self._child_does(monkeypatch, lambda cfg: time.sleep(20))
        t0 = time.monotonic()
        with pytest.raises(Diverged, match="^seed 1 diverged at step 587"):
            run(self.RUNAWAY)
        assert time.monotonic() - t0 < 10

    def test_a_failed_fork_steps_every_seed_here(self, split, monkeypatch):
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        cfg = replace(self.WIDE, seeds=(1, 2, 3), record_exact=True)
        monkeypatch.setattr(os, "fork", no_fork)
        fds = len(os.listdir("/proc/self/fd"))
        recs = run(cfg)
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed
        monkeypatch.setattr(harness, "SPLIT_CELLS", 10**18)
        for a, b in zip(recs, run(cfg), strict=True):
            assert a.seed == b.seed and _records_equal(a, b) and np.array_equal(a.final_w, b.final_w)

    @pytest.mark.parametrize("death, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ], ids=["exit", "signal"])
    def test_a_child_that_dies_is_named(self, split, monkeypatch, death, how):
        self._child_does(monkeypatch, lambda cfg: death())
        with pytest.raises(NigtLabError) as exc:
            run(replace(self.RUNAWAY, T=5))
        assert str(exc.value) == f"the forked process that stepped the last 2 seeds {how} before it sent its records"


class TestLogBlocks:
    """Steps are logged in blocks; where the blocks end must not show."""

    @staticmethod
    def _block_of(monkeypatch, cfg, steps):
        # a block holds w, x and m of each step: 3 float64 (S, d) arrays
        monkeypatch.setattr("nigt_lab.harness.BLOCK_BYTES", steps * 3 * 8 * len(cfg.seeds) * cfg.problem.dim)

    @classmethod
    def _check_block_sizes(cls, monkeypatch, pb, steps, opt, record_exact):
        cfg = RunConfig(problem=pb, optimizer_id=opt, T=20, seeds=(1, 2, 3), eta=_rate(opt, 0.05), beta=0.9,
                        record_exact=record_exact)
        default = run(cfg)
        cls._block_of(monkeypatch, cfg, steps)
        for a, b in zip(default, run(cfg), strict=True):
            assert _records_equal(a, b)
            assert np.array_equal(a.final_w, b.final_w)

    @pytest.mark.parametrize("record_exact", [True, False])
    @pytest.mark.parametrize("opt", ["nigt", "nsgdm", "nigt_adaptive"])
    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_block_size_does_not_change_the_records(self, monkeypatch, steps, opt, record_exact):
        self._check_block_sizes(monkeypatch, TRIG, steps, opt, record_exact)

    # noise widths 1, d + 1 and 0 (TRIG's is d); the self-tuning method needs a finite g_bound
    OTHER_WIDTHS = {
        "sign_noise": make_sign_noise(0.3),
        "streaming_least_squares": with_constants(make_streaming_least_squares(3, [1.0, 0.5, 2.0], 0.3),
                                                  g_bound=50.0),
        "trig_bowl_noise_free": make_trig_bowl(3, 1.0, 1.0, 0.0),
    }

    @pytest.mark.parametrize("record_exact", [True, False])
    @pytest.mark.parametrize("opt", ["nigt", "nsgdm", "nigt_adaptive"])
    @pytest.mark.parametrize("steps", [1, 3, 7])
    @pytest.mark.parametrize("kind", OTHER_WIDTHS)
    def test_block_size_does_not_change_the_records_at_other_noise_widths(self, monkeypatch, kind, steps, opt,
                                                                           record_exact):
        self._check_block_sizes(monkeypatch, self.OTHER_WIDTHS[kind], steps, opt, record_exact)

    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_a_later_seed_diverging_mid_block_names_the_same_failure(self, monkeypatch, steps):
        # seed 3 diverges first, at step 577, then seed 1 at step 587
        cfg = RunConfig(problem=make_trig_bowl(2, 1.0, 1.0, 0.5), optimizer_id="nsgdm", T=3000,
                        seeds=(1, 2, 3), eta=1.0, schedule=Schedule(weight_norm_scaling=True))
        with pytest.raises(Diverged) as default:
            run(cfg)
        self._block_of(monkeypatch, cfg, steps)
        with pytest.raises(Diverged) as blocked:
            run(cfg)
        assert (str(blocked.value), blocked.value.step) == (str(default.value), default.value.step)
        assert default.value.step == 587

    def test_a_run_holds_its_log_and_about_one_block(self):
        # the reference run: besides its log, a run holds one block of steps
        # and that block's noise, not a tape of noise per seed and stream
        T, S = 10_000, 20
        cfg = RunConfig(problem=TRIG, optimizer_id="nigt", T=T, seeds=tuple(range(S)), eta=0.01, beta=0.9)
        tracemalloc.start()
        try:
            recs = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_cols = sum(getattr(recs[0], name) is not None for name in RECORD_COLUMNS)
        log_bytes = n_cols * T * S * 8  # held once: each record's columns are rows of it
        assert (peak - log_bytes - T * S) / BLOCK_BYTES < 8  # T * S: the no_move flags


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
            assert all(len(getattr(rec, c)) == 30 for c in RECORD_COLUMNS if c != "descent_residual")
            assert np.all(rec.eta >= 0.0) and np.all(rec.grad_norm >= 0.0)

    def test_a_repeated_horizon_is_refused_before_any_run(self, monkeypatch):
        # it would run T = 10 twice, report it twice and fit the slope to it twice
        runs = []
        monkeypatch.setattr(harness, "run", runs.append)
        with pytest.raises(InvalidInput, match=r"^T_grid must be distinct, got \[10, 10, 100\]$"):
            bound_acceptance(TRIG, "nsgdm", [10, 100, 10], seeds=(1, 2))
        assert runs == []

    def test_an_empty_grid_is_refused_before_anything_is_tuned_or_drawn(self, monkeypatch):
        # it would pass with no rows, after a certification that checks nothing
        calls = []
        for name in ("tuned", "cert_points", "run", "certify_constants"):
            monkeypatch.setattr(harness, name, lambda *a, name=name, **k: calls.append(name))
        with pytest.raises(InvalidInput, match=r"^T_grid must be non-empty$"):
            bound_acceptance(make_trig_bowl(4, 1.0, 1.0, 0.5), "nsgdm", [], seeds=(0, 1))
        assert calls == []

    def test_rejects_point_certified_sigma(self):
        from nigt_lab.problems import make_streaming_least_squares

        ls = make_streaming_least_squares(2, [1.0, 2.0], 0.5)
        with pytest.raises(InvalidInput):
            bound_acceptance(ls, "nsgdm", [10], seeds=(1,))

    def test_rejects_unsupported_optimizer(self):
        with pytest.raises(InvalidInput):
            bound_acceptance(TRIG, "sgd", [10], seeds=(1,))

    def test_an_understated_R_is_refuted_at_the_first_horizon_that_shows_it(self, monkeypatch):
        # the trig bowl declares R = F(w1) - inf F exactly; at a tenth of
        # it, the first horizon's logs already fall further below F(w1)
        runs = []
        monkeypatch.setattr(harness, "run", lambda cfg: runs.append(cfg.T) or run(cfg))
        with pytest.raises(ConstantRefuted, match=r"^F\(w1\) - min logged F = \S+ exceeds declared R "
                                                  rf"{TRIG.R / 10:.6g} \* \(1\+tol\)$"):
            bound_acceptance(with_constants(TRIG, R=TRIG.R / 10), "nsgdm", [100, 1000], seeds=(1, 2))
        assert runs == [100]


class TestDeclaredR:
    def test_the_logs_bound_R_from_below(self):
        recs = run(RunConfig(problem=TRIG, optimizer_id="nsgdm", T=200, seeds=(1, 2), eta=0.05))
        gap = float(recs[0].f_val[0] - min(r.f_val.min() for r in recs))
        assert 0.0 < gap <= TRIG.R
        check_declared_R(TRIG, recs)  # the true R
        check_declared_R(with_constants(TRIG, R=gap), recs)  # no further than the logs reach
        with pytest.raises(ConstantRefuted, match=rf"^F\(w1\) - min logged F = {gap:.6g} exceeds declared R "):
            check_declared_R(with_constants(TRIG, R=gap / 1.1), recs)  # beyond the 5 % tolerance
