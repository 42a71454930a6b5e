"""Fault injection: each case patches one rule of the program in process
and asserts that a named shipped check fails on the faulty code, so that
the check is shown to see the fault it certifies against."""

import json
from unittest import mock

import numpy as np

from nigt_lab import optimizers
from nigt_lab.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from nigt_lab.harness import RunConfig, run
from nigt_lab.problems import make_trig_bowl

# the reference moment check: noisy quadratic, d=4, eigs 1-4, sigma 1
IGT_REFERENCE = """\
problem.kind = noisy_quadratic
problem.dim = 4
problem.eigs = 1.0,2.0,3.0,4.0
problem.sigma = 1.0
igt_check.checkpoints = 1,10,100
igt_check.n_runs = 10000
run.master_seed = 2024
"""

# k_t = beta_t: momentum without the transport tweak
WITHOUT_TRANSPORT = mock.patch.object(optimizers, "transport_weight", lambda beta, alpha: beta)


def igt_check(tmp_path):
    """The exit code of igt-check on the reference file, and its checkpoints."""
    cfg, out = tmp_path / "igt.cfg", tmp_path / "out"
    cfg.write_text(IGT_REFERENCE, encoding="utf-8")
    code = main(["igt-check", "--config", str(cfg), "--out", str(out)])
    return code, json.loads((out / "igt_check.json").read_text(encoding="utf-8"))["checkpoints"]


class TestTransportRule:
    def test_igt_check_fails_without_the_transport_tweak(self, tmp_path):
        assert igt_check(tmp_path)[0] == EXIT_OK
        with WITHOUT_TRANSPORT:
            code, checkpoints = igt_check(tmp_path)
        assert code == EXIT_CHECK_FAILED
        # the first sample has no transport to get wrong; later ones are biased
        assert [c["passed"] for c in checkpoints] == [True, False, False]
        assert all(c["bias_norm"] > 5.0 * c["bias_limit"] for c in checkpoints[1:])

    def test_the_runner_reads_the_same_rule(self):
        bowl = make_trig_bowl(4, 1.0, 1.0, 0.5)
        for opt, changes in (("nigt", True), ("nsgdm", False)):
            cfg = RunConfig(problem=bowl, optimizer_id=opt, T=50, seeds=(3,), eta=0.05, beta=0.9)
            rec = run(cfg)[0]
            with WITHOUT_TRANSPORT:
                faulty = run(cfg)[0]
            assert (rec.f_val.tobytes() != faulty.f_val.tobytes()) is changes, opt
            assert np.array_equal(rec.final_w, faulty.final_w) is not changes, opt
