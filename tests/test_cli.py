import errno
import hashlib
import json
import math
import os
import re
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from nigt_lab import cli, harness, problems, reports
from nigt_lab.cli import main
from nigt_lab.core import (
    CERT_CELL_BYTES,
    IGT_CELL_BYTES,
    LOG_CELL_BYTES,
    MAX_CERT_CELLS,
    MAX_IGT_CELLS,
    MAX_LOG_CELLS,
    MAX_SEEDS,
    MAX_STATE_CELLS,
    STATE_CELL_BYTES,
    TrajectoryRecord,
)
from nigt_lab.problems import CERT_N_SIGMA, MIN_SEP
from nigt_lab.reports import CSV_HEADER, open_atomic, record_to_csv, write_run_outputs

GOLDEN = Path(__file__).parent / "golden"


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


BASE_RUN = """\
problem.kind = noisy_quadratic
problem.dim = 2
problem.eigs = 1.0,4.0
problem.sigma = 0.0
problem.w1 = 1.0,1.0
optimizer.id = nsgdm
optimizer.eta = 0.1
optimizer.beta = 0.5
run.T = 10
run.seeds = 1
output.formats = csv,json
"""


ADAPTIVE_RUN = """\
problem.kind = trig_bowl
problem.dim = 2
problem.a = 1.0
problem.b = 1.0
problem.sigma = 0.5
optimizer.id = nigt_adaptive
run.T = 50
run.seeds = 3
"""


class TestRunCommand:
    def test_row_count_matches_horizon(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", BASE_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "seed_1.csv").read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11  # header + T rows
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True and summary["no_move_count"] == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", BASE_RUN)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "seed_1.csv").read_bytes() == (b / "seed_1.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", BASE_RUN + "optimizer.momentun = 0.9\n")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "momentun" in err

    def test_diverging_run_exits_two_and_names_the_step(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", DIVERGING_SGD + "optimizer.eta = 1.0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert re.search(r"seed 1 diverged at step \d+: gradient sample contains NaN or Inf",
                         capsys.readouterr().err)

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_bad_usage_exits_one(self):
        assert main(["run"]) == 1

    def test_corrupted_g_bound_exits_two_and_names_steps(self, tmp_path):
        # understated gradient bound on a noisy bowl: the accumulator
        # increment cap is violated and the run must fail loudly
        text = (
            "problem.kind = trig_bowl\nproblem.dim = 2\nproblem.a = 1.0\nproblem.b = 1.0\n"
            "problem.sigma = 0.5\nproblem.g_bound = 0.01\noptimizer.id = nigt_adaptive\n"
            "run.T = 50\nrun.seeds = 3\n"
        )
        cfg = write(tmp_path / "adaptive.cfg", text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is False
        assert summary["invariant_violations"]
        first = summary["invariant_violations"][0]
        assert first["kind"] == "g_increment_above_bound" and first["t"] >= 1

    def test_honest_adaptive_run_exits_zero(self, tmp_path):
        cfg = write(tmp_path / "adaptive.cfg", ADAPTIVE_RUN)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    # the self-tuning rates divide by (G_t^2 (t+1)^3)^{1/7}: a bound whose
    # G_1^2 is not a positive normal float is refused, and an accumulator
    # that overflows later is a diverged run
    @pytest.mark.parametrize("g_bound, code, message", [
        ("1e-100", 1, "error: g_bound = 1e-100 is out of range for the self-tuning rates: "
                      "G_1^2 = 0.0 is not a positive normal float\n"),
        ("1e80", 1, "error: g_bound = 1e+80 is out of range for the self-tuning rates: "
                    "G_1^2 = inf is not a positive normal float\n"),
        ("1e76", 2, "error: seed 1 diverged at step 3: self-tuning rate overflows: "
                    "G_t^2 (t+1)^3 is inf at G_t = 2.46814e+153\n"),
        ("1e75", 2, "error: seed 1 diverged at step 64: self-tuning rate overflows: "
                    "G_t^2 (t+1)^3 is inf at G_t = 2.61937e+151\n"),
    ], ids=["1e-100", "1e80", "1e76", "1e75"])
    def test_self_tuning_bound_out_of_range(self, tmp_path, capsys, g_bound, code, message):
        text = ADAPTIVE_RUN.replace("run.T = 50\nrun.seeds = 3", "run.T = 100\nrun.seeds = 1,2")
        cfg = write(tmp_path / "adaptive.cfg", text + f"problem.g_bound = {g_bound}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err == message
        assert not out.exists()


    @pytest.mark.parametrize("theorem,opt", [("2", "sgd"), ("1", "nigt"), ("2", "nsgdm"), ("1", "heavy_ball")])
    def test_theorem_needs_its_own_optimizer(self, tmp_path, capsys, theorem, opt):
        # a tuned ceiling is only a guarantee for the method it was proved for
        text = BASE_RUN.replace("optimizer.id = nsgdm", f"optimizer.id = {opt}")
        cfg = write(tmp_path / "mismatch.cfg", text + f"optimizer.theorem = {theorem}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "theorem" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theorem, opt, message", [
        ("2", "sgd", "theorem = 2 requires optimizer.id = nigt, got 'sgd'"),
        ("1", "nigt_layerwise", "theorem = 1 requires optimizer.id = nsgdm, got 'nigt_layerwise'"),
        ("3", "sgd", "optimizer.theorem must be 1 or 2, got '3'"),
        ("adaptive", "nsgdm", "optimizer.theorem must be 1 or 2, got 'adaptive'"),
    ])
    def test_a_theorem_not_about_the_method_is_named_before_its_unread_keys(self, tmp_path, capsys, theorem, opt,
                                                                            message):
        # optimizer.beta (sgd reads none), optimizer.lr_scale without layers
        # and schedule.warmup_steps under the constant schedule go unread, but
        # a theorem that is not about the method is what the file is refused for
        text = BASE_RUN.replace("optimizer.id = nsgdm", f"optimizer.id = {opt}") + (
            f"optimizer.theorem = {theorem}\noptimizer.lr_scale = 2.0\nschedule.warmup_steps = 3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write(tmp_path / "mismatch.cfg", text)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_runaway_weight_norm_rate_exits_two_and_names_the_step(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", RUNAWAY_RATE + "optimizer.eta = 1.0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: seed 1 diverged at step 587: eta must be finite and >= 0, got inf\n")

    def test_charts_of_a_run_with_a_zero_gradient_norm(self, tmp_path):
        # the exact gradient of the flat sign-noise objective is 0 at every
        # step, so the log-scale gradient-norm chart has no point to draw
        text = (
            "problem.kind = sign_noise\nproblem.p = 0.25\noptimizer.id = heavy_ball\n"
            "optimizer.eta = 0.01\noptimizer.beta = 0.9\nrun.T = 300\nrun.seeds = 1,2,3\n"
            "output.formats = csv,json,svg\n"
        )
        cfg = write(tmp_path / "run.cfg", text)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        charts = sorted(out.glob("*.svg"))
        assert [p.name for p in charts] == ["eta.svg", "f_val.svg", "grad_norm.svg"]
        for chart in charts:
            assert ET.parse(chart).getroot().tag == "{http://www.w3.org/2000/svg}svg"

    def test_overflowing_run_charts_its_finite_points(self, tmp_path, capsys):
        # sgd at eta = 3 on w^2 / 2 doubles |w| each step, so the logged
        # values overflow to inf; the charts leave those points out
        text = ("problem.kind = noisy_quadratic\nproblem.dim = 1\nproblem.eigs = 1.0\noptimizer.id = sgd\n"
                "optimizer.eta = 3.0\nrun.T = 600\noutput.formats = csv,json,svg\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(write(tmp_path / "run.cfg", text)), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert "inf" in (out / "seed_0.csv").read_text()
        charts = sorted(out.glob("*.svg"))
        assert [p.name for p in charts] == ["eta.svg", "f_val.svg", "grad_norm.svg"]
        for chart in charts:
            assert "nan" not in chart.read_text() and ET.parse(chart).getroot().find(
                "{http://www.w3.org/2000/svg}polyline") is not None

    def test_an_overflowing_average_is_null_in_strict_json(self, tmp_path, capsys):
        # the same run: its average gradient norm overflows to inf
        text = ("problem.kind = noisy_quadratic\nproblem.dim = 1\nproblem.eigs = 1.0\noptimizer.id = sgd\n"
                "optimizer.eta = 3.0\nrun.T = 600\noutput.formats = json\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(write(tmp_path / "run.cfg", text)), "--out", str(out)]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert (summary["avg_grad_norm"], summary["stderr"], summary["pass"]) == (None, 0.0, True)

    def test_leftover_temp_directory_does_not_break_outputs(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", BASE_RUN)
        ref, out = tmp_path / "ref", tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(ref)]) == 0
        (out / "summary.json.tmp").mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "summary.json").read_bytes() == (ref / "summary.json").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == ["seed_1.csv", "summary.json", "summary.json.tmp"]


class TestOverridesAndJobs:
    def test_seed_count_and_master_overrides(self, tmp_path):
        text = BASE_RUN.replace("run.seeds = 1", "run.n_seeds = 1\nrun.master_seed = 0")
        cfg = write(tmp_path / "run.cfg", text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seeds", "3", "--master-seed", "10"]) == 0
        names = sorted(p.name for p in out.glob("seed_*.csv"))
        assert names == ["seed_10.csv", "seed_11.csv", "seed_12.csv"]

    # flags that did nothing: --jobs everywhere, --seeds on the commands
    # that draw from one master seed
    @pytest.mark.parametrize("command, flag", [
        ("run", "--jobs"), ("bounds", "--jobs"), ("certify", "--seeds"), ("igt-check", "--seeds"),
    ])
    def test_deleted_flags_exit_one(self, tmp_path, capsys, command, flag):
        cfg = write(tmp_path / "run.cfg", BASE_RUN)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), flag, "2"]) == 1
        assert capsys.readouterr().err == f"usage error: unrecognized arguments: {flag} 2\n"
        assert not out.exists()

    def test_the_deleted_plot_command_exits_one(self, tmp_path, capsys):
        # run writes the charts: rerun with svg in output.formats
        assert main(["plot", str(tmp_path), "--out", str(tmp_path / "charts")]) == 1
        assert capsys.readouterr() == ("", "usage error: argument command: invalid choice: 'plot' (choose from "
                                           "'run', 'certify', 'igt-check', 'sweep', 'bounds')\n")
        assert not (tmp_path / "charts").exists()


# problem sections of three kinds; each probe sets one key to a NaN or inf,
# or to a finite value whose declared constants overflow
TRIG_KEYS = {"kind": "trig_bowl", "dim": "2", "a": "1.0", "b": "1.0", "sigma": "0.5"}
LS_KEYS = {"kind": "streaming_least_squares", "dim": "2", "cov_eigs": "1.0,2.0", "label_noise": "0.5"}
QUAD_KEYS = {"kind": "noisy_quadratic", "dim": "2", "eigs": "1.0,2.0", "sigma": "0.5"}
RUN_KEYS = "optimizer.id = nigt\noptimizer.eta = 0.01\nrun.T = 10\nrun.n_seeds = 2\n"
TRIG_OVERFLOW = "a b^2, a b^3 and a sum(1 - cos(b w1)) must be finite, got "

# (command, problem section, key, value, what stderr names)
NONFINITE_PROBES = [
    ("run", TRIG_KEYS, "sigma", "nan", "sigma must be finite and >= 0, got nan"),
    ("certify", TRIG_KEYS, "sigma", "nan", "sigma must be finite and >= 0, got nan"),
    ("run", TRIG_KEYS, "L", "nan", "L must be finite and >= 0, got nan"),
    ("certify", TRIG_KEYS, "L", "nan", "L must be finite and >= 0, got nan"),
    ("certify", TRIG_KEYS, "R", "nan", "R must be finite, got nan"),
    ("certify", TRIG_KEYS, "rho", "inf", "rho must be finite and >= 0, got inf"),
    ("run", TRIG_KEYS, "g_bound", "nan", "g_bound must be in (0, +inf], got nan"),
    ("run", LS_KEYS, "label_noise", "nan", "label_noise must be finite and >= 0, got nan"),
    ("run", TRIG_KEYS, "a", "inf", "a and b must be positive and finite, got a=inf, b=1.0"),
    ("run", TRIG_KEYS, "a", "nan", "a and b must be positive and finite, got a=nan, b=1.0"),
    ("run", QUAD_KEYS, "eigs", "1.0,nan", "eigenvalues must be positive and finite, got [1.0, nan]"),
    ("run", QUAD_KEYS, "eigs", "1.0,inf", "eigenvalues must be positive and finite, got [1.0, inf]"),
    ("run", TRIG_KEYS, "b", "1e200", TRIG_OVERFLOW + "a=1.0, b=1e+200"),
    ("certify", TRIG_KEYS, "b", "1e200", TRIG_OVERFLOW + "a=1.0, b=1e+200"),
    ("run", TRIG_KEYS, "a", "1e308", TRIG_OVERFLOW + "a=1e+308, b=1.0"),
    ("run", LS_KEYS, "label_noise", "1e200",
     "sigma^2 and R at w1 must be finite, got cov_eigs=[1.0, 2.0], label_noise=1e+200"),
    ("run", LS_KEYS, "label_noise", "1e154",
     "sigma^2 and R at w1 must be finite, got cov_eigs=[1.0, 2.0], label_noise=1e+154"),
    ("run", {**QUAD_KEYS, "w1": "10.0,1.0"}, "eigs", "1e308,1.0",
     "R = sum(eigs w1^2) / 2 must be finite, got eigs=[1e+308, 1.0], w1=[10.0, 1.0]"),
    ("certify", LS_KEYS, "w1", "1.0,inf", "w1 must be 2 finite numbers, got [1.0, inf]"),
    ("run", LS_KEYS, "w1", "nan,1.0", "w1 must be 2 finite numbers, got [nan, 1.0]"),
    ("certify", LS_KEYS, "w_star", "-inf,0.0", "w_star must be 2 finite numbers, got [-inf, 0.0]"),
    ("run", LS_KEYS, "w_star", "1.0,2.0,3.0", "w_star must be 2 finite numbers, got [1.0, 2.0, 3.0]"),
]


class TestNonFiniteValues:
    """A NaN or inf parameter or constant is a config error: once a NaN
    constant passed certification (every ``x > nan`` is False), a NaN sigma
    crashed the uniform draw, and NaN or inf parameters ran to a NaN
    objective or to a divergence at step 1. So is a huge parameter whose
    constants overflow, which once printed Python's bare overflow text."""

    @pytest.mark.parametrize("command, keys, key, value, message", NONFINITE_PROBES,
                             ids=[f"{p[0]}-{p[2]}={p[3]}" for p in NONFINITE_PROBES])
    def test_exits_one_naming_the_value(self, tmp_path, capsys, command, keys, key, value, message):
        problem = "".join(f"problem.{k} = {v}\n" for k, v in {**keys, key: value}.items())
        cfg = write(tmp_path / "p.cfg", problem + (RUN_KEYS if command == "run" else ""))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: invalid problem section: {message}\n"
        assert not out.exists()


# one small experiment per subcommand that takes --master-seed
SEEDED = {
    "run": BASE_RUN.replace("problem.sigma = 0.0", "problem.sigma = 0.5").replace("run.seeds = 1", "run.n_seeds = 2"),
    "certify": "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,4.0\n"
               "problem.sigma = 1.0\ncertify.n_pairs = 100\n",
    "igt-check": "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,4.0\n"
                 "problem.sigma = 1.0\nigt_check.checkpoints = 1,4\nigt_check.n_runs = 1000\n",
    # the grid sets the rate, and only run writes a choice of formats
    "sweep": BASE_RUN.replace("problem.sigma = 0.0", "problem.sigma = 0.5").replace("run.seeds = 1", "run.n_seeds = 2")
             .replace("optimizer.eta = 0.1\n", "").replace("output.formats = csv,json\n", "")
             + "sweep.eta_grid = 0.01,0.1\n",
    "bounds": "problem.kind = trig_bowl\nproblem.dim = 2\nproblem.a = 1.0\nproblem.b = 1.0\n"
              "problem.sigma = 0.5\noptimizer.id = nsgdm\nrun.T_grid = 20\nrun.n_seeds = 2\n",
}


@pytest.mark.parametrize("command", SEEDED)
def test_master_seed_flag_takes_effect(tmp_path, capsys, command):
    def outputs(text, *flags):
        cfg = write(tmp_path / "run.cfg", text)
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        code = main([command, "--config", str(cfg), "--out", str(out), *flags])
        return code, capsys.readouterr().out, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    text = SEEDED[command]
    at_five = outputs(text, "--master-seed", "5")
    assert outputs(text, "--master-seed", "0") != at_five
    assert outputs(text + "run.master_seed = 5\n") == at_five


# one refusal per merged error type, each with the stderr and exit code it
# had when every check raised its own exception class (the self-tuning
# bound is pinned in TestRunCommand.test_self_tuning_bound_out_of_range),
# but for a cover gap, which RunConfig now refuses as the run is built, and
# a scale that is not > 0, now refused with the other non-finite ones
MERGED_CHECKS = [
    ("run", {**QUAD_KEYS, "eigs": "1.0,2.0,3.0"}, RUN_KEYS,
     "config error: invalid problem section: expected 2 eigenvalues, got shape (3,)\n"),
    ("run", {**QUAD_KEYS, "eigs": "1.0,-2.0"}, RUN_KEYS,
     "config error: invalid problem section: eigenvalues must be positive and finite, got [1.0, -2.0]\n"),
    ("run", {"kind": "sign_noise", "p": "0.7"}, RUN_KEYS,
     "config error: invalid problem section: p must lie in (0, 1/2), got 0.7\n"),
    ("run", {**TRIG_KEYS, "dim": "4"}, RUN_KEYS.replace("nigt", "nigt_layerwise") + "optimizer.layers = 0,2,3\n",
     "config error: invalid run configuration: ranges cover [0, 3) but dim is 4\n"),
    ("run", TRIG_KEYS, RUN_KEYS.replace("nigt", "nigt_layerwise") + "optimizer.layers = 0,1,2\n"
     "optimizer.lr_scale = 1.0,-1.0\n", "config error: invalid layer partition: lr scale must be finite and > 0, got -1.0\n"),
    ("igt-check", {**QUAD_KEYS, "rho": "1.0"}, "igt_check.n_runs = 1000\n",
     "error: moment identity requires a constant Hessian; noisy_quadratic(d=2,eigs=[1.0;2.0],sigma=0.5) "
     "declares rho=1.0\n"),
]


@pytest.mark.parametrize("command, keys, rest, message", MERGED_CHECKS,
                         ids=["three_eigs", "negative_eig", "sign_p", "layers", "lr_scale", "igt_rho"])
def test_merged_checks_keep_their_stderr(tmp_path, capsys, command, keys, rest, message):
    problem = "".join(f"problem.{k} = {v}\n" for k, v in keys.items())
    cfg = write(tmp_path / "p.cfg", problem + rest)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def problem_lines(keys: dict, **changes) -> str:
    return "".join(f"problem.{k} = {v}\n" for k, v in {**keys, **changes}.items())


def quad_of_dim(dim: int) -> str:
    return problem_lines(QUAD_KEYS, dim=dim, eigs=",".join(["1.0"] * dim))


# the size probes of the other sections: (command, file, what stderr says)
PER_POINT = CERT_N_SIGMA // 20  # sigma's noise draws at each of its 20 points
SIZE_PROBES = [
    ("igt-check", QUAD_KEYS, "igt_check.n_runs = 10000000000000\n",
     f"error: n_runs = 10000000000000 is above the limit of {MAX_SEEDS}"),
    ("igt-check", QUAD_KEYS, f"igt_check.n_runs = {MAX_SEEDS + 1}\n",
     f"error: n_runs = {MAX_SEEDS + 1} is above the limit of {MAX_SEEDS}"),
    ("igt-check", QUAD_KEYS, "igt_check.n_runs = 1000\nigt_check.checkpoints = 10000000000000\n",
     f"error: n_runs = 1000 times max(checkpoints) = 10000000000000 is 10000000000000000 cells, "
     f"above the limit of {MAX_IGT_CELLS}"),
    ("igt-check", QUAD_KEYS, f"igt_check.n_runs = 1000\nigt_check.checkpoints = 1,{MAX_IGT_CELLS // 1000 + 1}\n",
     f"error: n_runs = 1000 times max(checkpoints) = {MAX_IGT_CELLS // 1000 + 1} is "
     f"{(MAX_IGT_CELLS // 1000 + 1) * 1000} cells, above the limit of {MAX_IGT_CELLS}"),
    ("igt-check", None, f"{quad_of_dim(MAX_IGT_CELLS // MAX_SEEDS + 1)}igt_check.n_runs = {MAX_SEEDS}\n",
     f"error: n_runs = {MAX_SEEDS} times dim = {MAX_IGT_CELLS // MAX_SEEDS + 1} is "
     f"{MAX_SEEDS * (MAX_IGT_CELLS // MAX_SEEDS + 1)} cells, above the limit of {MAX_IGT_CELLS}"),
    ("certify", QUAD_KEYS, "certify.n_pairs = 10000000000000\n",
     f"error: n_pairs = 10000000000000 is above the limit of {MAX_SEEDS}"),
    ("certify", QUAD_KEYS, f"certify.n_pairs = {MAX_SEEDS + 1}\n",
     f"error: n_pairs = {MAX_SEEDS + 1} is above the limit of {MAX_SEEDS}"),
    ("certify", None,
     problem_lines(TRIG_KEYS, dim=MAX_CERT_CELLS // MAX_SEEDS + 1) + f"certify.n_pairs = {MAX_SEEDS}\n",
     f"error: max(n_pairs = {MAX_SEEDS}, {PER_POINT} noise draws) times dim = {MAX_CERT_CELLS // MAX_SEEDS + 1} is "
     f"{MAX_SEEDS * (MAX_CERT_CELLS // MAX_SEEDS + 1)} cells, above the limit of {MAX_CERT_CELLS}"),
    ("certify", None, problem_lines(TRIG_KEYS, dim=MAX_CERT_CELLS // PER_POINT + 1) + "certify.n_pairs = 100\n",
     f"error: max(n_pairs = 100, {PER_POINT} noise draws) times dim = {MAX_CERT_CELLS // PER_POINT + 1} is "
     f"{PER_POINT * (MAX_CERT_CELLS // PER_POINT + 1)} cells, above the limit of {MAX_CERT_CELLS}"),
    ("bounds", None, problem_lines(TRIG_KEYS, dim=MAX_CERT_CELLS // PER_POINT + 1) + "optimizer.id = nsgdm\n"
     "run.T_grid = 1,2,3\nrun.n_seeds = 2\n",
     f"error: max(n_pairs = 300, {PER_POINT} noise draws) times dim = {MAX_CERT_CELLS // PER_POINT + 1} is "
     f"{PER_POINT * (MAX_CERT_CELLS // PER_POINT + 1)} cells, above the limit of {MAX_CERT_CELLS}"),
    ("run", None, problem_lines(TRIG_KEYS, dim=1000000) + "optimizer.id = nsgdm\noptimizer.eta = 0.01\n"
     f"run.T = 1\nrun.n_seeds = {MAX_SEEDS}\n",
     f"config error: run.n_seeds asks for {MAX_SEEDS} seeds of problem.dim = 1000000, {MAX_SEEDS * 1000000} state "
     f"cells, above the limit of {MAX_STATE_CELLS}"),
    ("bounds", None, problem_lines(TRIG_KEYS, dim=MAX_STATE_CELLS // MAX_SEEDS + 1) + "optimizer.id = nsgdm\n"
     f"run.T_grid = 1\nrun.n_seeds = {MAX_SEEDS}\n",
     f"config error: run.n_seeds asks for {MAX_SEEDS} seeds of problem.dim = {MAX_STATE_CELLS // MAX_SEEDS + 1}, "
     f"{MAX_SEEDS * (MAX_STATE_CELLS // MAX_SEEDS + 1)} state cells, above the limit of {MAX_STATE_CELLS}"),
    ("run", None, problem_lines(TRIG_KEYS, dim=MAX_STATE_CELLS + 1) + RUN_KEYS,
     f"config error: problem.dim = {MAX_STATE_CELLS + 1} is above the limit of {MAX_STATE_CELLS}"),
    ("certify", None, problem_lines(QUAD_KEYS, dim=10**9),
     f"config error: problem.dim = {10**9} is above the limit of {MAX_STATE_CELLS}"),
]


class TestSizeLimits:
    """A run whose seed count or log (steps times seeds) is over its limit
    is refused before the seeds are built; the runner is never reached."""

    @pytest.fixture
    def runner(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the runner was reached")

        for module in (cli, harness):
            monkeypatch.setattr(module, "run", reached)
        monkeypatch.setattr(harness, "RngStream", reached)  # igt_moment_check's first draw
        monkeypatch.setattr(problems, "ball_pairs", reached)  # certify_constants' first draw

    SEEDS = f"seeds, above the limit of {MAX_SEEDS}"
    CELLS = f"log cells, above the limit of {MAX_LOG_CELLS}"

    @pytest.mark.parametrize("command, rest, flags, message", [
        ("run", f"run.T = {MAX_LOG_CELLS + 1}\nrun.n_seeds = 1\n", [],
         f"run.T = {MAX_LOG_CELLS + 1} over 1 seeds is {MAX_LOG_CELLS + 1} {CELLS}"),
        ("run", f"run.T = 1\nrun.n_seeds = {MAX_SEEDS + 1}\n", [], f"run.n_seeds asks for {MAX_SEEDS + 1} {SEEDS}"),
        ("sweep", "run.T = 1\n", ["--seeds", str(MAX_SEEDS + 1)], f"--seeds asks for {MAX_SEEDS + 1} {SEEDS}"),
        ("sweep", f"run.T = {MAX_LOG_CELLS // 2}\nrun.seeds = 1,2,3\n", [],
         f"run.T = {MAX_LOG_CELLS // 2} over 3 seeds is {MAX_LOG_CELLS // 2 * 3} {CELLS}"),
        ("bounds", f"run.T_grid = 10,{MAX_LOG_CELLS // 2 + 1}\nrun.n_seeds = 2\n", [],
         f"max(run.T_grid) = {MAX_LOG_CELLS // 2 + 1} over 2 seeds is {(MAX_LOG_CELLS // 2 + 1) * 2} {CELLS}"),
    ], ids=["run_T", "run_n_seeds", "seeds_flag", "seed_list", "bounds_T_grid"])
    def test_one_above_the_limit_exits_one(self, tmp_path, capsys, runner, command, rest, flags, message):
        problem = "".join(f"problem.{k} = {v}\n" for k, v in TRIG_KEYS.items())
        opt = "optimizer.id = nsgdm\n" + ("optimizer.eta = 0.01\n" if command == "run" else "")
        cfg = write(tmp_path / "p.cfg", problem + opt + rest)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rest", [f"run.T = {MAX_LOG_CELLS}\nrun.n_seeds = 1\n",
                                      f"run.T = 1\nrun.n_seeds = {MAX_SEEDS}\n",
                                      f"run.T = 1\nrun.n_seeds = {MAX_SEEDS}\n"
                                      f"problem.dim = {MAX_STATE_CELLS // MAX_SEEDS}\n"],
                             ids=["T", "n_seeds", "n_seeds_times_dim"])
    def test_at_the_limit_runs(self, tmp_path, runner, rest):
        problem = "".join(f"problem.{k} = {v}\n" for k, v in TRIG_KEYS.items() if f"problem.{k} " not in rest)
        cfg = write(tmp_path / "p.cfg", problem + "optimizer.id = nsgdm\noptimizer.eta = 0.01\n" + rest)
        with pytest.raises(AssertionError, match="the runner was reached"):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("command, keys, rest, message", SIZE_PROBES,
                             ids=["n_runs_huge", "n_runs", "checkpoints_huge", "n_runs_times_checkpoint",
                                  "n_runs_times_dim", "n_pairs_huge", "n_pairs", "n_pairs_times_dim",
                                  "draws_times_dim", "bounds_draws_times_dim", "run_seeds_times_dim",
                                  "bounds_seeds_times_dim",
                                  "dim", "dim_huge"])
    def test_section_one_above_the_limit_exits_one(self, tmp_path, capsys, runner, command, keys, rest, message):
        cfg = write(tmp_path / "p.cfg", ("" if keys is None else problem_lines(keys)) + rest)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("igt-check", problem_lines(QUAD_KEYS) + f"igt_check.n_runs = {MAX_SEEDS}\n"),
        ("igt-check", problem_lines(QUAD_KEYS) + f"igt_check.n_runs = 1000\n"
         f"igt_check.checkpoints = {MAX_IGT_CELLS // 1000}\n"),
        ("igt-check", quad_of_dim(MAX_IGT_CELLS // MAX_SEEDS) + f"igt_check.n_runs = {MAX_SEEDS}\n"),
        ("certify", problem_lines(QUAD_KEYS) + f"certify.n_pairs = {MAX_SEEDS}\n"),
        ("certify", problem_lines(TRIG_KEYS, dim=MAX_CERT_CELLS // MAX_SEEDS) + f"certify.n_pairs = {MAX_SEEDS}\n"),
        ("certify", problem_lines(TRIG_KEYS, dim=MAX_CERT_CELLS // PER_POINT) + "certify.n_pairs = 100\n"),
        ("bounds", problem_lines(TRIG_KEYS, dim=MAX_STATE_CELLS // MAX_SEEDS) + "optimizer.id = nsgdm\n"
         f"run.T_grid = 1\nrun.n_seeds = {MAX_SEEDS}\n"),
        ("bounds", problem_lines(TRIG_KEYS, dim=MAX_CERT_CELLS // PER_POINT) + "optimizer.id = nsgdm\n"
         "run.T_grid = 1,2,3\nrun.n_seeds = 2\n"),
    ], ids=["n_runs", "n_runs_times_checkpoint", "n_runs_times_dim", "n_pairs", "n_pairs_times_dim",
            "draws_times_dim", "bounds_seeds_times_dim", "bounds_draws_times_dim"])
    def test_section_at_the_limit_runs(self, tmp_path, runner, command, text):
        cfg = write(tmp_path / "p.cfg", text)
        with pytest.raises(AssertionError, match="the runner was reached"):
            main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])

    def test_dim_at_the_limit_is_built(self, tmp_path, capsys, monkeypatch):
        def built(dim, a, b, sigma=0.0, w1=None):
            raise AssertionError(f"built at dim {dim}")

        monkeypatch.setitem(problems.PROBLEM_KINDS, "trig_bowl", built)
        cfg = write(tmp_path / "p.cfg", problem_lines(TRIG_KEYS, dim=MAX_STATE_CELLS) + RUN_KEYS)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: invalid problem section: built at dim {MAX_STATE_CELLS}\n"


# radii that certify nothing: the pairs coincide, a ratio is NaN, or a
# separation or its square overflows (w1 = 2.0, so the floor is ulp(2) / 1e-6)
RADIUS_RANGE = f"[{math.ulp(2.0) / MIN_SEP:.6g}, {math.sqrt(sys.float_info.max) / 2:.6g}]"


class TestCertifyRadius:
    @pytest.mark.parametrize("radius, shown", [("-10", "-10.0"), ("0", "0.0"), ("5e-324", "5e-324"),
                                               ("nan", "nan"), ("inf", "inf"), ("1e308", "1e+308")])
    def test_radius_outside_the_range_exits_one(self, tmp_path, capsys, radius, shown):
        cfg = write(tmp_path / "c.cfg",
                    problem_lines(TRIG_KEYS) + f"certify.n_pairs = 100\ncertify.radius = {radius}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: radius must lie in {RADIUS_RANGE}, got {shown}\n")
        assert not out.exists()

    def test_ball_that_rounds_to_w1_exits_one(self, tmp_path, capsys):
        # every draw of a radius-10 ball around 1e20 rounds to 1e20: the
        # pairs were skipped forever
        cfg = write(tmp_path / "c.cfg", problem_lines(TRIG_KEYS, w1="1e20,1e20") + "certify.n_pairs = 100\n")
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        lo, hi = math.ulp(1e20) / MIN_SEP, math.sqrt(sys.float_info.max) / 2
        assert capsys.readouterr().err == f"error: radius must lie in [{lo:.6g}, {hi:.6g}], got 10.0\n"

    @pytest.mark.parametrize("radius", ["0.5", "10.0", "1000.0", None])
    def test_shipped_radii_certify(self, tmp_path, capsys, radius):
        text = problem_lines(TRIG_KEYS) + "certify.n_pairs = 100\n"
        cfg = write(tmp_path / "c.cfg", text + ("" if radius is None else f"certify.radius = {radius}\n"))
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["radius"] == float(radius or 10.0)


class TestOneRunPerDirectory:
    """A run refuses a directory holding a seed CSV it will not write, so a
    results directory holds one run; it deletes nothing."""

    @staticmethod
    def _run(tmp_path, n_seeds, eta, out, formats="csv,json,svg"):
        text = BASE_RUN.replace("optimizer.eta = 0.1", f"optimizer.eta = {eta}").replace(
            "run.seeds = 1", f"run.n_seeds = {n_seeds}").replace("csv,json", formats)
        return main(["run", "--config", str(write(tmp_path / f"run{n_seeds}.cfg", text)), "--out", str(out)])

    @pytest.mark.parametrize("formats", ["csv,json,svg", "json"])
    def test_a_run_with_fewer_seeds_is_refused(self, tmp_path, capsys, formats):
        mix = tmp_path / "mix"
        assert self._run(tmp_path, 4, 0.01, mix) == 0
        before = {p.name: p.read_bytes() for p in mix.iterdir()}
        assert self._run(tmp_path, 2, 0.5, mix, formats) == 1
        first = "seed_2.csv" if formats.startswith("csv") else "seed_0.csv"
        assert capsys.readouterr() == ("", f"config error: {mix} holds {first}, a seed CSV of another run: "
                                           "give each run its own directory\n")
        assert {p.name: p.read_bytes() for p in mix.iterdir()} == before

    def test_a_rerun_of_the_same_seeds_is_allowed(self, tmp_path):
        out = tmp_path / "out"
        assert self._run(tmp_path, 2, 0.01, out) == 0
        assert self._run(tmp_path, 2, 0.5, out) == 0
        assert self._run(tmp_path, 2, 0.5, tmp_path / "fresh") == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}


class TestUnwritableOutput:
    """An output directory that cannot be made or written is one config
    error line, exit 1, not a traceback."""

    def test_run_into_an_existing_file(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", BASE_RUN)
        out = write(tmp_path / "taken", "")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"config error: cannot write {out / 'seed_1.csv'}: "
                                           f"[Errno 17] File exists: '{out}'\n")
        assert out.read_text() == ""

    @pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs a /proc file system")
    def test_certify_into_proc(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", problem_lines(QUAD_KEYS) + "certify.n_pairs = 100\n")
        assert main(["certify", "--config", str(cfg), "--out", "/proc/nope"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["passed"] is True  # the report is printed before it is written
        assert err == "config error: cannot write /proc/nope/certify.json: [Errno 2] No such file or directory: " \
                      "'/proc/nope'\n"

    def test_temp_file_is_removed_when_the_rename_fails(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", problem_lines(QUAD_KEYS) + "certify.n_pairs = 100\n")
        out = tmp_path / "out"
        (out / "certify.json").mkdir(parents=True)  # a directory where the report goes
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / 'certify.json'}: [Errno 21] Is a directory")
        assert [p.name for p in out.iterdir()] == ["certify.json"]

    @pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs a /proc file system")
    @pytest.mark.parametrize("formats, first", [("csv,json,svg", "seed_1.csv"), ("svg", "grad_norm.svg")],
                             ids=["csv", "svg"])
    def test_streamed_files_into_proc(self, tmp_path, capsys, formats, first):
        cfg = write(tmp_path / "run.cfg", BASE_RUN.replace("csv,json", formats))
        argv = ["run", "--config", str(cfg), "--out", "/proc/nope"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"config error: cannot write /proc/nope/{first}: [Errno 2] No such file "
                                           "or directory: '/proc/nope'\n")

    def test_seed_csv_temp_file_is_removed_when_the_rename_fails(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", BASE_RUN)
        out = tmp_path / "out"
        (out / "seed_1.csv").mkdir(parents=True)  # a directory where the seed CSV goes
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot write {out / 'seed_1.csv'}: [Errno 21] "
                                                  "Is a directory")
        assert [p.name for p in out.iterdir()] == ["seed_1.csv"]

    def test_a_full_disk_mid_stream_is_one_cannot_write_line(self, tmp_path, capsys, monkeypatch):
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        streamed = reports.record_to_csv
        monkeypatch.setattr(reports, "record_to_csv", lambda rec, fh: streamed(rec, FailAfter(fh, 1, full)))
        cfg = write(tmp_path / "run.cfg", BASE_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"config error: cannot write {out / 'seed_1.csv'}: [Errno 28] "
                                           "No space left on device\n")
        assert list(out.iterdir()) == []


class FailAfter:
    """A text handle that passes ``n`` writes on to ``fh``, then raises ``error``."""

    def __init__(self, fh, n: int, error: BaseException):
        self.fh, self.n, self.error = fh, n, error

    def write(self, text: str) -> int:
        if self.n == 0:
            raise self.error
        self.n -= 1
        return self.fh.write(text)


def logged_record(seed: int, T: int) -> TrajectoryRecord:
    """T steps with every column logged: a constant rate, the rest uniform draws."""
    rng = np.random.default_rng(seed)
    columns = {name: rng.random(T) for name in ("alpha", "m_norm", "f_val", "grad_norm", "mhat_err",
                                                 "descent_residual")}
    return TrajectoryRecord(problem_id="p", optimizer_id="o", seed=seed, eta=np.full(T, 0.01),
                            no_move=np.zeros(T, dtype=bool), **columns)


def traced_peak(write) -> int:
    """The tracemalloc peak of ``write()``, above what was held before it."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedOutput:
    """Seed CSVs and charts are written through one atomic handle as they are
    formatted: a chunk of rows, or one polyline, at a time."""

    def test_the_csv_peak_does_not_grow_with_the_horizon(self, tmp_path):
        peaks = []
        for T in (2_000, 20_000):
            rec = logged_record(1, T)

            def write_csv():
                with open_atomic(tmp_path / f"seed_{T}.csv") as fh:
                    record_to_csv(rec, fh)

            peaks.append(traced_peak(write_csv))
        # ten times the rows, formatted a chunk at a time
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("T", [1_000, 4_000])
    def test_the_charts_hold_a_fixed_number_of_bytes_per_point(self, tmp_path, T):
        recs = [logged_record(seed, T) for seed in (1, 2)]
        peak = traced_peak(lambda: write_run_outputs(recs, tmp_path, ("svg",), {}))
        # a chart at a time, of the seeds' polylines and the mean line: about
        # 50 B a point, where a chart's whole text once took about 90 B
        assert peak <= 32 * 1024 + 56 * T * (len(recs) + 1)

    @pytest.mark.parametrize("error", [RuntimeError("mid-stream"), KeyboardInterrupt()], ids=["error", "interrupt"])
    def test_an_error_mid_stream_leaves_no_file(self, tmp_path, monkeypatch, error):
        monkeypatch.setattr(reports, "CSV_CHUNK_ROWS", 10)
        target = tmp_path / "out" / "seed_1.csv"
        with pytest.raises(type(error)):
            with open_atomic(target) as fh:
                record_to_csv(logged_record(1, 100), FailAfter(fh, 3, error))  # the header and two chunks
        assert list(target.parent.iterdir()) == []


class TestBytesPerCell:
    """Each cell limit is the memory budget over a constant in ``core``: no
    command's tracemalloc peak grows by more than that many bytes per cell
    between two small sizes. An untraced run first makes the one-time
    allocations (lazy imports, caches), which no cell costs."""

    @staticmethod
    def growth_per_cell(tmp_path, command: str, files) -> float:
        """The peak's growth per cell from the first (cells, file) pair of
        ``files`` to the second."""
        def peak(text, traced=True):
            cfg = write(tmp_path / "exp.cfg", text)
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / f"out_{len(codes)}")]
            call = lambda: codes.append(main(argv))
            return traced_peak(call) if traced else call()

        codes = []
        (small_cells, small), (large_cells, large) = files
        peak(small, traced=False)
        growth = (peak(large) - peak(small)) / (large_cells - small_cells)
        assert codes == [0, 0, 0]
        return growth

    def test_run_per_log_cell(self, tmp_path, monkeypatch):
        # one seed, whose charts cost the most per step; blocks of 42 steps,
        # where the default block at d = 4 holds thousands of tiny arrays
        monkeypatch.setattr(harness, "BLOCK_BYTES", 4096)
        files = [(T, TRIG_4 + f"optimizer.id = nigt\noptimizer.eta = 0.01\nrun.T = {T}\nrun.seeds = 1\n"
                          "output.formats = csv,json,svg\n") for T in (1_000, 3_000)]
        assert self.growth_per_cell(tmp_path, "run", files) <= LOG_CELL_BYTES

    @pytest.mark.parametrize("opt", harness.OPTIMIZER_IDS)
    def test_run_per_state_cell(self, tmp_path, opt):
        rate = "" if opt == "nigt_adaptive" else "optimizer.eta = 0.01\n"
        files = [(d, problem_lines(TRIG_KEYS, dim=d, g_bound=10.0) + f"optimizer.id = {opt}\n{rate}run.T = 3\n"
                     "run.seeds = 1\noutput.formats = json\n") for d in (10_000, 100_000)]
        assert self.growth_per_cell(tmp_path, "run", files) <= STATE_CELL_BYTES

    def test_bounds_per_log_cell(self, tmp_path, monkeypatch):
        # its horizons run one after another, so the longest one's log counts;
        # per state cell, its containment certification's noise draws
        # (1,000 per dimension) would count instead
        monkeypatch.setattr(harness, "BLOCK_BYTES", 4096)
        files = [(20 * T, TRIG_4 + f"optimizer.id = nsgdm\nrun.T_grid = {T}\nrun.n_seeds = 20\n") for T in (500, 1_000)]
        assert self.growth_per_cell(tmp_path, "bounds", files) <= LOG_CELL_BYTES

    def test_igt_check_per_cell(self, tmp_path):
        files = [(1_000 * d, quad_of_dim(d) + "igt_check.n_runs = 1000\nigt_check.checkpoints = 1,3\n")
                 for d in (10, 100)]
        assert self.growth_per_cell(tmp_path, "igt-check", files) <= IGT_CELL_BYTES

    def test_certify_per_cell(self, tmp_path):
        # more pairs than noise draws at a point: the pairs are the dearer cells
        files = [(3_000 * d, problem_lines(TRIG_KEYS, dim=d) + "certify.n_pairs = 3000\n") for d in (10, 100)]
        assert self.growth_per_cell(tmp_path, "certify", files) <= CERT_CELL_BYTES


class TestCertifyCommand:
    def test_valid_constants_exit_zero(self, tmp_path, capsys):
        text = (
            "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,4.0\n"
            "problem.sigma = 1.0\ncertify.n_pairs = 300\n"
        )
        cfg = write(tmp_path / "c.cfg", text)
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert 3.5 <= report["L_hat"] <= 4.0 * 1.001
        assert report["rho_hat"] <= report["fd_slack"]

    def test_sign_noise_l_hat_is_zero(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg",
                    "problem.kind = sign_noise\nproblem.p = 0.25\ncertify.n_pairs = 100\n")
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["L_hat"] == 0.0

    def test_underdeclared_l_exits_two(self, tmp_path, capsys):
        text = (
            "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,4.0\n"
            "problem.sigma = 1.0\nproblem.L = 2.0\ncertify.n_pairs = 200\n"
        )
        cfg = write(tmp_path / "c.cfg", text)
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False and report["failures"]


class TestIgtCheckCommand:
    def test_three_checkpoints_pass(self, tmp_path):
        text = (
            "problem.kind = noisy_quadratic\nproblem.dim = 4\nproblem.eigs = 0.5,1.0,2.0,4.0\n"
            "problem.sigma = 1.0\nigt_check.checkpoints = 1,10,100\nigt_check.n_runs = 2000\n"
            "run.master_seed = 5\n"
        )
        cfg = write(tmp_path / "igt.cfg", text)
        out = tmp_path / "o"
        assert main(["igt-check", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "igt_check.csv").read_text().strip().split("\n")
        assert rows[0] == "k,bias_norm,variance,target_variance,bias_limit,n_runs,passed"
        assert len(rows) == 4
        payload = json.loads((out / "igt_check.json").read_text())
        for cp, k, target in zip(payload["checkpoints"], (1, 10, 100), (1.0, 0.1, 0.01)):
            assert cp["k"] == k
            assert cp["target_variance"] == pytest.approx(target)
            assert 0.9 * target <= cp["variance"] <= 1.1 * target

    def test_requires_constant_hessian_kind(self, tmp_path):
        cfg = write(tmp_path / "igt.cfg",
                    "problem.kind = trig_bowl\nproblem.dim = 2\nproblem.a = 1.0\nproblem.b = 1.0\n")
        assert main(["igt-check", "--config", str(cfg)]) == 1


DIVERGING_SGD = """\
problem.kind = noisy_quadratic
problem.dim = 2
problem.eigs = 1.0,4.0
problem.sigma = 0.1
optimizer.id = sgd
run.T = 1000
run.seeds = 1,2
"""


# weight-norm scaling at a base rate of 1 lets |w| grow until the rate
# overflows: seed 1 diverges at step 587
RUNAWAY_RATE = """\
problem.kind = trig_bowl
problem.dim = 2
problem.a = 1.0
problem.b = 1.0
problem.sigma = 0.5
optimizer.id = nsgdm
schedule.weight_norm_scaling = true
run.T = 3000
run.seeds = 1
"""


class TestSweepCommand:
    def test_diverging_rate_is_recorded_and_ranked_last(self, tmp_path):
        # at eta0 = 1 the iterate grows like 3^t on the eigenvalue-4 axis
        cfg = write(tmp_path / "s.cfg", DIVERGING_SGD)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "eta0,final_grad_norm"
        assert len(rows) == 7 and rows[-1] == "1,"
        payload = json.loads((out / "sweep.json").read_text())
        last = payload["rows"][-1]
        assert last["eta0"] == 1.0 and last["final_grad_norm"] is None
        assert 1 < last["diverged_at"] <= 1000
        assert all(r["diverged_at"] is None for r in payload["rows"][:-1])
        assert payload["best_eta0"] == payload["rows"][0]["eta0"] != 1.0

    def test_runaway_weight_norm_rate_is_recorded(self, tmp_path):
        cfg = write(tmp_path / "s.cfg", RUNAWAY_RATE + "sweep.eta_grid = 0.01,1\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert [(r["eta0"], r["diverged_at"]) for r in payload["rows"]] == [(0.01, None), (1.0, 587)]
        assert payload["best_eta0"] == 0.01
        assert (out / "sweep.csv").read_text().endswith("\n1,\n")

    def test_paper_default_grid_emits_six_rows(self, tmp_path):
        text = (
            "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,1.0\n"
            "problem.sigma = 0.0\nproblem.w1 = 2.0,1.0\noptimizer.id = nsgdm\n"
            "optimizer.beta = 0.0\nrun.T = 50\nrun.seeds = 1\n"
        )
        cfg = write(tmp_path / "s.cfg", text)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "eta0,final_grad_norm"
        assert len(rows) == 7
        payload = json.loads((out / "sweep.json").read_text())
        assert sorted(r["eta0"] for r in payload["rows"]) == [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]

    def test_explicit_grid(self, tmp_path):
        text = (
            "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,1.0\n"
            "problem.sigma = 0.0\nproblem.w1 = 2.0,1.0\noptimizer.id = nsgdm\n"
            "optimizer.beta = 0.0\nrun.T = 400\nrun.seeds = 1\nsweep.eta_grid = 0.01,1.0\n"
        )
        cfg = write(tmp_path / "s.cfg", text)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["best_eta0"] == 0.01


class TestBoundsCommand:
    def test_two_row_table_passes(self, tmp_path, capsys):
        text = (
            "problem.kind = trig_bowl\nproblem.dim = 2\nproblem.a = 1.0\nproblem.b = 1.0\n"
            "problem.sigma = 0.3\noptimizer.id = nsgdm\nrun.T_grid = 50,100\n"
            "run.n_seeds = 3\nrun.master_seed = 1\n"
        )
        cfg = write(tmp_path / "b.cfg", text)
        out = tmp_path / "o"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "bounds.csv").read_text().strip().split("\n")
        assert rows[0] == "T,mean_avg_grad_norm,stderr,bound,passed"
        assert len(rows) == 3
        assert all(r.endswith("true") for r in rows[1:])
        # the log-log fit needs three horizons: its refusal is recorded, not printed
        assert capsys.readouterr().err == ""
        assert json.loads((out / "bounds.json").read_text())["loglog_slope"] is None

    def test_needs_t_grid(self, tmp_path, capsys):
        text = (
            "problem.kind = trig_bowl\nproblem.dim = 2\nproblem.a = 1.0\nproblem.b = 1.0\n"
            "optimizer.id = nsgdm\nrun.T = 10\n"
        )
        cfg = write(tmp_path / "b.cfg", text)
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: section 'run' requires key 'T_grid'\n"
        assert not (tmp_path / "o").exists()

    def test_a_repeated_horizon_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # run twice, T = 100 would be written twice and fitted twice
        text = (
            "problem.kind = trig_bowl\nproblem.dim = 4\nproblem.a = 1.0\nproblem.b = 1.0\n"
            "problem.sigma = 0.5\noptimizer.id = nsgdm\nrun.T_grid = 100,100,1000\nrun.n_seeds = 3\n"
        )
        cfg = write(tmp_path / "b.cfg", text)
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: T_grid must be distinct, got [100, 100, 1000]\n"
        assert not (tmp_path / "o").exists()

    def test_underdeclared_smoothness_fails_containment(self, tmp_path, capsys):
        # the post-run certification inside the bound table must catch a
        # fabricated smoothness constant and exit 2
        text = (
            "problem.kind = trig_bowl\nproblem.dim = 2\nproblem.a = 1.0\nproblem.b = 1.0\n"
            "problem.sigma = 0.3\nproblem.L = 0.2\noptimizer.id = nsgdm\n"
            "run.T_grid = 50\nrun.n_seeds = 2\nrun.master_seed = 1\n"
        )
        cfg = write(tmp_path / "b.cfg", text)
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "certification failed" in capsys.readouterr().err


BOUNDS_GATE = Path(__file__).parent.parent / "perfbench" / "workloads" / "bounds_gate.cfg"


class TestBoundsKeys:
    """``bounds`` reads problem.*, optimizer.id, run.T_grid and the seeds; it
    refuses every other optimizer, schedule and run key, each of which it
    once accepted and ignored with byte-identical outputs."""

    @pytest.mark.parametrize("extra, message", [
        ("optimizer.eta = 0.5\noptimizer.theorem = 2\nschedule.kind = warmup_poly_decay\n"
         "schedule.warmup_steps = 5\nrun.record_exact = false\nrun.T = 7\n",
         "config error: keys ['eta', 'theorem'] do not apply to bounds (section 'optimizer')\n"),
        ("optimizer.beta = 0.5\n", "config error: keys ['beta'] do not apply to bounds (section 'optimizer')\n"),
        ("optimizer.theorem = 1\n", "config error: keys ['theorem'] do not apply to bounds (section 'optimizer')\n"),
        ("schedule.kind = constant\n", "config error: keys ['kind'] do not apply to bounds (section 'schedule')\n"),
        ("run.record_exact = true\nrun.T = 7\n",
         "config error: keys ['T', 'record_exact'] do not apply to bounds (section 'run')\n"),
    ], ids=["ignored_at_the_parent", "beta", "theorem", "schedule_kind", "run_keys"])
    def test_key_bounds_never_reads_exits_one(self, tmp_path, capsys, extra, message):
        cfg = write(tmp_path / "b.cfg", BOUNDS_GATE.read_text() + extra)
        out = tmp_path / "o"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_benchmark_file_writes_its_pinned_bytes(self, tmp_path):
        pinned = json.loads((BOUNDS_GATE.parent.parent / "digests.json").read_text())["bounds_gate"]
        out = tmp_path / "o"
        assert main(["bounds", "--config", str(BOUNDS_GATE), "--out", str(out)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == pinned


@pytest.mark.parametrize("command, workload, forks", [
    ("run", "run_ref", 0), ("bounds", "bounds_gate", 0), ("run", "adaptive_wide", 1)])
def test_only_the_wide_benchmark_workload_forks(tmp_path, monkeypatch, command, workload, forks):
    # 20 seeds of dim 4 step in one process; 2 of dim 4096 split, on two CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fork, calls = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    out = tmp_path / "o"
    assert main([command, "--config", str(BOUNDS_GATE.parent / f"{workload}.cfg"), "--out", str(out)]) == 0
    assert len(calls) == forks
    pinned = json.loads((BOUNDS_GATE.parent.parent / "digests.json").read_text())[workload]  # no charts
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned} == pinned


def test_a_split_run_whose_child_dies_exits_one(tmp_path, capsys, monkeypatch, split):
    lockstep, parent = harness._lockstep, os.getpid()
    monkeypatch.setattr(harness, "_lockstep", lambda cfg: lockstep(cfg) if os.getpid() == parent else os._exit(3))
    cfg, out = write(tmp_path / "run.cfg", BASE_RUN.replace("run.seeds = 1", "run.seeds = 1,2,3")), tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: the forked process that stepped the last 2 seeds exited with "
                                       "status 3 before it sent its records\n")
    assert len(split) == 1 and not out.exists()


# streaming least squares certifies its sigma at w1 only, where the theorems
# and the moment identity need the noise bounded at every point
STREAMING = ("problem.kind = streaming_least_squares\nproblem.dim = 2\nproblem.cov_eigs = 1.0,2.0\n"
             "problem.label_noise = 0.5\n")
STREAMING_ID = "streaming_least_squares(d=2,cov_eigs=[1.0;2.0],label_noise=0.5)"
SIGMA_AT_W1 = (f"oracle variance is only certified at the start point for {STREAMING_ID}; "
               "the tuned ceilings need it at every point")
TRIG_4 = "problem.kind = trig_bowl\nproblem.dim = 4\nproblem.a = 1.0\nproblem.b = 1.0\nproblem.sigma = 0.5\n"
NO_RATE_TO_SWEEP = "the self-tuning method has no base rate to sweep"


class TestPremises:
    """Each guarantee refuses what its premises do not cover: ``tuned`` a
    method no theorem is about and a sigma certified at w1 only, for ``run``
    and ``bounds`` alike; the moment check a curved Hessian and a sigma
    certified at w1 only, whatever the problem's kind."""

    def _main(self, tmp_path, command, text):
        out = tmp_path / "out"
        return main([command, "--config", str(write(tmp_path / "exp.cfg", text)), "--out", str(out)]), out

    @pytest.mark.parametrize("theorem, opt", [("1", "nsgdm"), ("2", "nigt")])
    def test_run_with_a_theorem_on_sigma_at_w1_only_exits_one(self, tmp_path, capsys, theorem, opt):
        text = STREAMING + f"optimizer.id = {opt}\noptimizer.theorem = {theorem}\nrun.T = 200\nrun.n_seeds = 3\n"
        code, out = self._main(tmp_path, "run", text)
        assert (code, capsys.readouterr()) == (1, ("", f"config error: invalid hyperparameters: {SIGMA_AT_W1}\n"))
        assert not out.exists()

    @pytest.mark.parametrize("problem, opt, message", [
        (TRIG_4, "sgd", "no closed-form tuning for 'sgd'"),
        (TRIG_4, "nigt_adaptive", "no closed-form tuning for 'nigt_adaptive'"),
        (STREAMING, "sgd", "no closed-form tuning for 'sgd'"),
        (STREAMING, "nsgdm", SIGMA_AT_W1),
    ], ids=["sgd", "adaptive", "sgd_on_streaming", "streaming"])
    def test_bounds_outside_the_theorems_exits_one(self, tmp_path, capsys, problem, opt, message):
        code, out = self._main(tmp_path, "bounds", problem + f"optimizer.id = {opt}\nrun.T_grid = 10,100\n")
        assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))
        assert not out.exists()

    def test_igt_check_on_sigma_at_w1_only_exits_one(self, tmp_path, capsys):
        code, out = self._main(tmp_path, "igt-check", STREAMING + "igt_check.n_runs = 1000\n")
        assert (code, capsys.readouterr()) == (1, ("", "error: moment identity requires noise that does not depend "
                                                       f"on the point; {STREAMING_ID} certifies sigma at the start "
                                                       "point only\n"))
        assert not out.exists()

    def test_igt_check_reads_unread_keys_before_the_premises(self, tmp_path, capsys):
        code, out = self._main(tmp_path, "igt-check", STREAMING + "run.T = 5\n")
        assert (code, capsys.readouterr()) == (1, ("", "config error: keys ['T'] do not apply to igt-check "
                                                       "(section 'run')\n"))
        assert not out.exists()

    def test_igt_check_on_sign_noise_passes(self, tmp_path, capsys):
        # a zero Hessian and noise that does not depend on the point
        code, out = self._main(tmp_path, "igt-check", "problem.kind = sign_noise\nproblem.p = 0.25\n")
        assert (code, capsys.readouterr()) == (0, ("", ""))
        report = json.loads((out / "igt_check.json").read_text())
        assert report["passed"] is True and [c["k"] for c in report["checkpoints"]] == [1, 10, 100]

    def test_igt_check_on_a_falsely_declared_constant_hessian_fails(self, tmp_path, capsys):
        # the trig bowl is curved: declaring rho = 0 runs the check, and the
        # transported momentum is biased, as a misdeclared sigma is caught
        code, out = self._main(tmp_path, "igt-check", TRIG_4 + "problem.rho = 0.0\n")
        assert (code, capsys.readouterr()) == (2, ("", ""))
        report = json.loads((out / "igt_check.json").read_text())
        last = report["checkpoints"][-1]
        assert report["passed"] is False and last["k"] == 100 and last["bias_norm"] > 10 * last["bias_limit"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_warmup_not_below_the_horizon_is_refused_when_built(self, tmp_path, capsys, command):
        text = (TRIG_4 + "optimizer.id = nsgdm\n" + ("optimizer.eta = 0.1\n" if command == "run" else "")
                + "schedule.kind = warmup_poly_decay\nschedule.warmup_steps = 20\nrun.T = 20\n")
        code, out = self._main(tmp_path, command, text)
        assert (code, capsys.readouterr()) == (
            1, ("", "config error: invalid run configuration: warmup_steps 20 must be < T 20\n"))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_self_tuning_under_a_warmup_is_refused_when_built(self, tmp_path, capsys, command):
        text = TRIG_4 + "optimizer.id = nigt_adaptive\nschedule.kind = warmup_poly_decay\nrun.T = 20\n"
        code, out = self._main(tmp_path, command, text)
        message = (NO_RATE_TO_SWEEP if command == "sweep" else "invalid run configuration: the self-tuning method "
                   "sets its own step sizes; use a constant schedule")
        assert (code, capsys.readouterr()) == (1, ("", f"config error: {message}\n"))
        assert not out.exists()

    @pytest.mark.parametrize("extra", ["", "schedule.kind = warmup_poly_decay\n", "optimizer.eta = 0.1\n"],
                             ids=["constant", "warmup", "unread_eta"])
    def test_a_sweep_of_the_self_tuning_method_is_refused_once_when_built(self, tmp_path, capsys, extra):
        code, out = self._main(tmp_path, "sweep", TRIG_4 + "optimizer.id = nigt_adaptive\nrun.T = 20\n" + extra)
        assert (code, capsys.readouterr()) == (1, ("", f"config error: {NO_RATE_TO_SWEEP}\n"))
        assert not out.exists()


class TestRunCharts:
    @pytest.mark.parametrize("n_seeds", [1, 3])
    def test_a_chart_draws_each_seed_and_their_mean(self, tmp_path, n_seeds):
        text = BASE_RUN.replace("run.seeds = 1", "run.n_seeds = %d\nrun.master_seed = 1" % n_seeds)
        cfg = write(tmp_path / "run.cfg", text.replace("csv,json", "csv,json,svg"))
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("grad_norm.svg", "f_val.svg", "eta.svg"):
            assert (out / name).read_text().count("<polyline") == n_seeds + 1


class TestExperimentFileReadErrors:
    """An experiment file that cannot be read is one config error line,
    exit 1, nothing written, whichever command reads it."""

    @pytest.mark.parametrize("command", ["run", "certify", "igt-check", "sweep", "bounds"])
    @pytest.mark.parametrize("case, reason", [
        ("missing", "[Errno 2] No such file or directory: '{path}'"),
        ("directory", "[Errno 21] Is a directory: '{path}'"),
        ("not_utf8", "'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
    ])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, case, reason, command):
        path = tmp_path / "exp.cfg"
        if case == "directory":
            path.mkdir()
        elif case == "not_utf8":
            path.write_bytes(b"problem.kind = \xff\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"config error: cannot read {path}: {reason.format(path=path)}\n")
        assert not out.exists()


class TestGoldenFiles:
    """Byte-exact format pins: header, number formatting, SVG primitives."""

    def _regen(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(GOLDEN / "golden_run.cfg"), "--out", str(out)])
        assert code == 0
        return out

    def test_csv_schema_and_bytes(self, tmp_path):
        out = self._regen(tmp_path)
        got = (out / "seed_1.csv").read_bytes()
        assert got == (GOLDEN / "golden_seed_1.csv").read_bytes()
        text = got.decode()
        assert text.startswith(CSV_HEADER + "\n")
        assert "\r" not in text
        # 17 significant digits: 0.1 serializes with its full round-trip tail
        assert "0.10000000000000001" in text

    def test_summary_json_bytes(self, tmp_path):
        out = self._regen(tmp_path)
        assert (out / "summary.json").read_bytes() == (GOLDEN / "golden_summary.json").read_bytes()

    def test_grad_norm_svg_bytes(self, tmp_path):
        out = self._regen(tmp_path)
        assert (out / "grad_norm.svg").read_bytes() == (GOLDEN / "golden_grad_norm.svg").read_bytes()


TRIG_RUN = """\
problem.kind = trig_bowl
problem.dim = 4
problem.a = 1.0
problem.b = 1.0
problem.sigma = 0.5
optimizer.id = nigt
run.T = 1000
run.seeds = 1,2,3
output.formats = csv,json,svg
"""
EXACT = "optimizer.theorem = 2\n"
NOT_EXACT = "optimizer.eta = 0.01\noptimizer.beta = 0.9\nrun.record_exact = false\n"
SIGN_RUN = (
    "problem.kind = sign_noise\nproblem.p = 0.25\noptimizer.id = heavy_ball\n"
    "optimizer.eta = 0.01\noptimizer.beta = 0.9\nrun.T = 300\nrun.seeds = 1,2,3\n"
    "output.formats = csv,json,svg\n"
)
EMPTY_LOG_CHART = "1f01eee988b2011c5f92ed094714aac4ef8b144679adf4e59252ec8e7cdc3c56"
TRIG_CHARTS = {
    "grad_norm.svg": "0f469adf7a5decbec29aeab171b8df51e6b524c7eca8e3b0a7772220bfca27f3",
    "f_val.svg": "15e977a6fe0b2d4658b64ad5a36ea7bb3577184edd230e99a31cc8496775007d",
    "eta.svg": "aff03f7011854600947d985f99e6bd0489e67a2b8cfad70c39b9a14ac56bb1aa",
}


class TestChartBytes:
    """SHA-256 pins of whole charts: every byte must stay. The pins were
    taken from the point-by-point emitter that the array emitter replaced,
    and those of twelve seeds from the charts that the retired ``plot``
    redrew byte for byte from the seed CSVs."""

    CASES = {
        "trig_bowl": (TRIG_RUN + EXACT, TRIG_CHARTS),
        # the seeds are drawn, and the mean line summed, in order of their
        # number: seeds listed as 3,1,2 give the charts of 1,2,3, and of
        # seeds 0..11, seed 10 comes after seed 2, where seed_10.csv sorts
        # before seed_2.csv by name
        "unsorted_seeds": (TRIG_RUN.replace("run.seeds = 1,2,3", "run.seeds = 3,1,2") + EXACT, TRIG_CHARTS),
        "twelve_seeds": (TRIG_RUN.replace("run.seeds = 1,2,3", "run.n_seeds = 12") + EXACT, {
            "grad_norm.svg": "458ab768038925c03ed5ea8ca1ac6835d7a3448ee04164641a778e1eef036a87",
            "f_val.svg": "1df66baff52c07ba3b9a375ca7ed354bbe6fee8176fe15e654f529ffd91327c4",
            "eta.svg": "5f5080f6b39be29bc69529de6849f27c127f868fcbfe8684586790116fd1f6f1",
        }),
        "trig_bowl_no_exact_log": (TRIG_RUN + NOT_EXACT, {
            "grad_norm.svg": EMPTY_LOG_CHART,
            "f_val.svg": "3160d0e18d3516f4b4fe7de9e00287e9a6373ee76064623dbb024f681d58c11d",
            "eta.svg": "51957c6ae479683be93a04214cbe8cff4516eedf5b69d5b9f717b3cc0576cc42",
        }),
        # a flat objective: no positive gradient norm for the log chart
        "sign_noise": (SIGN_RUN, {
            "grad_norm.svg": EMPTY_LOG_CHART,
            "f_val.svg": "dd4ef35edf84132a6fd3df5820c02b0eb5be858d15e6884980a5064f71f4d749",
            "eta.svg": "1141269e0da0682545bf90a6a79ca0712edfa43f7e6799c1ffdf94e67491a19a",
        }),
    }

    @staticmethod
    def _charts(out: Path) -> dict:
        return {name: (out / name).read_bytes() for name in ("grad_norm.svg", "f_val.svg", "eta.svg")}

    @pytest.mark.parametrize("case", CASES)
    def test_chart_digests(self, tmp_path, case):
        text, digests = self.CASES[case]
        cfg = write(tmp_path / "run.cfg", text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        got = {name: hashlib.sha256(b).hexdigest() for name, b in self._charts(tmp_path / "o").items()}
        assert got == digests


# nsgdm on the noiseless trig bowl, its rate decaying to zero: f_val and
# grad_norm fall below 1e-4, so their cells cross from fixed to scientific
# notation, and the rate ends in zeros
LONG_RUN = """\
problem.kind = trig_bowl
problem.dim = 4
problem.a = 1.0
problem.b = 1.0
problem.sigma = 0.0
optimizer.id = nsgdm
optimizer.eta = 0.1
optimizer.beta = 0.5
schedule.kind = warmup_poly_decay
schedule.power = 2
run.T = 3000
run.seeds = 1
output.formats = csv
"""


def test_a_long_seed_csv_keeps_its_bytes(tmp_path):
    # a SHA-256 pin taken from the row-template writer, which printed each
    # float with Python's "%.17g"
    assert main(["run", "--config", str(write(tmp_path / "run.cfg", LONG_RUN)), "--out", str(tmp_path / "o")]) == 0
    digest = hashlib.sha256((tmp_path / "o" / "seed_1.csv").read_bytes()).hexdigest()
    assert digest == "c1a1b78e91ccceee589cf7f58f00e9aaf1f18c209efc82f8c64acfc6f68dd894"


README_EXAMPLES = re.findall(r"```\n(# nigt-lab (\S+) .*?)```", (Path(__file__).parent.parent / "README.md").read_text(
    encoding="utf-8"), re.S)


def test_readme_has_an_example_per_command():
    assert {command for _, command in README_EXAMPLES} == {"run", "certify", "igt-check", "sweep", "bounds"}


@pytest.mark.parametrize("text, command", README_EXAMPLES, ids=[f"{c}-{i}" for i, (_, c) in enumerate(README_EXAMPLES)])
def test_readme_example_is_accepted_by_its_command(tmp_path, capsys, text, command):
    out = tmp_path / "out"
    assert main([command, "--config", str(write(tmp_path / "exp.cfg", text)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "" and any(out.iterdir())
