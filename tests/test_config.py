import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nigt_lab.config import (
    _SCHEMA,
    ExperimentFile,
    build_problem,
    build_run_config,
    build_schedule,
    parse_experiment,
    resolve_seeds,
    serialize_experiment,
)
from nigt_lab.cli import main
from nigt_lab.errors import ConfigError
from nigt_lab.problems import (
    make_noisy_quadratic,
    make_sign_noise,
    make_streaming_least_squares,
    make_trig_bowl,
)
from nigt_lab.tuning import nsgdm_params

PROPERTY = settings(max_examples=150)


_SCALARS = {
    "int": st.integers(-(10**12), 10**12),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    # bare strings: no separators, no surrounding blanks
    "str": st.text(string.ascii_letters + string.digits + "_-./:", min_size=1, max_size=12),
}


def _values(typ: str):
    if typ.endswith("_list"):
        return st.lists(_SCALARS[typ[: -len("_list")]], min_size=1, max_size=5)
    return _SCALARS[typ]


_POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def problem_sections(draw):
    """(kind, constructor, experiment keys) for one problem of each kind."""
    kind = draw(st.sampled_from(
        ["noisy_quadratic", "sign_noise", "trig_bowl", "streaming_least_squares"]))
    if kind == "sign_noise":
        p = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
        return kind, make_sign_noise, {"p": p}
    dim = draw(st.integers(1, 5))
    vec = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
    keys = {"dim": dim}
    optional = {"w1": vec}
    if kind == "noisy_quadratic":
        make = make_noisy_quadratic
        keys["eigs"] = draw(st.lists(_POSITIVE, min_size=dim, max_size=dim))
        optional["sigma"] = st.floats(0.0, 10.0)
    elif kind == "trig_bowl":
        make = make_trig_bowl
        keys["a"] = draw(st.floats(1e-2, 10.0))
        keys["b"] = draw(st.floats(1e-2, 10.0))
        optional["sigma"] = st.floats(0.0, 10.0)
    else:
        make = make_streaming_least_squares
        keys["cov_eigs"] = draw(st.lists(_POSITIVE, min_size=dim, max_size=dim))
        optional["label_noise"] = st.floats(0.0, 10.0)
        optional["w_star"] = vec
    keys.update(draw(st.fixed_dictionaries({}, optional=optional)))
    return kind, make, keys


VALID = """\
# a full experiment
problem.kind = trig_bowl
problem.dim = 4
problem.a = 1.0
problem.b = 1.0
problem.sigma = 0.5
optimizer.id = nsgdm
optimizer.theorem = 1
schedule.kind = constant
run.T = 100
run.n_seeds = 3
run.master_seed = 7
run.record_exact = true
output.dir = results
output.formats = csv,json
"""


class TestParsing:
    def test_valid_file_parses(self):
        exp = parse_experiment(VALID)
        assert exp.problem["kind"] == "trig_bowl"
        assert exp.problem["dim"] == 4
        assert exp.problem["sigma"] == 0.5
        assert exp.optimizer["theorem"] == "1"
        assert exp.run["record_exact"] is True
        assert exp.output["formats"] == ["csv", "json"]

    def test_unknown_key_is_named_with_location(self):
        bad = VALID + "optimizer.moментum = 0.9\n"
        with pytest.raises(ConfigError) as exc:
            parse_experiment(bad)
        msg = str(exc.value)
        assert "moментum" in msg and "line 16" in msg

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_experiment("solver.id = nsgdm\n")
        assert "solver" in str(exc.value)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_experiment("problem.kind trig_bowl\n")
        assert "line 1" in str(exc.value)

    def test_type_errors_are_diagnosed(self):
        with pytest.raises(ConfigError):
            parse_experiment("run.T = soon\n")
        with pytest.raises(ConfigError):
            parse_experiment("run.record_exact = yes\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_experiment("run.T = 5\nrun.T = 6\n")

    def test_comments_and_blanks_ignored(self):
        exp = parse_experiment("\n# hello\n\nproblem.kind = sign_noise\nproblem.p = 0.25\n")
        assert exp.problem == {"kind": "sign_noise", "p": 0.25}


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            VALID,
            "problem.kind = sign_noise\nproblem.p = 0.25\noptimizer.id = nsgdm\n"
            "optimizer.eta = 0.01\noptimizer.beta = 0.0\nrun.T = 100\nrun.seeds = 1,2,3\n",
            "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,4.0\n"
            "problem.w1 = 0.5,-1.5\noptimizer.id = sgd\noptimizer.eta = 1e-3\nrun.T = 10\n"
            "schedule.kind = warmup_poly_decay\nschedule.warmup_steps = 2\nschedule.power = 2\n",
        ],
    )
    def test_parse_serialize_parse_identity(self, text):
        once = parse_experiment(text)
        again = parse_experiment(serialize_experiment(once))
        assert once == again

    def test_serialization_is_canonical(self):
        exp = parse_experiment(VALID)
        assert serialize_experiment(exp) == serialize_experiment(parse_experiment(serialize_experiment(exp)))

    @PROPERTY
    @given(st.builds(ExperimentFile, **{
        section: st.fixed_dictionaries({}, optional={k: _values(t) for k, t in keys.items()})
        for section, keys in _SCHEMA.items()
    }))
    def test_parse_serialize_parse_identity_property(self, exp):
        text = serialize_experiment(exp)
        parsed = parse_experiment(text)
        assert parsed == exp
        assert serialize_experiment(parsed) == text



class TestBuilders:
    def test_build_problem_each_kind(self):
        quad = build_problem(parse_experiment(
            "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,4.0\n"))
        assert quad.L == 4.0
        sign = build_problem(parse_experiment("problem.kind = sign_noise\nproblem.p = 0.25\n"))
        assert sign.g_bound == 0.75
        trig = build_problem(parse_experiment(
            "problem.kind = trig_bowl\nproblem.dim = 3\nproblem.a = 1.0\nproblem.b = 2.0\n"))
        assert trig.L == 4.0 and trig.rho == 8.0
        ls = build_problem(parse_experiment(
            "problem.kind = streaming_least_squares\nproblem.dim = 2\n"
            "problem.cov_eigs = 1.0,2.0\nproblem.label_noise = 0.5\n"))
        assert ls.sigma_at_w1_only

    @PROPERTY
    @given(problem_sections())
    def test_build_problem_matches_the_constructor(self, case):
        kind, make, keys = case
        text = serialize_experiment(ExperimentFile(problem={"kind": kind, **keys}))
        built = build_problem(parse_experiment(text))
        direct = make(**keys)
        assert type(built) is type(direct) and built.kind == kind
        assert built.problem_id == direct.problem_id
        for name in ("dim", "L", "rho", "sigma", "g_bound", "R"):
            assert getattr(built, name) == getattr(direct, name), name
        np.testing.assert_array_equal(built.w1, direct.w1)

    def test_constant_overrides_are_applied(self):
        exp = parse_experiment(
            "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,4.0\n"
            "problem.L = 2.0\n")
        pb = build_problem(exp)
        assert pb.L == 2.0  # deliberately under-declared; certification must catch it

    def test_problem_validation_becomes_config_error(self):
        with pytest.raises(ConfigError):
            build_problem(parse_experiment("problem.kind = sign_noise\nproblem.p = 0.9\n"))
        with pytest.raises(ConfigError):
            build_problem(parse_experiment("problem.kind = rosenbrock\n"))

    @pytest.mark.parametrize("command", ["run", "certify", "igt-check", "sweep", "bounds"])
    def test_keys_foreign_to_the_kind_are_rejected(self, tmp_path, capsys, command):
        # the rest of a file the command builds
        rest = {"run": "optimizer.id = nsgdm\noptimizer.eta = 0.1\nrun.T = 5\n",
                "sweep": "optimizer.id = nsgdm\nrun.T = 5\n", "bounds": "optimizer.id = nsgdm\nrun.T_grid = 5\n"}
        for text, message in [
            ("problem.kind = streaming_least_squares\nproblem.dim = 2\n"
             "problem.cov_eigs = 1.0,2.0\nproblem.sigma = 0.5\n",
             "keys ['sigma'] do not apply to problem kind 'streaming_least_squares'"),
            ("problem.kind = noisy_quadratic\nproblem.dim = 1\nproblem.eigs = 1.0\nproblem.p = 0.25\n",
             "keys ['p'] do not apply to problem kind 'noisy_quadratic'"),
        ]:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(text + rest.get(command, ""), encoding="utf-8")
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr() == ("", f"config error: {message}\n")
            assert not (tmp_path / "out").exists()

    def test_seed_resolution(self):
        exp = parse_experiment(VALID)
        assert resolve_seeds(exp, "run.T", 100) == (7, 8, 9)
        assert resolve_seeds(exp, "run.T", 100, n_seeds_override=2) == (7, 8)
        assert resolve_seeds(exp, "run.T", 100, master_seed_override=100) == (100, 101, 102)
        explicit = parse_experiment("run.seeds = 5,6\n")
        assert resolve_seeds(explicit, "run.T", 100) == (5, 6)

    def test_build_run_config_with_tuned_params(self):
        cfg, bound = build_run_config(parse_experiment(VALID))
        params = nsgdm_params(cfg.problem.R, cfg.problem.L, cfg.problem.sigma, 100)
        assert (cfg.eta, cfg.beta) == (params.eta, params.beta)
        assert bound is not None and bound > 0
        assert cfg.T == 100 and cfg.seeds == (7, 8, 9)

    def test_manual_run_requires_eta(self, tmp_path, capsys):
        # a run reads the rate; the configuration a sweep builds has none
        text = VALID.replace("optimizer.theorem = 1\n", "")
        code, err = _exit_code_and_error(tmp_path, capsys, text)
        assert code == 1 and err == "config error: section 'optimizer' requires key 'eta'\n"
        with pytest.raises(ConfigError, match="^section 'optimizer' requires key 'eta'$"):
            build_run_config(parse_experiment(text))
        cfg, bound = build_run_config(parse_experiment(text), sweep=True)
        assert cfg.eta is None and bound is None

    def test_adaptive_needs_matching_id(self):
        text = VALID.replace("optimizer.theorem = 1", "optimizer.theorem = adaptive")
        with pytest.raises(ConfigError):
            build_run_config(parse_experiment(text))

    def test_layer_partition_built_from_boundaries(self):
        text = (
            "problem.kind = trig_bowl\nproblem.dim = 4\nproblem.a = 1.0\nproblem.b = 1.0\n"
            "optimizer.id = nigt_layerwise\noptimizer.eta = 0.05\n"
            "optimizer.layers = 0,2,4\noptimizer.lr_scale = 1.0,2.0\nrun.T = 5\n"
        )
        cfg, _ = build_run_config(parse_experiment(text))
        assert cfg.partition.boundaries == (0, 2, 4)
        assert cfg.partition.lr_scale == (1.0, 2.0)

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            build_schedule(parse_experiment("schedule.kind = cosine\n"))

    def test_empty_experiment_file_type(self):
        assert parse_experiment("") == ExperimentFile()


MANUAL = VALID.replace("optimizer.theorem = 1\n", "")
_BOWL = make_trig_bowl(4, 1.0, 1.0, 0.5)  # the problem of VALID
TUNED = nsgdm_params(_BOWL.R, _BOWL.L, _BOWL.sigma, 100)


def _exit_code_and_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


class TestBaseRate:
    """The theorem's eta, else optimizer.eta; beta is the theorem's, else
    optimizer.beta (0.9 by default)."""

    @pytest.mark.parametrize("text, sweep, eta, beta", [
        (VALID, False, TUNED.eta, TUNED.beta),
        (MANUAL + "optimizer.eta = 0.5\n", False, 0.5, 0.9),
        (MANUAL, True, None, 0.9),
    ], ids=["theorem", "manual", "sweep"])
    def test_rate(self, text, sweep, eta, beta):
        cfg, _ = build_run_config(parse_experiment(text), sweep=sweep)
        assert (cfg.eta, cfg.beta) == (eta, beta)

    def test_theorem_and_manual_rate_exit_one(self, tmp_path, capsys):
        # the theorem tunes both, so the manual rate would go unused
        code, err = _exit_code_and_error(tmp_path, capsys, VALID + "optimizer.eta = 0.5\noptimizer.beta = 0.5\n")
        assert (code, err) == (1, "config error: keys ['beta', 'eta'] do not apply to optimizer 'nsgdm'\n")

    def test_sweep_reads_beta_and_no_rate(self):
        # a sweep refuses optimizer.eta and optimizer.theorem, and sets the rate itself
        cfg, bound = build_run_config(parse_experiment(MANUAL + "optimizer.beta = 0.7\n"), sweep=True)
        assert (cfg.eta, cfg.beta, bound) == (None, 0.7, None)

    @pytest.mark.parametrize("kind", ["constant", "warmup_poly_decay"])
    def test_sweep_rejects_adaptive(self, kind):
        # the self-tuning method has no base rate to sweep, under any schedule
        text = MANUAL.replace("id = nsgdm", "id = nigt_adaptive").replace("kind = constant", f"kind = {kind}")
        with pytest.raises(ConfigError, match="^the self-tuning method has no base rate to sweep$"):
            build_run_config(parse_experiment(text), sweep=True)

    @pytest.mark.parametrize("extra", ["optimizer.eta = 0\n", "optimizer.eta = 0.1\noptimizer.beta = 1.0\n"],
                             ids=["eta_zero", "beta_one"])
    def test_manual_domain(self, extra):
        with pytest.raises(ConfigError, match="^invalid run configuration: "):
            build_run_config(parse_experiment(MANUAL + extra))

    # two repeated a key that sets the same value: the base rate, and the
    # self-tuning method's bound (problem.g_bound); problem.M declared an
    # upper bound on F that no code read
    @pytest.mark.parametrize("extra, message", [
        ("schedule.eta0 = 0.03\n", "unknown key 'eta0' in section 'schedule'"),
        ("optimizer.g_bound = 3.0\n", "unknown key 'g_bound' in section 'optimizer'"),
        ("problem.M = 100.0\n", "unknown key 'M' in section 'problem'"),
    ], ids=["eta0", "optimizer_g_bound", "problem_M"])
    def test_deleted_keys_exit_one(self, tmp_path, capsys, extra, message):
        code, err = _exit_code_and_error(tmp_path, capsys, MANUAL + "optimizer.eta = 0.5\n" + extra)
        assert code == 1 and message in err


THEOREM_RUNS = {
    "1": VALID,
    "2": VALID.replace("optimizer.id = nsgdm\noptimizer.theorem = 1", "optimizer.id = nigt\noptimizer.theorem = 2"),
}


_NOT_COVERED = "theorem = {theorem} is checked on exact logs of a constant rate"


class TestTheoremRuns:
    """A theorem's ceiling is reported only for the run it covers: its
    method at the rate it tunes, on a constant schedule without weight-norm
    scaling, checked on exact logs."""

    @pytest.mark.parametrize("theorem", THEOREM_RUNS)
    @pytest.mark.parametrize("extra, message", [
        ("schedule.eta0 = 0.3\n", "unknown key 'eta0' in section 'schedule'"),
        ("schedule.kind = warmup_poly_decay\nschedule.warmup_steps = 100\n", _NOT_COVERED),
        ("schedule.weight_norm_scaling = true\n", _NOT_COVERED),
        ("run.record_exact = false\n", _NOT_COVERED),
    ], ids=["eta0", "warmup_poly_decay", "weight_norm_scaling", "record_exact_false"])
    def test_runs_the_theorem_does_not_cover_exit_one(self, tmp_path, capsys, theorem, extra, message):
        text = THEOREM_RUNS[theorem].replace("run.T = 100", "run.T = 1000")
        for default in ("schedule.kind = constant\n", "run.record_exact = true\n"):
            text = text.replace(default, "")
        code, err = _exit_code_and_error(tmp_path, capsys, text + extra)
        assert code == 1 and message.format(theorem=theorem) in err

    @pytest.mark.parametrize("theorem", THEOREM_RUNS)
    def test_constant_unscaled_schedule_runs(self, theorem):
        text = THEOREM_RUNS[theorem] + "schedule.weight_norm_scaling = false\n"
        _, bound = build_run_config(parse_experiment(text))
        assert bound is not None


_LAYERS = "optimizer.layers = 0,2,4\n"


class TestStrayKeys:
    """A key that the chosen method or schedule never reads is refused."""

    @pytest.mark.parametrize("opt, extra, key", [
        ("nigt", _LAYERS, "layers"),
        ("nsgdm", "optimizer.lr_scale = 1.0\n", "lr_scale"),
        ("nigt_layerwise", "optimizer.lr_scale = 1.0\n", "lr_scale"),  # without layers
        ("sgd", "optimizer.beta = 0.5\n", "beta"),
        ("nigt_adaptive", "optimizer.eta = 0.5\n", "eta"),
        ("nigt_adaptive", "optimizer.beta = 0.5\n", "beta"),
        ("nigt_adaptive", "schedule.weight_norm_scaling = true\n", "weight_norm_scaling"),
        ("nsgdm", "schedule.warmup_steps = 10\n", "warmup_steps"),
        ("nsgdm", "schedule.power = 2\n", "power"),
    ], ids=["layers_nigt", "lr_scale_nsgdm", "lr_scale_without_layers", "beta_sgd", "eta_adaptive",
            "beta_adaptive", "weight_norm_adaptive", "warmup_steps_constant", "power_constant"])
    def test_stray_key_exits_one(self, tmp_path, capsys, opt, extra, key):
        rate = "" if opt == "nigt_adaptive" else "optimizer.eta = 0.01\n"
        text = MANUAL.replace("optimizer.id = nsgdm", f"optimizer.id = {opt}") + rate + extra
        code, err = _exit_code_and_error(tmp_path, capsys, text)
        assert code == 1 and f"keys [{key!r}] do not apply to" in err

    @pytest.mark.parametrize("opt", ["nigt_adaptive", "nsgdm", "sgd"])
    def test_theorem_adaptive_is_refused(self, tmp_path, capsys, opt):
        # the self-tuning method tunes itself: optimizer.theorem = adaptive set
        # nothing (an adaptive run wrote the same bytes with or without it)
        rate = "" if opt == "nigt_adaptive" else "optimizer.eta = 0.01\n"
        text = MANUAL.replace("optimizer.id = nsgdm", f"optimizer.id = {opt}") + rate
        code, err = _exit_code_and_error(tmp_path, capsys, text + "optimizer.theorem = adaptive\n")
        assert code == 1
        assert err == ("config error: keys ['theorem'] do not apply to optimizer 'nigt_adaptive'\n"
                       if opt == "nigt_adaptive" else "config error: optimizer.theorem must be 1 or 2, got 'adaptive'\n")
        build_run_config(parse_experiment(text))  # accepted without the line

    @pytest.mark.parametrize("opt, extra", [
        ("nigt_layerwise", _LAYERS + "optimizer.lr_scale = 1.0,2.0\n"),
        ("heavy_ball", "optimizer.beta = 0.5\n"),
        ("nsgdm", "schedule.kind = warmup_poly_decay\nschedule.warmup_steps = 10\nschedule.power = 2\n"),
        ("nsgdm", "schedule.kind = constant\nschedule.weight_norm_scaling = true\n"),
    ], ids=["layerwise", "heavy_ball_beta", "warmup", "weight_norm"])
    def test_keys_the_method_reads_are_accepted(self, opt, extra):
        text = MANUAL.replace("optimizer.id = nsgdm", f"optimizer.id = {opt}").replace(
            "schedule.kind = constant\n", "")
        build_run_config(parse_experiment(text + "optimizer.eta = 0.01\n" + extra))
