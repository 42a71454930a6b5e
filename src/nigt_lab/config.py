"""Line-oriented experiment files: ``section.key = value``.

Grammar (one statement per line):

    line     := blank | comment | statement
    comment  := '#' anything
    statement:= section '.' key '=' value
    value    := int | float | bool ('true'/'false') | bare string
              | comma-separated list of the above

Unknown sections or keys are rejected with a line/column diagnostic.
Parsing preserves exactly what was written (no defaults are injected), so
parse -> serialize -> parse is the identity; defaults are applied when an
:class:`ExperimentFile` is turned into runnable objects.

Defaults applied at build time: beta = 0.9, record_exact = true,
schedule constant, n_seeds = 1, master_seed = 0 (seed i = master_seed + i),
output dir "results", formats csv,json.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from .errors import ConfigError, InvalidInput
from .harness import OPTIMIZER_IDS, RunConfig
from .optimizers import LayerPartition, Schedule
from .problems import PROBLEM_KINDS, with_constants
from .tuning import THEOREM_METHODS, tuned

# value type codes: int / float / bool / str and list variants
_SCHEMA: dict[str, dict[str, str]] = {
    "problem": {
        "kind": "str",
        "dim": "int",
        "eigs": "float_list",
        "sigma": "float",
        "p": "float",
        "a": "float",
        "b": "float",
        "cov_eigs": "float_list",
        "label_noise": "float",
        "w1": "float_list",
        "w_star": "float_list",
        # declared-constant overrides, validated by `certify`
        "L": "float",
        "rho": "float",
        "g_bound": "float",
        "R": "float",
        "M": "float",
    },
    "optimizer": {
        "id": "str",
        "eta": "float",
        "beta": "float",
        "theorem": "str",  # "1" | "2" | "adaptive"
        "g_bound": "float",
        "layers": "int_list",  # block boundaries, e.g. 0,2,4
        "lr_scale": "float_list",
    },
    "schedule": {
        "kind": "str",
        "eta0": "float",
        "warmup_steps": "int",
        "power": "int",
        "weight_norm_scaling": "bool",
    },
    "run": {
        "T": "int",
        "T_grid": "int_list",
        "seeds": "int_list",
        "n_seeds": "int",
        "master_seed": "int",
        "record_exact": "bool",
    },
    "igt_check": {
        "checkpoints": "int_list",
        "n_runs": "int",
    },
    "sweep": {
        "eta_grid": "float_list",
    },
    "certify": {
        "n_pairs": "int",
        "radius": "float",
    },
    "output": {
        "dir": "str",
        "formats": "str_list",
    },
}

_SECTION_ORDER = tuple(_SCHEMA)


@dataclass
class ExperimentFile:
    """Typed, raw (default-free) contents of one experiment file."""

    problem: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)
    igt_check: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    certify: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def section(self, name: str) -> dict:
        return getattr(self, name)


def _parse_scalar(text: str, typ: str, where: str):
    text = text.strip()
    if typ == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {text!r}") from None
    if typ == "float":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {text!r}") from None
    if typ == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        raise ConfigError(f"{where}: expected true or false, got {text!r}")
    return text  # bare string


def _parse_value(text: str, typ: str, where: str):
    if typ.endswith("_list"):
        base = typ[: -len("_list")]
        items = [p for p in (piece.strip() for piece in text.split(",")) if p != ""]
        if not items:
            raise ConfigError(f"{where}: expected a comma-separated list, got {text!r}")
        return [_parse_scalar(p, base, where) for p in items]
    return _parse_scalar(text, typ, where)


def parse_experiment(text: str) -> ExperimentFile:
    exp = ExperimentFile()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        lhs, rhs = line.split("=", 1)
        dotted = lhs.strip()
        col = raw.index(dotted) + 1 if dotted in raw else 1
        if "." not in dotted:
            raise ConfigError(f"line {lineno}, col {col}: key {dotted!r} lacks a section prefix")
        section, key = dotted.split(".", 1)
        if section not in _SCHEMA:
            raise ConfigError(f"line {lineno}, col {col}: unknown section {section!r}")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}, col {col}: unknown key {key!r} in section {section!r}")
        store = exp.section(section)
        if key in store:
            raise ConfigError(f"line {lineno}, col {col}: duplicate key {dotted!r}")
        store[key] = _parse_value(rhs, _SCHEMA[section][key], f"line {lineno}")
    return exp


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ",".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_experiment(exp: ExperimentFile) -> str:
    lines = []
    for section in _SECTION_ORDER:
        store = exp.section(section)
        for key in _SCHEMA[section]:
            if key in store:
                lines.append(f"{section}.{key} = {_format_value(store[key])}")
    return "\n".join(lines) + "\n"


def load_experiment(path) -> ExperimentFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_experiment(fh.read())
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None


# -- builders ---------------------------------------------------------------


def _require(store: dict, key: str, section: str):
    if key not in store:
        raise ConfigError(f"section {section!r} requires key {key!r}")
    return store[key]


# declared-constant overrides, valid for every kind; the generative keys of
# a kind are the parameters of its constructor
_OVERRIDE_KEYS = {"L", "rho", "g_bound", "R", "M"}


def build_problem(exp: ExperimentFile):
    pr = exp.problem
    kind = _require(pr, "kind", "problem")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {tuple(PROBLEM_KINDS)}")
    make = PROBLEM_KINDS[kind]
    params = inspect.signature(make).parameters
    stray = set(pr) - {"kind"} - set(params) - _OVERRIDE_KEYS
    if stray:
        raise ConfigError(f"keys {sorted(stray)} do not apply to problem kind {kind!r}")
    for name, param in params.items():
        if param.default is param.empty:
            _require(pr, name, "problem")
    try:
        problem = make(**{name: pr[name] for name in params if name in pr})
    except Exception as e:  # constructor validation errors become config errors
        raise ConfigError(f"invalid problem section: {e}") from e
    overrides = {k: pr[k] for k in sorted(_OVERRIDE_KEYS) if k in pr}
    if overrides:
        problem = with_constants(problem, **overrides)
    return problem


def build_schedule(exp: ExperimentFile) -> Schedule:
    sc = exp.schedule
    kind = sc.get("kind", "constant")
    try:
        return Schedule(
            kind=kind,
            warmup_steps=sc.get("warmup_steps", 0),
            power=sc.get("power", 1),
            weight_norm_scaling=sc.get("weight_norm_scaling", False),
        )
    except Exception as e:
        raise ConfigError(f"invalid schedule section: {e}") from e


def build_partition(exp: ExperimentFile, dim: int) -> LayerPartition | None:
    op = exp.optimizer
    if "layers" not in op:
        return None
    bounds = op["layers"]
    if len(bounds) < 2:
        raise ConfigError("optimizer.layers needs at least two boundaries")
    ranges = tuple((bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1))
    scales = tuple(op.get("lr_scale", [1.0] * len(ranges)))
    try:
        part = LayerPartition(ranges=ranges, lr_scale=scales)
        part.validate_cover(dim)
    except Exception as e:
        raise ConfigError(f"invalid layer partition: {e}") from e
    return part


def resolve_seeds(exp: ExperimentFile, n_seeds_override: int | None = None,
                  master_seed_override: int | None = None) -> tuple[int, ...]:
    rn = exp.run
    if "seeds" in rn and n_seeds_override is None and master_seed_override is None:
        return tuple(rn["seeds"])
    master = master_seed_override if master_seed_override is not None else rn.get("master_seed", 0)
    n = n_seeds_override if n_seeds_override is not None else rn.get("n_seeds", 1)
    if n < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n}")
    return tuple(master + i for i in range(n))


def resolve_rate(exp: ExperimentFile, problem, T: int, require_eta: bool = True):
    """(eta, beta, bound) for one horizon: schedule.eta0, else the theorem's
    eta, else optimizer.eta; the theorem's beta, else optimizer.beta (0.9);
    the theorem's ceiling, else None. With ``require_eta`` false the rate may
    be missing and the tuning goes unused: a sweep sets the rate itself."""
    op = exp.optimizer
    opt_id = op.get("id", "")
    theorem = op.get("theorem", "adaptive" if opt_id == "nigt_adaptive" else None)
    eta0 = exp.schedule.get("eta0")
    if eta0 is not None and eta0 <= 0.0:
        raise ConfigError(f"invalid schedule section: eta0 must be positive, got {eta0}")
    paired_id = THEOREM_METHODS.get(theorem)
    if theorem is not None and paired_id is None:
        raise ConfigError(f"optimizer.theorem must be 1, 2, or adaptive, got {theorem!r}")
    # a ceiling is only a guarantee for the method its theorem is about
    if paired_id is not None and opt_id != paired_id:
        raise ConfigError(f"theorem = {theorem} requires optimizer.id = {paired_id}, got {opt_id!r}")
    params = bound = None
    if theorem == "adaptive":
        if eta0 is not None:
            raise ConfigError("the self-tuning method sets its own step sizes; use a constant schedule")
    elif theorem is not None:
        try:
            params, bound = tuned(opt_id, problem, T)
        except (InvalidInput, ArithmeticError) as e:  # constants outside a rule's domain
            raise ConfigError(f"invalid hyperparameters: {e}") from e
    elif "eta" not in op and eta0 is None and require_eta:
        raise ConfigError("manual runs need optimizer.eta (or schedule.eta0)")
    elif "eta" in op and not (op["eta"] > 0.0 and 0.0 <= op.get("beta", 0.9) < 1.0):
        raise ConfigError("invalid hyperparameters: need eta > 0 and beta in [0, 1), "
                          f"got eta = {op['eta']}, beta = {op.get('beta', 0.9)}")
    if not require_eta:
        params = None
    eta = params.eta if params is not None else op.get("eta")
    beta = params.beta if params is not None else op.get("beta", 0.9)
    return (eta0 if eta0 is not None else eta), beta, bound


def build_run_config(exp: ExperimentFile, T: int | None = None,
                     seeds: tuple[int, ...] | None = None,
                     require_eta: bool = True) -> tuple[RunConfig, float | None]:
    """Assemble the runnable configuration (and the bound, when tuned)."""
    problem = build_problem(exp)
    op = exp.optimizer
    opt_id = _require(op, "id", "optimizer")
    if opt_id not in OPTIMIZER_IDS:
        raise ConfigError(f"unknown optimizer id {opt_id!r}; known: {OPTIMIZER_IDS}")
    if T is None:
        T = _require(exp.run, "T", "run")
    if seeds is None:
        seeds = resolve_seeds(exp)
    schedule = build_schedule(exp)
    eta, beta, bound = resolve_rate(exp, problem, T, require_eta)
    try:
        cfg = RunConfig(
            problem=problem,
            optimizer_id=opt_id,
            T=T,
            seeds=seeds,
            eta=eta,
            beta=beta,
            schedule=schedule,
            record_exact=exp.run.get("record_exact", True),
            g_bound=op.get("g_bound"),
            partition=build_partition(exp, problem.dim),
        )
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(f"invalid run configuration: {e}") from e
    return cfg, bound


def output_settings(exp: ExperimentFile, out_override: str | None = None) -> tuple[str, tuple[str, ...]]:
    out = exp.output
    directory = out_override if out_override is not None else out.get("dir", "results")
    formats = tuple(out.get("formats", ["csv", "json"]))
    bad = [f for f in formats if f not in ("csv", "json", "svg")]
    if bad:
        raise ConfigError(f"unknown output formats {bad}; allowed: csv, json, svg")
    return directory, formats
