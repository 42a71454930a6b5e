"""Line-oriented experiment files: ``section.key = value``.

Grammar (one statement per line):

    line     := blank | comment | statement
    comment  := '#' anything
    statement:= section '.' key '=' value
    value    := int | float | bool ('true'/'false') | bare string
              | comma-separated list of the above

Unknown sections or keys are rejected with a line/column diagnostic, and
at build time so is a key the chosen problem, method or schedule never reads.
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

from .core import MAX_LOG_CELLS, MAX_SEEDS
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
        "theorem": "str",  # "1" | "2"
        "layers": "int_list",  # block boundaries, e.g. 0,2,4
        "lr_scale": "float_list",
    },
    "schedule": {
        "kind": "str",
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

# the optimizer keys each method reads besides id (theorem, eta and beta
# when not listed); lr_scale scales the layers, so it is read only with them
_METHOD_KEYS = {"sgd": {"theorem", "eta"}, "nigt_layerwise": {"theorem", "eta", "beta", "layers", "lr_scale"},
                "nigt_adaptive": set()}


def _refuse_stray(store: dict, read: set, owner: str) -> None:
    """Refuse the keys of a section that ``owner`` never reads."""
    stray = set(store) - read
    if stray:
        raise ConfigError(f"keys {sorted(stray)} do not apply to {owner}")


def build_problem(exp: ExperimentFile):
    pr = exp.problem
    kind = _require(pr, "kind", "problem")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {tuple(PROBLEM_KINDS)}")
    make = PROBLEM_KINDS[kind]
    params = inspect.signature(make).parameters
    _refuse_stray(pr, {"kind"} | set(params) | _OVERRIDE_KEYS, f"problem kind {kind!r}")
    for name, param in params.items():
        if param.default is param.empty:
            _require(pr, name, "problem")
    if pr.get("dim", 1) > MAX_LOG_CELLS:
        raise ConfigError(f"problem.dim = {pr['dim']} is above the limit of {MAX_LOG_CELLS}")
    overrides = {k: pr[k] for k in sorted(_OVERRIDE_KEYS) if k in pr}
    try:
        problem = make(**{name: pr[name] for name in params if name in pr})
        if overrides:
            problem = with_constants(problem, **overrides)
    except Exception as e:  # constructor and constant validation errors become config errors
        raise ConfigError(f"invalid problem section: {e}") from e
    return problem


def build_schedule(exp: ExperimentFile) -> Schedule:
    # the section's keys are the fields of Schedule, with the same defaults
    try:
        return Schedule(**exp.schedule)
    except InvalidInput as e:
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


def master_seed(exp: ExperimentFile, override: int | None = None) -> int:
    """run.master_seed (0 by default), or the command line's override of it."""
    return override if override is not None else exp.run.get("master_seed", 0)


def resolve_seeds(exp: ExperimentFile, n_seeds_override: int | None = None,
                  master_seed_override: int | None = None, dim: int = 1) -> tuple[int, ...]:
    """The seeds of a run, checked before they are built: at most
    :data:`MAX_SEEDS` of them, and at most :data:`MAX_LOG_CELLS` log cells
    (steps of its longest run times seeds) and state cells (seeds times the
    problem's ``dim``)."""
    rn = exp.run
    listed = "seeds" in rn and n_seeds_override is None and master_seed_override is None
    if listed:
        key, n = "run.seeds", len(rn["seeds"])
    elif n_seeds_override is not None:
        key, n = "--seeds", n_seeds_override
    else:
        key, n = "run.n_seeds", rn.get("n_seeds", 1)
    if n < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n}")
    if n > MAX_SEEDS:
        raise ConfigError(f"{key} asks for {n} seeds, above the limit of {MAX_SEEDS}")
    T_key, T = ("run.T", rn["T"]) if "T" in rn else ("max(run.T_grid)", max(rn.get("T_grid", [0])))
    if T * n > MAX_LOG_CELLS:
        raise ConfigError(f"{T_key} = {T} over {n} seeds is {T * n} log cells, above the limit of {MAX_LOG_CELLS}")
    if n * dim > MAX_LOG_CELLS:
        raise ConfigError(f"{key} asks for {n} seeds of problem.dim = {dim}, {n * dim} state cells, "
                          f"above the limit of {MAX_LOG_CELLS}")
    if listed:
        return tuple(rn["seeds"])
    master = master_seed(exp, master_seed_override)
    return tuple(master + i for i in range(n))


def resolve_rate(exp: ExperimentFile, opt_id: str, problem, T: int, require_eta: bool = True):
    """(eta, beta, bound) of method ``opt_id`` for one horizon: the theorem's
    eta, else optimizer.eta; the theorem's beta, else optimizer.beta (0.9);
    the theorem's ceiling, else None. With ``require_eta`` false the rate may
    be missing and the tuning goes unused: a sweep sets the rate itself."""
    op = exp.optimizer
    if opt_id == "nigt_adaptive":  # sets its own rates as it runs
        return None, 0.9, None
    theorem = op.get("theorem")
    paired_id = THEOREM_METHODS.get(theorem)
    if theorem is not None and paired_id is None:
        raise ConfigError(f"optimizer.theorem must be 1 or 2, got {theorem!r}")
    # a ceiling is only a guarantee for the method its theorem is about
    if paired_id is not None and opt_id != paired_id:
        raise ConfigError(f"theorem = {theorem} requires optimizer.id = {paired_id}, got {opt_id!r}")
    params = bound = None
    if paired_id is not None:
        try:
            params, bound = tuned(opt_id, problem, T)
        except (InvalidInput, ArithmeticError) as e:  # constants outside a rule's domain
            raise ConfigError(f"invalid hyperparameters: {e}") from e
    elif theorem is None and "eta" not in op and require_eta:
        raise ConfigError("manual runs need optimizer.eta")
    elif theorem is None and "eta" in op and not (op["eta"] > 0.0 and 0.0 <= op.get("beta", 0.9) < 1.0):
        raise ConfigError("invalid hyperparameters: need eta > 0 and beta in [0, 1), "
                          f"got eta = {op['eta']}, beta = {op.get('beta', 0.9)}")
    if params is None or not require_eta:
        return op.get("eta"), op.get("beta", 0.9), bound
    return params.eta, params.beta, bound


def build_run_config(exp: ExperimentFile, n_seeds_override: int | None = None,
                     master_seed_override: int | None = None,
                     require_eta: bool = True) -> tuple[RunConfig, float | None]:
    """Assemble the runnable configuration (and the bound, when tuned)."""
    problem = build_problem(exp)
    op = exp.optimizer
    opt_id = _require(op, "id", "optimizer")
    if opt_id not in OPTIMIZER_IDS:
        raise ConfigError(f"unknown optimizer id {opt_id!r}; known: {OPTIMIZER_IDS}")
    T = _require(exp.run, "T", "run")
    seeds = resolve_seeds(exp, n_seeds_override, master_seed_override, problem.dim)
    schedule = build_schedule(exp)
    eta, beta, bound = resolve_rate(exp, opt_id, problem, T, require_eta)
    # a key that the method or its schedule never reads is refused, not ignored
    read = {"id"} | _METHOD_KEYS.get(opt_id, {"theorem", "eta", "beta"})
    _refuse_stray(op, read if "layers" in op else read - {"lr_scale"}, f"optimizer {opt_id!r}")
    read = {"kind"} if opt_id == "nigt_adaptive" else {"kind", "weight_norm_scaling"}
    _refuse_stray(exp.schedule, read if schedule.kind == "constant" else read | {"warmup_steps", "power"},
                  f"the {schedule.kind} schedule of optimizer {opt_id!r}")
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
            partition=build_partition(exp, problem.dim),
        )
    except InvalidInput as e:
        raise ConfigError(f"invalid run configuration: {e}") from e
    # a ceiling is checked on exact logs of the run its theorem is about: a
    # constant rate on unscaled weights
    if bound is not None and (schedule != Schedule() or not cfg.record_exact):
        raise ConfigError(f"theorem = {op['theorem']} is checked on exact logs of a constant rate: it requires "
                          "schedule.kind = constant, schedule.weight_norm_scaling = false, run.record_exact = true")
    return cfg, bound


def bounds_settings(exp: ExperimentFile, n_seeds_override: int | None = None,
                    master_seed_override: int | None = None):
    """(problem, optimizer id, T grid, seeds) of ``bounds``. It runs the
    method at its own theorem's tuning for each horizon of the grid, so any
    other optimizer, schedule or run key is refused, not ignored."""
    problem = build_problem(exp)
    if "T_grid" not in exp.run:
        raise ConfigError("bounds needs run.T_grid")
    for section, read in (("optimizer", {"id"}), ("schedule", set()),
                          ("run", {"T_grid", "seeds", "n_seeds", "master_seed"})):
        _refuse_stray(exp.section(section), read, f"bounds (section {section!r})")
    seeds = resolve_seeds(exp, n_seeds_override, master_seed_override, problem.dim)
    return problem, exp.optimizer.get("id"), exp.run["T_grid"], seeds


def output_settings(exp: ExperimentFile, out_override: str | None = None) -> tuple[str, tuple[str, ...]]:
    out = exp.output
    directory = out_override if out_override is not None else out.get("dir", "results")
    formats = tuple(out.get("formats", ["csv", "json"]))
    bad = [f for f in formats if f not in ("csv", "json", "svg")]
    if bad:
        raise ConfigError(f"unknown output formats {bad}; allowed: csv, json, svg")
    return directory, formats
