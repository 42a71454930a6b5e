"""Line-oriented experiment files: ``section.key = value``.

Grammar (one statement per line):

    line     := blank | comment | statement
    comment  := '#' anything
    statement:= section '.' key '=' value
    value    := int | float | bool ('true'/'false') | bare string
              | comma-separated list of the above

Unknown sections or keys are rejected with a line/column diagnostic, and
before anything is built so is every key the command never reads
(:func:`read_keys`).
Parsing preserves exactly what was written (no defaults are injected), so
parse -> serialize -> parse is the identity; defaults are applied when an
:class:`ExperimentFile` is turned into runnable objects.

Defaults applied at build time: beta = 0.9, record_exact = true,
schedule constant, n_seeds = 1, master_seed = 0 (seed i = master_seed + i),
output dir "results", formats csv,json.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields

from .core import MAX_LOG_CELLS, MAX_SEEDS
from .errors import ConfigError, InvalidInput
from .harness import OPTIMIZER_IDS, RunConfig, grid_sweep, igt_moment_check
from .optimizers import LayerPartition, Schedule
from .problems import PROBLEM_KINDS, StochasticProblem, certify_constants, with_constants
from .reports import read_text
from .tuning import THEOREM_METHODS, tuned


def _type(annotation: str) -> str:
    """The value type of a parameter annotated ``int``, ``float``, ``bool`` or
    ``str``, or a ``Sequence[...]`` of one (a list), maybe ``| None``."""
    t = annotation.removesuffix(" | None")
    return f"{t[len('Sequence['):-1]}_list" if t.startswith("Sequence[") else t


def _keys(fn, *skip: str) -> dict[str, str]:
    """The names and value types of ``fn``'s parameters, but ``skip``."""
    return {p.name: _type(p.annotation) for p in inspect.signature(fn).parameters.values() if p.name not in skip}


# every maker's parameters, in PROBLEM_KINDS order; the declared constants no
# maker takes are overrides of every kind, which `certify` validates
_MAKER_PARAMS = {p.name: p for make in PROBLEM_KINDS.values() for p in inspect.signature(make).parameters.values()}
_CONSTANTS = {f.name: f.type for f in fields(StochasticProblem) if f.name not in _MAKER_PARAMS}

# each section's keys and value types, in file order: those of the function
# that reads the section, and by hand for the optimizer, run and output
# sections, which no single function reads
_SCHEMA: dict[str, dict[str, str]] = {
    "problem": {
        "kind": "str",
        # the parameters that default to None (the start and target points) last
        **{p.name: _type(p.annotation) for p in sorted(_MAKER_PARAMS.values(), key=lambda p: p.default is None)},
        **_CONSTANTS,
    },
    "optimizer": {
        "id": "str",
        "eta": "float",
        "beta": "float",
        "theorem": "str",  # "1" | "2"
        "layers": "int_list",  # block boundaries, e.g. 0,2,4
        "lr_scale": "float_list",
    },
    "schedule": {f.name: f.type for f in fields(Schedule)},
    "run": {
        "T": "int",
        "T_grid": "int_list",
        "seeds": "int_list",
        "n_seeds": "int",
        "master_seed": "int",
        "record_exact": "bool",
    },
    "igt_check": _keys(igt_moment_check, "problem", "seed"),
    "sweep": _keys(grid_sweep, "base"),
    "certify": _keys(certify_constants, "problem", "rng"),
    "output": {
        "dir": "str",
        "formats": "str_list",
    },
}


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
    for section in _SCHEMA:
        store = exp.section(section)
        for key in _SCHEMA[section]:
            if key in store:
                lines.append(f"{section}.{key} = {_format_value(store[key])}")
    return "\n".join(lines) + "\n"


def load_experiment(path) -> ExperimentFile:
    return parse_experiment(read_text(path))


# -- builders ---------------------------------------------------------------


def _require(store: dict, key: str, section: str):
    if key not in store:
        raise ConfigError(f"section {section!r} requires key {key!r}")
    return store[key]


def read_keys(exp: ExperimentFile, command: str, n_seeds_override: int | None = None,
              master_seed_override: int | None = None) -> dict[str, set[str]]:
    """The keys ``command`` reads in each section of ``exp``, given the seed
    flags. A method reads its rate unless a theorem tunes it (``run``) or the
    grid sets it (``sweep``). A kind, method or theorem that the file leaves
    out or names wrongly reads every key of its section: building refuses it."""
    op, own = exp.optimizer, command.replace("-", "_")
    make = PROBLEM_KINDS.get(exp.problem.get("kind"))
    # a seed flag overrides every seed key, as --out does output.dir; without
    # one, a seed list is read in place of the count and master seed
    seeds = ({"seeds", "n_seeds", "master_seed"} if n_seeds_override is not None or master_seed_override is not None
             else {"seeds"} if "seeds" in exp.run else {"n_seeds", "master_seed"})
    # certify, igt-check and sweep read their own section whole
    read = {"problem": {"kind", *inspect.signature(make).parameters, *_CONSTANTS} if make else set(_SCHEMA["problem"]),
            own: set(_SCHEMA.get(own, ())), "output": {"dir", "formats"} if command == "run" else {"dir"}}
    if command == "bounds":  # each horizon at its theorem's tuning
        return read | {"optimizer": {"id"}, "run": {"T_grid", *seeds}}
    if command in ("certify", "igt-check"):  # from the master seed alone
        return read | {"run": {"master_seed"}}
    opt_id, theorem = op.get("id"), op.get("theorem")
    # the self-tuning method sets its own rates, and sgd is memoryless: no beta
    rates = set() if opt_id == "nigt_adaptive" else {"beta"} if command == "sweep" else (
        {"theorem"} if theorem is not None else {"eta", "beta"})
    if opt_id == "sgd":
        rates.discard("beta")
    if opt_id == "nigt_layerwise":
        rates |= {"layers", "lr_scale"} if "layers" in op else {"layers"}
    schedule = {"kind"} if opt_id == "nigt_adaptive" else {"kind", "weight_norm_scaling"}
    if exp.schedule.get("kind", "constant") != "constant":
        schedule |= {"warmup_steps", "power"}
    if opt_id not in OPTIMIZER_IDS or "theorem" in rates and THEOREM_METHODS.get(theorem) != opt_id:
        rates, schedule = set(_SCHEMA["optimizer"]), set(_SCHEMA["schedule"])
    return read | {"optimizer": {"id", *rates}, "schedule": schedule, "run": {"T", "record_exact", *seeds}}


def refuse_unread(exp: ExperimentFile, command: str, n_seeds_override: int | None = None,
                  master_seed_override: int | None = None) -> None:
    """Refuse every key of ``exp`` that ``command`` never reads (:func:`read_keys`),
    before anything is built."""
    read = read_keys(exp, command, n_seeds_override, master_seed_override)
    opt_id = exp.optimizer.get("id")
    owners = {"problem": f"problem kind {exp.problem.get('kind')!r}"}
    if command in ("run", "sweep"):
        owners["optimizer"] = f"optimizer {opt_id!r}"
        owners["schedule"] = f"the {exp.schedule.get('kind', 'constant')} schedule of optimizer {opt_id!r}"
    for section in _SCHEMA:
        stray = set(exp.section(section)) - read.get(section, set())
        if stray:
            owner = owners.get(section, f"{command} (section {section!r})")
            raise ConfigError(f"keys {sorted(stray)} do not apply to {owner}")


def build_problem(exp: ExperimentFile):
    pr = exp.problem
    kind = _require(pr, "kind", "problem")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {tuple(PROBLEM_KINDS)}")
    make = PROBLEM_KINDS[kind]
    params = inspect.signature(make).parameters
    for name, param in params.items():
        if param.default is param.empty:
            _require(pr, name, "problem")
    if pr.get("dim", 1) > MAX_LOG_CELLS:
        raise ConfigError(f"problem.dim = {pr['dim']} is above the limit of {MAX_LOG_CELLS}")
    overrides = {k: pr[k] for k in _CONSTANTS if k in pr}
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


def resolve_rate(exp: ExperimentFile, opt_id: str, problem, T: int):
    """(eta, beta, bound) of method ``opt_id`` for one horizon: the theorem's
    eta, beta and ceiling, else optimizer.eta (None when unset: a sweep sets
    the rate, and the self-tuning method tunes it), optimizer.beta (0.9) and
    no ceiling."""
    op = exp.optimizer
    theorem = op.get("theorem")
    paired_id = THEOREM_METHODS.get(theorem)
    if theorem is not None and paired_id is None:
        raise ConfigError(f"optimizer.theorem must be 1 or 2, got {theorem!r}")
    # a ceiling is only a guarantee for the method its theorem is about
    if paired_id is not None and opt_id != paired_id:
        raise ConfigError(f"theorem = {theorem} requires optimizer.id = {paired_id}, got {opt_id!r}")
    if paired_id is not None:
        try:
            params, bound = tuned(opt_id, problem, T)
        except (InvalidInput, ArithmeticError) as e:  # constants outside a rule's domain
            raise ConfigError(f"invalid hyperparameters: {e}") from e
        return params.eta, params.beta, bound
    eta, beta = op.get("eta"), op.get("beta", 0.9)
    if eta is not None and not (eta > 0.0 and 0.0 <= beta < 1.0):
        raise ConfigError(f"invalid hyperparameters: need eta > 0 and beta in [0, 1), got eta = {eta}, beta = {beta}")
    return eta, beta, None


def build_run_config(exp: ExperimentFile, n_seeds_override: int | None = None,
                     master_seed_override: int | None = None) -> tuple[RunConfig, float | None]:
    """Assemble the runnable configuration (and the bound, when tuned)."""
    problem = build_problem(exp)
    op = exp.optimizer
    opt_id = _require(op, "id", "optimizer")
    if opt_id not in OPTIMIZER_IDS:
        raise ConfigError(f"unknown optimizer id {opt_id!r}; known: {OPTIMIZER_IDS}")
    T = _require(exp.run, "T", "run")
    seeds = resolve_seeds(exp, n_seeds_override, master_seed_override, problem.dim)
    schedule = build_schedule(exp)
    eta, beta, bound = resolve_rate(exp, opt_id, problem, T)
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
    """(problem, optimizer id, T grid, seeds) of ``bounds``, which runs the
    method at its own theorem's tuning for each horizon of the grid."""
    problem = build_problem(exp)
    if "T_grid" not in exp.run:
        raise ConfigError("bounds needs run.T_grid")
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
