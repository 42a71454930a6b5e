"""Line-oriented experiment files: ``section.key = value``.

Grammar (one statement per line):

    line     := blank | comment | statement
    comment  := '#' anything
    statement:= section '.' key '=' value
    value    := int | float | bool ('true'/'false') | bare string
              | comma-separated list of the above

Unknown sections or keys are rejected with a line/column diagnostic, and
once a command is built, so is every key that its builders below left
unread (:class:`Section`, :func:`refuse_unread`).
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
from pathlib import Path

from .core import MAX_LOG_CELLS, MAX_SEEDS, MAX_STATE_CELLS
from .errors import ConfigError, InvalidInput
from .harness import OPTIMIZER_IDS, RunConfig, grid_sweep, igt_moment_check
from .optimizers import METHODS, LayerPartition, Schedule, blockwise_move
from .problems import PROBLEM_KINDS, StochasticProblem, certify_constants, with_constants
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


class Section(dict):
    """The keys and values of one section. :attr:`read` holds each key that
    ``[]`` or ``get`` asked for; ``in`` asks for none."""

    read: frozenset[str] = frozenset()

    def __getitem__(self, key):
        self.read |= {key}
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default


@dataclass
class ExperimentFile:
    """Typed, raw (default-free) contents of one experiment file."""

    problem: Section = field(default_factory=Section)
    optimizer: Section = field(default_factory=Section)
    schedule: Section = field(default_factory=Section)
    run: Section = field(default_factory=Section)
    igt_check: Section = field(default_factory=Section)
    sweep: Section = field(default_factory=Section)
    certify: Section = field(default_factory=Section)
    output: Section = field(default_factory=Section)

    def section(self, name: str) -> Section:
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
    """The experiment file at ``path``; a :class:`ConfigError` names why it cannot be read."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    return parse_experiment(text)


# -- builders ---------------------------------------------------------------


def _require(store: dict, key: str, section: str):
    if key not in store:
        raise ConfigError(f"section {section!r} requires key {key!r}")
    return store[key]


def refuse_unread(exp: ExperimentFile, command: str) -> None:
    """Refuse every key of ``exp`` that building ``command`` left unread,
    before the command runs or writes anything."""
    # certify, igt-check and sweep pass their own section whole, which ``**`` does without reading a key
    whole = {"certify": "certify", "igt-check": "igt_check", "sweep": "sweep"}.get(command)
    opt_id = dict.get(exp.optimizer, "id")  # naming the owners reads no key
    owners = {"problem": f"problem kind {dict.get(exp.problem, 'kind')!r}"}
    if command in ("run", "sweep"):
        owners["optimizer"] = f"optimizer {opt_id!r}"
        owners["schedule"] = f"the {dict.get(exp.schedule, 'kind', 'constant')} schedule of optimizer {opt_id!r}"
    for name in _SCHEMA:
        section = exp.section(name)
        stray = set() if name == whole else set(section) - section.read
        if stray:
            owner = owners.get(name, f"{command} (section {name!r})")
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
    args = {name: pr[name] for name in params if name in pr}
    if args.get("dim", 1) > MAX_STATE_CELLS:
        raise ConfigError(f"problem.dim = {args['dim']} is above the limit of {MAX_STATE_CELLS}")
    overrides = {k: pr[k] for k in _CONSTANTS if k in pr}
    try:
        problem = make(**args)
        if overrides:
            problem = with_constants(problem, **overrides)
    except Exception as e:  # constructor and constant validation errors become config errors
        raise ConfigError(f"invalid problem section: {e}") from e
    return problem


def build_schedule(exp: ExperimentFile, opt_id: str | None = None) -> Schedule:
    """The section's keys are the fields of Schedule, with the same defaults.
    The self-tuning method reads no weight-norm scaling, and only a schedule
    that is not constant reads its warmup and power."""
    sc = exp.schedule
    keys = ["kind"] if opt_id is not None and METHODS[opt_id].self_tuning else ["kind", "weight_norm_scaling"]
    if sc.get("kind", Schedule.kind) != Schedule.kind:
        keys += ["warmup_steps", "power"]
    try:
        return Schedule(**{key: sc[key] for key in keys if key in sc})
    except InvalidInput as e:
        raise ConfigError(f"invalid schedule section: {e}") from e


def build_partition(exp: ExperimentFile) -> LayerPartition | None:
    """The layers' boundaries and rate scales, or None; RunConfig checks the cover."""
    op = exp.optimizer
    if "layers" not in op:
        return None
    bounds = op["layers"]
    try:
        return LayerPartition(tuple(bounds), tuple(op.get("lr_scale", [1.0] * (len(bounds) - 1))))
    except InvalidInput as e:
        raise ConfigError(f"invalid layer partition: {e}") from e


def master_seed(exp: ExperimentFile, override: int | None = None) -> int:
    """run.master_seed (0), or the command line's override, which reads it too."""
    seed = exp.run.get("master_seed", 0)
    return seed if override is None else override


def resolve_seeds(exp: ExperimentFile, T_key: str, T: int, n_seeds_override: int | None = None,
                  master_seed_override: int | None = None, dim: int = 1) -> tuple[int, ...]:
    """The seeds of a run whose longest run, ``T_key``, takes ``T`` steps,
    checked before they are built: at most :data:`MAX_SEEDS` of them,
    :data:`MAX_LOG_CELLS` log cells (steps times seeds) and
    :data:`MAX_STATE_CELLS` state cells (seeds times ``dim``). A seed flag
    reads the seed keys it overrides, all three; without one, a list is read
    in place of the count and master seed."""
    rn = exp.run
    listed = rn.get("seeds")
    if listed is not None and n_seeds_override is None and master_seed_override is None:
        key, n = "run.seeds", len(listed)
    else:
        listed, master, count = None, master_seed(exp, master_seed_override), rn.get("n_seeds", 1)
        key, n = ("run.n_seeds", count) if n_seeds_override is None else ("--seeds", n_seeds_override)
    if n < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n}")
    if n > MAX_SEEDS:
        raise ConfigError(f"{key} asks for {n} seeds, above the limit of {MAX_SEEDS}")
    if T * n > MAX_LOG_CELLS:
        raise ConfigError(f"{T_key} = {T} over {n} seeds is {T * n} log cells, above the limit of {MAX_LOG_CELLS}")
    if n * dim > MAX_STATE_CELLS:
        raise ConfigError(f"{key} asks for {n} seeds of problem.dim = {dim}, {n * dim} state cells, "
                          f"above the limit of {MAX_STATE_CELLS}")
    return tuple(listed) if listed is not None else tuple(master + i for i in range(n))


def resolve_rate(exp: ExperimentFile, opt_id: str, problem, T: int, sweep: bool = False):
    """(eta, beta, bound) of method ``opt_id`` for one horizon: the theorem's
    eta, beta and ceiling, else optimizer.eta (required), optimizer.beta (0.9)
    and no ceiling, whose domains RunConfig checks. The self-tuning method
    tunes itself, sgd has no beta, and a sweep's grid sets the rate (None
    here), so a sweep of the self-tuning method is refused."""
    op, method = exp.optimizer, METHODS[opt_id]
    if method.self_tuning:
        if sweep:
            raise ConfigError("the self-tuning method has no base rate to sweep")
        return None, 0.9, None
    theorem = None if sweep else op.get("theorem")
    paired_id = THEOREM_METHODS.get(theorem)
    if theorem is not None and paired_id is None:
        raise ConfigError(f"optimizer.theorem must be 1 or 2, got {theorem!r}")
    if paired_id is not None:
        # a ceiling is only a guarantee for the method its theorem is about
        if opt_id != paired_id:
            raise ConfigError(f"theorem = {theorem} requires optimizer.id = {paired_id}, got {opt_id!r}")
        try:
            params, bound = tuned(opt_id, problem, T)
        except (InvalidInput, ArithmeticError) as e:  # constants outside a rule's domain
            raise ConfigError(f"invalid hyperparameters: {e}") from e
        return params.eta, params.beta, bound
    eta = None if sweep else _require(op, "eta", "optimizer")
    return eta, op.get("beta", 0.9) if method.momentum else 0.9, None


def build_run_config(exp: ExperimentFile, n_seeds_override: int | None = None,
                     master_seed_override: int | None = None, sweep: bool = False) -> tuple[RunConfig, float | None]:
    """The runnable configuration, and the bound when tuned; a sweep's has no rate."""
    problem = build_problem(exp)
    op = exp.optimizer
    opt_id = _require(op, "id", "optimizer")
    if opt_id not in OPTIMIZER_IDS:
        raise ConfigError(f"unknown optimizer id {opt_id!r}; known: {OPTIMIZER_IDS}")
    T = _require(exp.run, "T", "run")
    seeds = resolve_seeds(exp, "run.T", T, n_seeds_override, master_seed_override, problem.dim)
    schedule = build_schedule(exp, opt_id)
    eta, beta, bound = resolve_rate(exp, opt_id, problem, T, sweep)
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
            partition=build_partition(exp) if METHODS[opt_id].move is blockwise_move else None,
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
    method at its own theorem's tuning for each horizon of the grid and
    then certifies the problem's constants."""
    problem = build_problem(exp)
    T_grid = _require(exp.run, "T_grid", "run")
    seeds = resolve_seeds(exp, "max(run.T_grid)", max(T_grid), n_seeds_override, master_seed_override, problem.dim)
    return problem, _require(exp.optimizer, "id", "optimizer"), T_grid, seeds


def output_dir(exp: ExperimentFile, override: str | None = None) -> str:
    """output.dir ("results"), or the command line's override, which reads it too."""
    directory = exp.output.get("dir", "results")
    return directory if override is None else override


def output_formats(exp: ExperimentFile) -> tuple[str, ...]:
    """output.formats, which only ``run`` reads."""
    formats = tuple(exp.output.get("formats", ["csv", "json"]))
    bad = [f for f in formats if f not in ("csv", "json", "svg")]
    if bad:
        raise ConfigError(f"unknown output formats {bad}; allowed: csv, json, svg")
    return formats
