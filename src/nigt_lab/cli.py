"""Batch front door: parse an experiment file, dispatch, emit results.

Each command is built, refuses every key its build left unread
(``config.refuse_unread``), and only then runs and writes. The certify,
igt_check and sweep sections pass straight through to the function that
reads them: their keys and defaults are its parameters.

Exit codes: 0 success, 1 usage or configuration error, 2 a check failed
(bound exceeded, invariant violated, declared constant contradicted, run
diverged).
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import asdict

from .config import (
    bounds_settings,
    build_problem,
    build_run_config,
    load_experiment,
    master_seed,
    output_dir,
    output_formats,
    refuse_unread,
)
from .errors import CertificationFailure, ConfigError, ConstantRefuted, Diverged, NigtLabError
from .harness import (
    bound_acceptance,
    check_declared_R,
    grid_sweep,
    igt_moment_check,
    rate_diagnostic,
    run,
)
from .problems import certify_constants
from .core import RngStream
from .reports import json_dumps, refuse_stale_seeds, write_report, write_run_outputs
from .tuning import bound_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the exit-code contract
    # reserves 2 for failed checks, so route usage errors to 1 instead.
    def error(self, message):
        raise _UsageError(message)


def cmd_run(exp, args, out_dir) -> int:
    formats = output_formats(exp)
    cfg, bound = build_run_config(exp, args.seeds, args.master_seed)
    refuse_unread(exp, args.command)
    refuse_stale_seeds(out_dir, cfg.seeds, formats)
    records = run(cfg)
    if bound is not None:  # the ceiling reads R
        check_declared_R(cfg.problem, records)

    no_move_count = sum(int(r.no_move.sum()) for r in records)
    violations = [dict(asdict(e), seed=r.seed) for r in records for e in r.invariant_violations]
    avg, stderr, within_bound = (bound_check([r.avg_grad_norm() for r in records], bound)
                                 if cfg.record_exact else (None, None, True))
    passed = not violations and within_bound
    summary = {
        "problem": cfg.problem.problem_id,
        "optimizer": cfg.optimizer_id,
        "T": cfg.T,
        "seeds": list(cfg.seeds),
        "avg_grad_norm": avg,
        "stderr": stderr,
        "bound": bound,
        "pass": passed,
        "no_move_count": no_move_count,
        "invariant_violations": violations,
    }
    write_run_outputs(records, out_dir, formats, summary)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_certify(exp, args, out_dir) -> int:
    problem, seed = build_problem(exp), master_seed(exp, args.master_seed)
    refuse_unread(exp, args.command)
    try:
        report, code = certify_constants(problem, rng=RngStream(seed, 17), **exp.certify), EXIT_OK
    except CertificationFailure as e:
        report, code = e.report, EXIT_CHECK_FAILED
    payload = asdict(report)
    sys.stdout.write(json_dumps(payload))
    write_report(out_dir, "certify", payload)
    return code


def cmd_igt_check(exp, args, out_dir) -> int:
    problem, seed = build_problem(exp), master_seed(exp, args.master_seed)
    refuse_unread(exp, args.command)
    report = igt_moment_check(problem, seed=seed, **exp.igt_check)
    rows = [[c.k, c.bias_norm, c.variance, c.target_variance, c.bias_limit, c.n_runs, c.passed]
            for c in report.checkpoints]
    write_report(out_dir, "igt_check", asdict(report),
                 "k,bias_norm,variance,target_variance,bias_limit,n_runs,passed", rows)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sweep(exp, args, out_dir) -> int:
    cfg, _ = build_run_config(exp, args.seeds, args.master_seed, sweep=True)
    refuse_unread(exp, args.command)
    report = grid_sweep(cfg, **exp.sweep)
    write_report(out_dir, "sweep", asdict(report), "eta0,final_grad_norm",
                 [[r.eta0, r.final_grad_norm] for r in report.rows])
    return EXIT_OK


def cmd_bounds(exp, args, out_dir) -> int:
    problem, opt_id, T_grid, seeds = bounds_settings(exp, args.seeds, args.master_seed)
    refuse_unread(exp, args.command)
    try:
        report = bound_acceptance(problem, opt_id, T_grid, seeds)
    except CertificationFailure as e:
        sys.stderr.write(f"containment certification failed: {e}\n")
        return EXIT_CHECK_FAILED
    rows = [[r.T, r.mean_avg_grad_norm, r.stderr, r.bound, r.passed] for r in report.rows]
    payload = asdict(report)
    try:
        payload["loglog_slope"] = rate_diagnostic([row[:2] for row in rows])
    except NigtLabError:
        payload["loglog_slope"] = None
    write_report(out_dir, "bounds", payload, "T,mean_avg_grad_norm,stderr,bound,passed", rows)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    p = _Parser(prog="nigt-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # certify and igt-check draw from the master seed alone: no seed count
    for name, func, seed_count, text in (
        ("run", cmd_run, True, "execute a seeded run and emit CSV/JSON/SVG"),
        ("certify", cmd_certify, False, "validate declared problem constants"),
        ("igt-check", cmd_igt_check, False, "gradient-transport moment verification"),
        ("sweep", cmd_sweep, True, "base-rate grid sweep"),
        ("bounds", cmd_bounds, True, "one-sided average-gradient bound table"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="experiment file path")
        sp.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        if seed_count:
            sp.add_argument("--seeds", type=int, default=None, help="number of seeds (overrides run.n_seeds)")
        sp.add_argument("--master-seed", type=int, default=None, dest="master_seed",
                        help="base seed (overrides run.master_seed)")
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        exp = load_experiment(args.config)
        return args.func(exp, args, output_dir(exp, args.out))
    except _UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_USAGE
    except NigtLabError as e:  # a run that diverged or refuted a declared constant failed a check
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CHECK_FAILED if isinstance(e, (Diverged, ConstantRefuted)) else EXIT_USAGE


def main_entry() -> None:
    # What is alive now (modules, numpy's state, the classes) lives until
    # exit: frozen, the command's collections skip it and the interpreter
    # does not tear it down at exit. What the command makes is collected
    # and finalized as usual. In-process callers of main keep their GC.
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
