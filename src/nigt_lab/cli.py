"""Batch front door: parse an experiment file, dispatch, emit results.

Exit codes: 0 success, 1 usage or configuration error, 2 a check failed
(bound exceeded, invariant violated, certification contradicted, run
diverged).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from .config import (
    build_problem,
    build_run_config,
    load_experiment,
    output_settings,
    resolve_seeds,
)
from .errors import CertificationFailure, ConfigError, Diverged, NigtLabError, NoResults
from .harness import (
    DEFAULT_ETA_GRID,
    bound_acceptance,
    grid_sweep,
    igt_moment_check,
    rate_diagnostic,
    run,
)
from .problems import NoisyQuadratic, certify_constants
from .core import RngStream
from .reports import format_num, json_dumps, plot_results_dir, write_run_outputs, write_text_atomic

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


def _rows_to_csv(header: str, rows: list[list]) -> str:
    lines = [header]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(format_num(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _jobs(args) -> int:
    if args.jobs is not None:
        return max(1, args.jobs)
    env = os.environ.get("NIGT_LAB_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"NIGT_LAB_JOBS must be an integer, got {env!r}") from None
    return 1


def cmd_run(args) -> int:
    exp = load_experiment(args.config)
    out_dir, formats = output_settings(exp, args.out)
    seeds = resolve_seeds(exp, args.seeds, args.master_seed)
    cfg, bound = build_run_config(exp, seeds=seeds)
    if bound is not None and not cfg.record_exact:
        raise ConfigError("bound checking needs run.record_exact = true")
    records = run(cfg, jobs=_jobs(args))

    no_move_count = sum(int(r.no_move.sum()) for r in records)
    violations = [dict(asdict(e), seed=r.seed) for r in records for e in r.invariant_violations]
    avg = stderr = None
    if cfg.record_exact:
        per_seed = np.array([r.avg_grad_norm() for r in records])
        avg = float(per_seed.mean())
        stderr = float(per_seed.std(ddof=1) / np.sqrt(len(per_seed))) if len(per_seed) > 1 else 0.0
    passed = not violations
    if bound is not None:
        passed = passed and (avg + 3.0 * stderr <= bound)
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


def cmd_certify(args) -> int:
    exp = load_experiment(args.config)
    out_dir, _ = output_settings(exp, args.out)
    problem = build_problem(exp)
    n_pairs = exp.certify.get("n_pairs", 400)
    radius = exp.certify.get("radius", 10.0)
    master = exp.run.get("master_seed", 0)
    failed = False
    try:
        report = certify_constants(problem, n_pairs=n_pairs, radius=radius,
                                   rng=RngStream(master, 17))
    except CertificationFailure as e:
        report = e.report
        failed = True
    text = json_dumps(asdict(report))
    sys.stdout.write(text)
    write_text_atomic(os.path.join(out_dir, "certify.json"), text)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_igt_check(args) -> int:
    exp = load_experiment(args.config)
    out_dir, _ = output_settings(exp, args.out)
    problem = build_problem(exp)
    if not isinstance(problem, NoisyQuadratic):
        raise ConfigError(f"igt-check needs a {NoisyQuadratic.kind} problem (constant Hessian)")
    checkpoints = exp.igt_check.get("checkpoints", [1, 10, 100])
    n_runs = exp.igt_check.get("n_runs", 10_000)
    master = exp.run.get("master_seed", 0)
    report = igt_moment_check(problem, checkpoints, n_runs, master)
    write_text_atomic(os.path.join(out_dir, "igt_check.json"), json_dumps(asdict(report)))
    rows = [[c.k, c.bias_norm, c.variance, c.target_variance, c.bias_limit, c.n_runs, c.passed]
            for c in report.checkpoints]
    write_text_atomic(
        os.path.join(out_dir, "igt_check.csv"),
        _rows_to_csv("k,bias_norm,variance,target_variance,bias_limit,n_runs,passed", rows),
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_sweep(args) -> int:
    exp = load_experiment(args.config)
    out_dir, _ = output_settings(exp, args.out)
    seeds = resolve_seeds(exp, args.seeds, args.master_seed)
    cfg, _ = build_run_config(exp, seeds=seeds, require_eta=False)
    grid = exp.sweep.get("eta_grid", list(DEFAULT_ETA_GRID))
    report = grid_sweep(cfg, grid, jobs=_jobs(args))
    write_text_atomic(os.path.join(out_dir, "sweep.json"), json_dumps(asdict(report)))
    rows = [[r.eta0, r.final_grad_norm] for r in report.rows]
    write_text_atomic(os.path.join(out_dir, "sweep.csv"),
                      _rows_to_csv("eta0,final_grad_norm", rows))
    return EXIT_OK


def cmd_bounds(args) -> int:
    exp = load_experiment(args.config)
    out_dir, _ = output_settings(exp, args.out)
    problem = build_problem(exp)
    opt_id = exp.optimizer.get("id")
    if opt_id not in ("nsgdm", "nigt"):
        raise ConfigError(f"bounds needs optimizer.id nsgdm or nigt, got {opt_id!r}")
    if "T_grid" not in exp.run:
        raise ConfigError("bounds needs run.T_grid")
    seeds = resolve_seeds(exp, args.seeds, args.master_seed)
    failed = False
    try:
        report = bound_acceptance(problem, opt_id, exp.run["T_grid"], seeds, jobs=_jobs(args))
    except CertificationFailure as e:
        sys.stderr.write(f"containment certification failed: {e}\n")
        return EXIT_CHECK_FAILED
    payload = asdict(report)
    try:
        payload["loglog_slope"] = rate_diagnostic(report)
    except NigtLabError:
        payload["loglog_slope"] = None
    write_text_atomic(os.path.join(out_dir, "bounds.json"), json_dumps(payload))
    rows = [[r.T, r.mean_avg_grad_norm, r.stderr, r.bound, r.passed] for r in report.rows]
    write_text_atomic(os.path.join(out_dir, "bounds.csv"),
                      _rows_to_csv("T,mean_avg_grad_norm,stderr,bound,passed", rows))
    failed = not report.passed
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_plot(args) -> int:
    plot_results_dir(args.results_dir, args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="nigt-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", required=True, help="experiment file path")
        sp.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        sp.add_argument("--seeds", type=int, default=None, help="number of seeds (overrides run.n_seeds)")
        sp.add_argument("--master-seed", type=int, default=None, dest="master_seed",
                        help="base seed (overrides run.master_seed)")
        sp.add_argument("--jobs", type=int, default=None,
                        help="parallel workers across seeds/grid points (env NIGT_LAB_JOBS)")

    sp = sub.add_parser("run", help="execute a seeded run and emit CSV/JSON/SVG")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("certify", help="validate declared problem constants")
    common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("igt-check", help="gradient-transport moment verification")
    common(sp)
    sp.set_defaults(func=cmd_igt_check)

    sp = sub.add_parser("sweep", help="base-rate grid sweep")
    common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bounds", help="one-sided average-gradient bound table")
    common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("plot", help="SVG charts from a results directory")
    sp.add_argument("results_dir", help="directory containing seed_*.csv files")
    sp.add_argument("--out", default=None, help="chart output directory (default: results_dir)")
    sp.set_defaults(func=cmd_plot)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except (ConfigError, NoResults) as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_USAGE
    except Diverged as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CHECK_FAILED
    except NigtLabError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
