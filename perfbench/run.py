#!/usr/bin/env python3
"""Benchmark of the nigt-lab command line, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are the experiment files in ``perfbench/workloads/``; the seed is
passed to the CLI as ``--master-seed``. Every invocation's outputs are
checked (see ``checks.py``). The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit, median, quartiles and sample
count. A run record with every raw sample is written to ``perfbench/out/``.

``--trace 0`` (end to end): one client in a closed loop runs
``python -m nigt_lab.cli`` as a child process, serially with the default
``--jobs 1``, for up to ``--seconds`` seconds. Before the loop it runs one
untimed warm-up invocation at the pinned seed, checked against
``digests.json``; before each timed invocation it times the set-up once
(``setup_probe.py``), and after each one, and once before the first, it
times the fixed reference program ``reference.py``.

Timings are host-normalised: each is scaled by ``REFERENCE_S`` over the
median time of the run's reference programs, so it reads as seconds on a
host where ``reference.py`` takes ``REFERENCE_S``. A run reports the median
of every metric; the table printed before the result also gives the
quartiles and the sample count. On a shared 2-vCPU Xeon virtual machine,
other tenants slowed processes by 1.1x to 2x in states that switch within
seconds and whose share drifts over minutes, so a run's raw timings moved
with the share of slow states during that run: over ten seeds, the quartile
spread of the raw median wall time was 0.07 to 0.24 of its median, and of
the fastest raw invocation up to 0.46. The reference program, run
alternately with the invocations, sees the same states, and in the same
sets the spread of the scaled median was 0.04 to 0.11. Raw times stay in
the run record.

``--trace 1`` (per layer): the CLI runs inside this process, alternately
untraced and traced with the wrappers of ``tracing.py``, for ``--seconds``
seconds. Each per-layer time is the smallest over the traced invocations
(counts are the same in all of them), and ``trace.overhead_s`` is the
fastest traced minus the fastest untraced wall time. Every span is written
to ``perfbench/out/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = BENCH / "workloads"

PINNED_SEED = 0  # run.master_seed of every workload file; digests.json is taken there
INVOCATION_TIMEOUT_S = 60.0
REFERENCE_S = 0.5  # timings are scaled to a host where reference.py takes this long

# name -> (unit, how a run's samples reduce to its value)
END_TO_END = {
    "wall_s": ("s", statistics.median),
    "steps_per_s": ("1/s", statistics.median),
    "cpu_s": ("s", statistics.median),
    "setup_s": ("s", statistics.median),
    "peak_rss_mb": ("MB", statistics.median),
    "output_bytes": ("bytes", statistics.median),
}
PER_LAYER = {name: (unit, min) for name, unit in {
    "config.build.self_s": "s",
    "problems.sample_grad.calls": "count",
    "problems.sample_grad.self_s": "s",
    "problems.sample_grad.us_per_call": "us",
    "problems.exact.calls": "count",
    "problems.exact.self_s": "s",
    "problems.certify.self_s": "s",
    "optimizers.step.calls": "count",
    "optimizers.step.self_s": "s",
    "optimizers.step.us_per_call": "us",
    "harness.loop.self_s": "s",
    "harness.log.self_s": "s",
    "harness.log.us_per_step": "us",
    "reports.csv.self_s": "s",
    "reports.csv.format_per_file": "count",
    "reports.csv_parse.self_s": "s",
    "reports.svg.self_s": "s",
    "reports.write.self_s": "s",
    "reports.write.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}.items()}


class BenchError(Exception):
    """The benchmark itself cannot run here (as opposed to a failed check)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- one invocation ----------------------------------------------------------


class Client:
    """Runs and checks invocations of one workload; keeps every sample."""

    def __init__(self, wl: checks.Workload, work_dir: Path):
        self.wl = wl
        self.work_dir = work_dir
        self.samples = []
        self.errors = []
        digests = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        self.pinned = digests[wl.name]
        self._first_digests = {}  # master seed -> digests of its first run
        self._reference_output = None

    def _out_dir(self) -> Path:
        out = self.work_dir / "results"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def record(self, kind: str, master_seed: int, exit_code: int, out_dir: Path, **measured) -> dict:
        pinned = self.pinned if master_seed == PINNED_SEED else None
        errors = checks.check_outputs(self.wl, out_dir, master_seed, exit_code, pinned)
        if not errors:
            # same seed, same bytes: every rerun must reproduce the first
            digests = checks.file_digests(out_dir)
            first = self._first_digests.setdefault(master_seed, digests)
            if digests != first:
                errors.append("outputs differ from an earlier run with the same seed")
        files = [p for p in out_dir.iterdir() if p.is_file()] if out_dir.is_dir() else []
        sample = dict(kind=kind, master_seed=master_seed, exit_code=exit_code,
                      output_bytes=sum(p.stat().st_size for p in files),
                      seed_csv_files=sum(p.name.startswith("seed_") for p in files),
                      errors=errors, **measured)
        self.samples.append(sample)
        self.errors += errors
        return sample

    def run_child(self, kind: str, master_seed: int) -> dict:
        """One ``python -m nigt_lab.cli`` child process, timed with its rusage."""
        out = self._out_dir()
        argv = [sys.executable, "-m", "nigt_lab.cli", *self.wl.argv(master_seed, out)]
        with open(self.work_dir / "stderr.txt", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")[-2000:]
        sample = self.record(kind, master_seed, proc.returncode, out, wall_s=wall,
                             cpu_s=usage.ru_utime + usage.ru_stime,
                             peak_rss_mb=usage.ru_maxrss / 1024.0)
        if sample["errors"] and stderr:
            sample["stderr"] = stderr
        return sample

    def run_in_process(self, kind: str, master_seed: int, main, tracer=None) -> dict:
        """One ``cli.main`` call in this process, optionally as a traced root span."""
        out = self._out_dir()
        argv = self.wl.argv(master_seed, out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = tracer.root(main, argv) if tracer is not None else main(argv)
            except Exception:  # a crash is a failed invocation, not a benchmark error
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - t0
        sample = self.record(kind, master_seed, code, out, wall_s=wall)
        if sample["errors"]:
            sample["stderr"] = sink.getvalue()[-2000:]
        return sample

    def setup_seconds(self, master_seed: int) -> float:
        """Process start to the first oracle call, via ``setup_probe.py``."""
        argv = [sys.executable, str(BENCH / "setup_probe.py"), *self.wl.argv(master_seed, self._out_dir())]
        t0 = time.monotonic_ns()
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return (int(proc.stdout.split()[-1]) - t0) / 1e9

    def reference_seconds(self) -> float:
        """Wall time of one run of the fixed reference program ``reference.py``."""
        argv = [sys.executable, str(BENCH / "reference.py")]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"reference program exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        output = proc.stdout.strip()
        if self._reference_output is None:
            self._reference_output = output
        elif output != self._reference_output:
            raise BenchError(f"reference program printed {output!r}, before {self._reference_output!r}")
        return seconds


# -- the two modes -------------------------------------------------------------


def end_to_end(client: Client, master_seed: int, seconds: float) -> dict[str, list[float]]:
    client.run_child("warmup", PINNED_SEED)
    t_end = time.perf_counter() + seconds
    setup, timed, reference = [], [], [client.reference_seconds()]
    while True:
        t0 = time.perf_counter()
        setup.append(client.setup_seconds(master_seed))
        timed.append(client.run_child("timed", master_seed))
        reference.append(client.reference_seconds())
        now = time.perf_counter()
        if now + (now - t0) > t_end:  # the next round would overrun the run
            break
    factor = REFERENCE_S / statistics.median(reference)
    return {
        "wall_s": [s["wall_s"] * factor for s in timed],
        "steps_per_s": [client.wl.steps / (s["wall_s"] * factor) for s in timed],
        "cpu_s": [s["cpu_s"] * factor for s in timed],
        "setup_s": [t * factor for t in setup],
        "peak_rss_mb": [s["peak_rss_mb"] for s in timed],
        "output_bytes": [float(s["output_bytes"]) for s in timed],
        "reference_s": reference,
        "host_factor": [factor],
    }


def _layer_metrics(spans: dict, seed_csv_files: int) -> dict[str, float]:
    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    def per_call_us(name):
        calls = get(name, "calls")
        return get(name, "self_s") / calls * 1e6 if calls else 0.0

    covered = sum(row["self_s"] for name, row in spans.items() if name != tracing.ROOT)
    return {
        "config.build.self_s": get("config.build", "self_s"),
        "problems.sample_grad.calls": get("problems.sample_grad", "calls"),
        "problems.sample_grad.self_s": get("problems.sample_grad", "self_s"),
        "problems.sample_grad.us_per_call": per_call_us("problems.sample_grad"),
        "problems.exact.calls": get("problems.exact", "calls"),
        "problems.exact.self_s": get("problems.exact", "self_s"),
        "problems.certify.self_s": get("problems.certify", "self_s"),
        "optimizers.step.calls": get("optimizers.step", "calls"),
        "optimizers.step.self_s": get("optimizers.step", "self_s"),
        "optimizers.step.us_per_call": per_call_us("optimizers.step"),
        "harness.loop.self_s": get("harness.loop", "self_s"),
        "harness.log.self_s": get("harness.log", "self_s"),
        "harness.log.us_per_step": per_call_us("harness.log"),
        "reports.csv.self_s": get("reports.csv", "self_s"),
        "reports.csv.format_per_file": (get("reports.csv", "calls") / seed_csv_files
                                        if seed_csv_files else 0.0),
        "reports.csv_parse.self_s": get("reports.csv_parse", "self_s"),
        "reports.svg.self_s": get("reports.svg", "self_s"),
        "reports.write.self_s": get("reports.write", "self_s"),
        "reports.write.bytes": get("reports.write", "work"),
        "trace.coverage": covered / spans[tracing.ROOT]["total_s"],
    }


def traced(client: Client, master_seed: int, seconds: float, trace_file: Path) -> dict[str, list[float]]:
    sys.path.insert(0, str(SRC))
    from nigt_lab import cli  # noqa: E402  (imports every layer module)

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported nigt_lab from {cli.__file__}, not from {SRC}")
    tracer = tracing.Tracer()
    client.run_in_process("warmup", PINNED_SEED, cli.main)
    plain, runs = [], []
    t_end = time.perf_counter() + seconds
    while not runs or time.perf_counter() < t_end:
        # alternate which side of each pair runs first
        for with_trace in ((False, True) if len(runs) % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed():
                    runs.append(client.run_in_process("traced", master_seed, cli.main, tracer))
            else:
                plain.append(client.run_in_process("untraced", master_seed, cli.main))

    per_run = [_layer_metrics(tracer.summarize(lo, hi), s["seed_csv_files"])
               for (lo, hi), s in zip(tracer.runs(), runs)]
    for s, m in zip(runs, per_run):
        s["layers"] = m
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(trace_file, "wt", compresslevel=1, encoding="utf-8") as fh:
        tracer.write_csv(fh, client.wl.name)
    overhead = min(s["wall_s"] for s in runs) - min(s["wall_s"] for s in plain)
    values = {name: [m[name] for m in per_run] for name in per_run[0]}
    values["trace.overhead_s"] = [overhead]
    return values


# -- run record ----------------------------------------------------------------


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git; None outside a clone."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        return (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return None


def _machine() -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "kernel": os.uname().release,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl_file = WORKLOADS / f"{args.workload}.cfg"
    if not wl_file.is_file():
        sys.stderr.write(f"unknown workload {args.workload!r}; have "
                         f"{sorted(p.stem for p in WORKLOADS.glob('*.cfg'))}\n")
        return 2
    if not (SRC / "nigt_lab" / "cli.py").is_file():
        sys.stderr.write(f"no nigt_lab sources at {SRC}; run from a full checkout\n")
        return 2
    wl = checks.load_workload(wl_file)
    master_seed = args.seed % 2**32
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work_dir = OUT / "work" / stamp
    work_dir.mkdir(parents=True)
    client = Client(wl, work_dir)
    try:
        if args.trace:
            values = traced(client, master_seed, args.seconds, OUT / "traces" / f"{stamp}.csv.gz")
            units = PER_LAYER
        else:
            values = end_to_end(client, master_seed, args.seconds)
            units = END_TO_END
    except BenchError as e:
        sys.stderr.write(f"benchmark error: {e}\n")
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    summary = {}
    print(f"workload {wl.name}: {wl.command}, {wl.steps} steps per invocation, seed {args.seed}")
    print(f"{'metric':36} {'unit':6} {'value':>12} {'by':>6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for name, (unit, reduce) in units.items():
        q1, med, q3 = _quartiles(values[name])
        summary[name] = {"value": reduce(values[name]), "by": reduce.__name__, "median": med,
                         "q1": q1, "q3": q3, "n": len(values[name]), "unit": unit}
        print(f"{name:36} {unit:6} {summary[name]['value']:12.6g} {reduce.__name__:>6} "
              f"{med:12.6g} {q1:12.6g} {q3:12.6g} {len(values[name]):4d}")
    if "host_factor" in values:
        print(f"timings scaled by {values['host_factor'][0]:.6g}: the reference program took "
              f"{statistics.median(values['reference_s']):.6g} s (median), scaled to {REFERENCE_S} s")
    attempted = len(client.samples)
    failed = sum(bool(s["errors"]) for s in client.samples)
    print(f"{'fail_ratio':36} {'ratio':6} {failed / attempted:12.6g}   ({failed} of {attempted} invocations)")
    for err in sorted(set(client.errors)):
        print(f"check failed: {err}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": s["value"], "unit": s["unit"]} for name, s in summary.items()},
    }
    record = {"workload": wl.name, "seed": args.seed, "master_seed": master_seed,
              "seconds": args.seconds, "trace": args.trace, "machine": _machine(),
              "summary": summary, "values": values, "samples": client.samples, "result": result}
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    (OUT / "records" / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
