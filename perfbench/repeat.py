#!/usr/bin/env python3
"""Run the benchmark once per seed and report the spread of each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--baseline FILE]

For every workload in ``BENCHMARK.json`` (or the ones named), runs
``perfbench/run.py`` once per seed with the file's ``run_seconds`` and
prints, for each metric, the median, the quartiles of the per-run values
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound. With ``--baseline`` it also writes
those figures, with every per-run value and the machine, to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds,
              "machine": None, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}\n")
                return 1
            result = json.loads(lines[-1])
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        figures = {}
        print(f"{'metric':36} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            figures[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "n": len(values), "values": values}
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or spread <= bound / 3 else "  above bound/3"
            print(f"{name:36} {first['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
        report["workloads"][workload] = figures
    if args.baseline is not None:
        records = sorted((BENCH / "out" / "records").glob("*.json"), key=lambda p: p.stat().st_mtime)
        report["machine"] = json.loads(records[-1].read_text())["machine"] if records else None
        args.baseline.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
