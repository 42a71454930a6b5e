"""Output checks for one benchmark invocation of the nigt-lab CLI.

Every invocation is checked. At the pinned seed the result files must match
the SHA-256 digests in ``digests.json`` byte for byte; at any seed they must
also pass the structural checks below. SVG charts are checked structurally
only, so an output-layer change that redraws them still passes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

CSV_HEADER = "t,f_val,grad_norm,eta,alpha,m_norm,mhat_err,lemma1_residual"
SVG_FILES = ("grad_norm.svg", "f_val.svg", "eta.svg")
SVG_NS = "{http://www.w3.org/2000/svg}"


@dataclass(frozen=True)
class Workload:
    """What the benchmark needs to know about one experiment file."""

    name: str
    config: Path
    command: str  # "run" or "bounds"
    n_seeds: int
    horizons: tuple[int, ...]  # run.T, or every T of run.T_grid
    formats: tuple[str, ...]
    record_exact: bool

    @property
    def steps(self) -> int:
        """Optimizer steps per invocation: seeds times the sum of horizons."""
        return self.n_seeds * sum(self.horizons)

    def seeds(self, master_seed: int) -> list[int]:
        return [master_seed + i for i in range(self.n_seeds)]

    def argv(self, master_seed: int, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(out_dir),
                "--master-seed", str(master_seed)]


def load_workload(path: Path) -> Workload:
    """Read the keys the benchmark needs from a ``section.key = value`` file."""
    keys = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            keys[key] = value
    if "run.T_grid" in keys:
        command, horizons = "bounds", tuple(int(t) for t in keys["run.T_grid"].split(","))
    else:
        command, horizons = "run", (int(keys["run.T"]),)
    return Workload(
        name=path.stem,
        config=path,
        command=command,
        n_seeds=int(keys["run.n_seeds"]),
        horizons=horizons,
        formats=tuple(f.strip() for f in keys.get("output.formats", "csv,json").split(",")),
        record_exact=keys.get("run.record_exact", "true") == "true",
    )


def file_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def _check_run(wl: Workload, out_dir: Path, master_seed: int) -> list[str]:
    errors = []
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if summary.get("pass") is not True:
        errors.append("summary.json: pass is not true")
    if summary.get("invariant_violations") != []:
        errors.append("summary.json: invariant_violations is not empty")
    T = wl.horizons[0]
    seed_means = []
    for seed in wl.seeds(master_seed):
        text = (out_dir / f"seed_{seed}.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        if not text.startswith(CSV_HEADER + "\n") or len(rows) != T:
            errors.append(f"seed_{seed}.csv: expected the header and {T} rows, got {len(rows)} rows")
            continue
        norms = [r["grad_norm"] for r in rows]
        if wl.record_exact:
            seed_means.append(math.fsum(float(v) for v in norms) / T)
        elif any(norms):
            errors.append(f"seed_{seed}.csv: grad_norm logged with exact logging off")
    avg = summary.get("avg_grad_norm")
    if wl.record_exact and len(seed_means) == wl.n_seeds:
        # summation order differs from the program's, so equal to rounding
        expected = math.fsum(seed_means) / wl.n_seeds
        if avg is None or not math.isclose(avg, expected, rel_tol=1e-12):
            errors.append(f"summary.json: avg_grad_norm {avg} is not the grad_norm mean {expected}")
    elif not wl.record_exact and avg is not None:
        errors.append("summary.json: avg_grad_norm set with exact logging off")
    if "svg" in wl.formats:
        for name in SVG_FILES:
            try:
                root = ET.parse(out_dir / name).getroot()
            except (OSError, ET.ParseError) as e:
                errors.append(f"{name}: {e}")
                continue
            lines = len(root.findall(f"{SVG_NS}polyline"))
            if lines != wl.n_seeds + 1:
                errors.append(f"{name}: {lines} polylines, expected {wl.n_seeds + 1}")
    return errors


def _check_bounds(wl: Workload, out_dir: Path) -> list[str]:
    errors = []
    report = json.loads((out_dir / "bounds.json").read_text(encoding="utf-8"))
    if report.get("passed") is not True:
        errors.append("bounds.json: passed is not true")
    if [r.get("T") for r in report.get("rows", [])] != sorted(wl.horizons):
        errors.append("bounds.json: rows do not cover run.T_grid")
    rows = list(csv.DictReader(io.StringIO((out_dir / "bounds.csv").read_text(encoding="utf-8"))))
    if [int(r["T"]) for r in rows] != sorted(wl.horizons) or any(r["passed"] != "true" for r in rows):
        errors.append("bounds.csv: rows do not cover run.T_grid, or one failed")
    return errors


def check_outputs(wl: Workload, out_dir: Path, master_seed: int, exit_code: int,
                  pinned: dict[str, str] | None = None) -> list[str]:
    """Problems found in one invocation's results; empty when all is well."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        errors = _check_run(wl, out_dir, master_seed) if wl.command == "run" else _check_bounds(wl, out_dir)
    except (OSError, ValueError, KeyError) as e:  # missing file, bad JSON or CSV
        return [f"unreadable output: {e!r}"]
    if pinned is not None:
        got = file_digests(out_dir)
        errors += [f"{name}: digest differs from the pinned one"
                   for name, digest in pinned.items() if got.get(name) != digest]
    return errors
