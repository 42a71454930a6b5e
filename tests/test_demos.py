"""Every demo, each run as its own process the way a reader would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, expected", [
    ("01_sign_noise_rescue.py", "momentum cut the runaway drift"),
    ("02_variance_reduction.py", "all checkpoints within [0.9, 1.1] of target: True"),
    ("05_certification_and_audits.py", ""),
    ("06_cli_pipeline.py", "run exited 0"),
])
def test_demo_exits_zero(tmp_path, name, expected):
    proc = _run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def test_tuned_bounds_demo_meets_every_ceiling(tmp_path):
    proc = _run_demo("03_tuned_bounds_and_rates.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    # one row per horizon of each method's table, whose last cell is "ok"
    rows = [line.split() for line in proc.stdout.splitlines() if line.split()[:1] in (["100"], ["1000"], ["10000"])]
    assert len(rows) == 6 and all(row[-1] == "yes" for row in rows)


def test_self_tuning_demo_keeps_its_invariants(tmp_path):
    proc = _run_demo("04_adaptive_self_tuning.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("invariant violations: 0; eta monotone: True") == 2
