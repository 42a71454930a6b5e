"""The demos that cover the moment check, certification and the command
line, each run as its own process the way a reader would run it."""

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
    ("02_variance_reduction.py", "all checkpoints within [0.9, 1.1] of target: True"),
    ("05_certification_and_audits.py", ""),
    ("06_cli_pipeline.py", "run exited 0"),
])
def test_demo_exits_zero(tmp_path, name, expected):
    proc = _run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
