"""The package in a fresh interpreter, started as a user starts it: one BLAS
thread unless the caller set a count, and the same bytes on any core count;
and the test process itself, which keeps one BLAS thread too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# trig bowl rows of 20,000 entries: OpenBLAS splits a dot product of more
# than 10,000 entries across its threads, which changes its rounding
WIDE_RUN = """\
problem.kind = trig_bowl
problem.dim = 20000
problem.a = 1.0
problem.b = 1.0
problem.sigma = 0.5
optimizer.id = nsgdm
optimizer.eta = 0.01
run.T = 20
run.n_seeds = 2
output.formats = csv,json
"""


def start(*args: str, blas_threads: str | None = None) -> subprocess.Popen:
    """``python -X dev -W error ARGS`` with the package on its path and
    OPENBLAS_NUM_THREADS unset, or set to ``blas_threads``. Dev mode makes
    an unclosed file or a deprecation on the start-up path an error."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.Popen([sys.executable, "-X", "dev", "-W", "error", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen) -> str:
    """The child's stdout, once it has exited 0 with nothing on stderr."""
    stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (0, "")
    return stdout


def tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


PROBE = "import os, nigt_lab; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads")
def test_import_starts_no_blas_worker_unless_the_caller_asks():
    unset, two = start("-c", PROBE), start("-c", PROBE, blas_threads="2")
    assert finish(unset) == "1 1\n"
    assert finish(two).split()[1] == "2"  # the caller's count is kept


def test_wide_rows_write_the_same_bytes_whatever_the_thread_count(tmp_path):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(WIDE_RUN, encoding="utf-8")
    procs = [start("-m", "nigt_lab.cli", "run", "--config", str(cfg), "--out", str(tmp_path / name),
                   blas_threads=threads) for name, threads in (("unset", None), ("one", "1"))]
    for proc in procs:
        finish(proc)
    written = tree(tmp_path / "unset")
    assert sorted(written) == ["seed_0.csv", "seed_1.csv", "summary.json"]
    assert written == tree(tmp_path / "one")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_the_test_process_starts_no_blas_worker():
    # the conftest sets the variable before a test module imports numpy
    if os.environ["OPENBLAS_NUM_THREADS"] != "1":
        pytest.skip("the caller set a BLAS thread count")
    assert len(os.listdir("/proc/self/task")) == 1
