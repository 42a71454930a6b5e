"""The package in a fresh interpreter, started as a user starts it: one BLAS
thread unless the caller set a count, and the same bytes on any core count;
one entry point, which freezes the import-time heap and does what the
in-process ``cli.main`` does; and the test process itself, which keeps one
BLAS thread too."""

import ast
import gc
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nigt_lab import cli

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


def test_the_entry_module_imports_no_exact_arithmetic():
    # the CSV printer builds its tables from ints: importing fractions or
    # decimal would lengthen every invocation's start-up
    probe = "import sys, nigt_lab.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    assert finish(start("-c", probe)) == "[]\n"


def test_the_console_script_is_the_module_entry_point():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"nigt-lab": "nigt_lab.cli:main_entry"}
    module, name = scripts["nigt-lab"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.main_entry
    # `python -m nigt_lab.cli` runs the module as __main__, whose guard calls it
    guards = [node for node in ast.parse(inspect.getsource(cli)).body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(line) for line in guard.body] for guard in guards] == [["main_entry()"]]


TRIG_2 = """\
problem.kind = trig_bowl
problem.dim = 2
problem.a = 1.0
problem.b = 1.0
problem.sigma = 0.5
"""

# a passing bound table, a key the command does not read, and plain steps of
# 1 on eigenvalue 4, which grow like 3^t
ENTRY_CASES = {
    "bounds": ("bounds", TRIG_2 + "optimizer.id = nsgdm\nrun.T_grid = 10,100,1000\nrun.n_seeds = 3\n", 0),
    "refused_key": ("run", TRIG_2 + "optimizer.id = nsgdm\noptimizer.eta = 0.01\nrun.T = 10\n"
                           "igt_check.n_runs = 1000\n", 1),
    "diverging": ("run", "problem.kind = noisy_quadratic\nproblem.dim = 2\nproblem.eigs = 1.0,4.0\n"
                         "optimizer.id = sgd\noptimizer.eta = 1.0\nrun.T = 1000\nrun.seeds = 1\n", 2),
}


@pytest.mark.parametrize("case", ENTRY_CASES)
def test_the_entry_point_does_what_main_does(tmp_path, capsys, case):
    command, text, code = ENTRY_CASES[case]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text, encoding="utf-8")
    proc = start("-m", "nigt_lab.cli", command, "--config", str(cfg), "--out", str(tmp_path / "child"))
    frozen = gc.get_freeze_count()
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "in_process")]) == code
    assert gc.get_freeze_count() == frozen  # in-process callers keep their collector as it is
    stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stdout, stderr) == (code, *capsys.readouterr())
    assert bool(stderr) == (code != 0)
    written = [tree(out) if out.exists() else None for out in (tmp_path / "child", tmp_path / "in_process")]
    assert written[0] == written[1]
    assert (written[0] is not None) == (code == 0)  # a refused or diverging run writes nothing


# a command that leaves a file open in a reference cycle as it returns
LEAKY = """\
import sys
from nigt_lab import cli

out, cfg = sys.argv[1:]
inner = cli.main

def leaky(argv=None):
    code = inner(argv)
    cycle = [open(cfg, encoding="utf-8")]
    cycle.append(cycle)
    return code

cli.main = leaky
sys.argv = ["nigt-lab", "certify", "--config", cfg, "--out", out]
cli.main_entry()
"""


def test_the_freeze_leaves_what_the_command_made_collectable(tmp_path):
    # frozen before the command, not after it: the cycle is still collected
    # at exit, and dev mode warns about the file
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TRIG_2 + "certify.n_pairs = 100\n", encoding="utf-8")
    proc = start("-c", LEAKY, str(tmp_path / "out"), str(cfg))
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 0, stderr
    assert "ResourceWarning: unclosed file" in stderr
