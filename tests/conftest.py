import os
import sys

# one BLAS thread in the test process too, as importing the package sets for
# its own processes: OpenBLAS reads the variable once, when numpy loads, and
# most test modules import numpy before nigt_lab
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from nigt_lab import harness  # noqa: E402

# every property runs the same examples on every run: derandomized, with no
# example database and no per-example deadline
settings.register_profile("nigt_lab", deadline=None, derandomize=True, database=None)
settings.load_profile("nigt_lab")


@pytest.fixture(autouse=True)
def no_stray_children():
    """A test reaps every child process it starts: after it, this process
    has none, running or exited."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process: waitpid(-1, WNOHANG) gave pid {pid}, status {status}")


@pytest.fixture
def split(monkeypatch):
    """Every run of two or more seeds splits between two processes, as if
    on two CPUs. Returns the list of forks, one entry each; a forked child
    that forks again exits with status 5."""
    if sys.platform != "linux":
        pytest.skip("runs split only on Linux")
    monkeypatch.setattr(harness, "SPLIT_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fork, forks, pid = os.fork, [], os.getpid()

    def counted_fork():
        if os.getpid() != pid:
            os._exit(5)
        forks.append(pid)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks
