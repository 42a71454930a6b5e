"""Measure the CLI's set-up: run it until its first oracle call, then stop.

Usage: python3 setup_probe.py CLI-ARGS...

Runs ``nigt_lab.cli`` as ``python -m nigt_lab.cli`` would (imports, config
parse, problem and run-config build) and, at the first call of any
``StochasticProblem.sample*`` method, prints ``time.monotonic_ns()`` and
exits at once with code 0. The caller reads the clock before starting this
process; CLOCK_MONOTONIC is shared by all processes, so the difference is
the set-up time including interpreter start. Exits 3 if the CLI never
samples the oracle.
"""

import os
import runpy
import sys
import time


def _stop(*args, **kwargs):
    os.write(1, f"{time.monotonic_ns()}\n".encode())
    os._exit(0)


def main() -> int:
    from nigt_lab import problems

    hooks = [name for name in vars(problems.StochasticProblem) if name.startswith("sample")]
    for name in hooks:
        setattr(problems.StochasticProblem, name, _stop)
    sys.argv = ["nigt-lab"] + sys.argv[1:]
    try:
        runpy.run_module("nigt_lab.cli", run_name="__main__")
    except SystemExit:
        pass
    sys.stderr.write("setup probe: the CLI finished without sampling the oracle\n")
    return 3


if __name__ == "__main__":
    sys.exit(main())
