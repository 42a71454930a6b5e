"""The batch front door: experiment files in, CSV/JSON/SVG out.

Writes a small experiment file, runs it through the command-line interface,
and prints what landed on disk, the charts among it (``output.formats``
includes ``svg``). Equivalent shell usage:

    nigt-lab run --config bowl.cfg --out results --seeds 5
"""

import pathlib
import tempfile

from nigt_lab.cli import main

CONFIG = """\
problem.kind = trig_bowl
problem.dim = 4
problem.a = 1.0
problem.b = 1.0
problem.sigma = 0.5
optimizer.id = nigt
optimizer.theorem = 2
run.T = 1000
run.n_seeds = 5
run.master_seed = 42
output.formats = csv,json,svg
"""


def run_demo():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = tmp / "bowl.cfg"
        cfg.write_text(CONFIG)
        out = tmp / "results"

        code = main(["run", "--config", str(cfg), "--out", str(out)])
        print(f"run exited {code}; files:")
        for p in sorted(out.iterdir()):
            print(f"  {p.name:<16} {p.stat().st_size:>7} bytes")

        summary = (out / "summary.json").read_text()
        print("\nsummary.json:")
        print(summary)
        print(f"charts: {sorted(p.name for p in out.glob('*.svg'))}")


if __name__ == "__main__":
    run_demo()
