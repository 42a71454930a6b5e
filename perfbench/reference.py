"""Fixed reference program: measures how fast the host runs right now.

Usage: python3 reference.py

A short program that never changes and imports nothing of ``nigt_lab``:
interpreter start, numpy import, and a seeded momentum-normalised loop on
4096-wide vectors, which makes many small numpy calls as the CLI does. The
benchmark runs it between the timed invocations; the ratio of the two
times cancels the slowdowns a shared host imposes on both (see ``run.py``).
Of the references tried, this one followed the invocations' slowdowns
best, on the d=4 and the d=4096 workloads alike: across 10 short runs its
mean time correlated with theirs at 0.94 to 0.97, against 0.74 to 0.91 for
a d=4 loop that formats, writes and parses CSV.
Prints a checksum of its result, which is the same on every run.
"""

import sys

import numpy as np

DIM, STEPS = 4096, 3000


def main() -> int:
    rng = np.random.default_rng(12345)
    x, m = np.zeros(DIM), np.zeros(DIM)
    for _ in range(STEPS):
        g = np.cos(x) + 0.5 * rng.normal(size=DIM)
        m = 0.9 * m + 0.1 * g
        x = x - 0.01 * m / (np.linalg.norm(m) + 1e-12)
    print(f"{float(x.sum()):.17g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
