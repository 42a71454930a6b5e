import os

# one BLAS thread in the test process too, as importing the package sets for
# its own processes: OpenBLAS reads the variable once, when numpy loads, and
# most test modules import numpy before nigt_lab
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

# every property runs the same examples on every run: derandomized, with no
# example database and no per-example deadline
settings.register_profile("nigt_lab", deadline=None, derandomize=True, database=None)
settings.load_profile("nigt_lab")
