from hypothesis import settings

# every property runs the same examples on every run: derandomized, with no
# example database and no per-example deadline
settings.register_profile("nigt_lab", deadline=None, derandomize=True, database=None)
settings.load_profile("nigt_lab")
