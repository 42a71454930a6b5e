"""In-process span tracing of the nigt_lab layers.

A :class:`Tracer` replaces selected functions of the imported ``nigt_lab``
modules with wrappers that record one span per call: name, start, end and
parent. Spans are kept in memory as flat columns and written out by the
caller when the run ends. The program's sources are not touched; the
wrappers are installed by rebinding names in the already imported modules
and removed again by :meth:`Tracer.uninstall`.

Span rules:

- a call to a function that is not wrapped runs inside its caller's span;
- a wrapped call made inside a span of the same name opens no new span
  (``harness.run`` calling ``harness.run_single`` is one ``harness.loop``);
- calls made inside an opaque span open no spans (certification samples
  the oracle 20,000 times; that is certification work, not oracle work).

Self time of a span is its duration minus the time its direct child spans
cover; the calls are properly nested on one thread, so the children never
overlap.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from array import array

PKG = "nigt_lab"
ROOT = "cli"


def _arg_len(args, i: int) -> int:
    return len(args[i]) if len(args) > i else 0


def _defined_functions(mod):
    return {name: fn for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__}


def span_table():
    """(span name, owner, attribute, opaque) for every function to wrap.

    Functions are picked by module and name so that a later refactor that
    renames or removes one leaves the trace running: the missing function
    simply records no spans and its time moves to its caller.
    """
    mods = {m: sys.modules.get(f"{PKG}.{m}")
            for m in ("config", "problems", "optimizers", "harness", "reports")}
    if any(m is None for m in mods.values()):
        raise ImportError(f"{PKG} layer modules must be imported before tracing")
    table = []
    for name, fn in _defined_functions(mods["config"]).items():
        if not name.startswith("_"):
            table.append(("config.build", mods["config"], name, False))
    problem_cls = getattr(mods["problems"], "StochasticProblem", None)
    if problem_cls is not None:
        for name in vars(problem_cls):
            if name.startswith("sample"):
                table.append(("problems.sample_grad", problem_cls, name, False))
            elif name.startswith("exact_"):
                table.append(("problems.exact", problem_cls, name, False))
    if hasattr(mods["problems"], "certify_constants"):
        table.append(("problems.certify", mods["problems"], "certify_constants", True))
    for name in _defined_functions(mods["optimizers"]):
        if name.endswith(("_step", "_init")):
            table.append(("optimizers.step", mods["optimizers"], name, False))
    for name in _defined_functions(mods["harness"]):
        if name == "_make_log":
            table.append(("harness.log", mods["harness"], name, False))
        elif not name.startswith("_"):
            table.append(("harness.loop", mods["harness"], name, False))
    reports = {
        "record_to_csv": "reports.csv",
        "parse_run_csv": "reports.csv_parse",
        "write_plots": "reports.svg",
        "svg_line_chart": "reports.svg",
        "plot_results_dir": "reports.svg",
        "write_run_outputs": "reports.write",
        "write_text_atomic": "reports.write",
        "json_dumps": "reports.write",
    }
    for name in _defined_functions(mods["reports"]):
        if name in reports:
            table.append((reports[name], mods["reports"], name, False))
    return table


class Tracer:
    """Span recorder for one process; install, run, uninstall, read."""

    def __init__(self):
        self.names = [ROOT]
        self.opaque = [False]
        self._patched = []  # (owner, attribute, original)
        # one entry per span, indexed by span id
        self.name = array("h")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self._cur = -1
        self._cur_name = -1
        self._cur_opaque = False

    # -- recording -----------------------------------------------------------

    def _open(self, name_idx: int) -> int:
        sid = len(self.name)
        self.name.append(name_idx)
        self.parent.append(self._cur)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.work.append(0)
        self._cur = sid
        self._cur_name = name_idx
        self._cur_opaque = self.opaque[name_idx]
        return sid

    def _close(self, sid: int, saved) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._cur, self._cur_name, self._cur_opaque = saved

    def _wrap(self, fn, name_idx: int, measure_arg):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._cur_name == name_idx or tracer._cur_opaque:
                # absorbed into the enclosing span, which also takes the work
                if measure_arg is not None and tracer._cur >= 0:
                    tracer.work[tracer._cur] += _arg_len(args, measure_arg)
                return fn(*args, **kwargs)
            saved = (tracer._cur, tracer._cur_name, tracer._cur_opaque)
            sid = tracer._open(name_idx)
            if measure_arg is not None:
                tracer.work[sid] = _arg_len(args, measure_arg)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, saved)

        traced.__wrapped__ = fn
        return traced

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span of one traced invocation."""
        saved = (self._cur, self._cur_name, self._cur_opaque)
        sid = self._open(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, saved)

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> wrapper
        for span, owner, attr, opaque in span_table():
            if span not in self.names:
                self.names.append(span)
                self.opaque.append(opaque)
            fn = vars(owner)[attr]
            # write_text_atomic(path, text): the text is the work done
            measure = 1 if attr == "write_text_atomic" else None
            wrappers[id(fn)] = self._wrap(fn, self.names.index(span), measure)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])
        # rebind names imported from one module into another
        # (``from .problems import certify_constants`` in harness, ...)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    # -- analysis ---------------------------------------------------------------

    def runs(self):
        """Span index ranges ``[lo, hi)`` of each root span, in order."""
        roots = [i for i, p in enumerate(self.parent) if p == -1]
        return list(zip(roots, roots[1:] + [len(self.name)]))

    def summarize(self, lo: int, hi: int) -> dict:
        """Per span name: calls, total and self seconds, work, for spans [lo, hi)."""
        child = [0] * (hi - lo)
        for i in range(lo + 1, hi):
            child[self.parent[i] - lo] += self.end[i] - self.start[i]
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0} for n in self.names}
        for i in range(lo, hi):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur * 1e-9
            row["self_s"] += (dur - child[i - lo]) * 1e-9
            row["work"] += self.work[i]
        return out

    def write_csv(self, fh, workload: str) -> None:
        """Every span as one CSV row; run ``i`` is the ``i``-th root span."""
        fh.write("workload,run_id,span_id,parent_id,name,start_ns,end_ns,work\n")
        for run_id, (lo, hi) in enumerate(self.runs()):
            for i in range(lo, hi):
                fh.write(f"{workload},{run_id},{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]},{self.end[i]},{self.work[i]}\n")
