"""In-memory spans around sparseland's layer boundaries.

``install`` replaces public functions and methods with wrappers that
record one span per call: name, start, end, parent span and batch id.
Nothing under ``src/`` is edited; the wrappers are undone by the
callable ``install`` returns. Spans are kept in flat arrays (a traced
small-dense batch records about a million) and written out once, when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from array import array
from time import perf_counter

import numpy as np

SOLVE = "solver.solve"

# (defining module, function, span name, also patch the defining module)
# Functions are replaced wherever a sparseland module holds them, so a
# call site that imports the name keeps being traced. Shrinkage is only
# patched where solver calls it: shrink_asymmetric calls shrink_p itself.
FUNCTIONS = (
    ("solver", "solve", SOLVE, False),
    ("shrinkage", "shrink_p", "shrinkage.shrink_p", False),
    ("shrinkage", "shrink_complex", "shrinkage.shrink_complex", False),
    ("shrinkage", "shrink_asymmetric", "shrinkage.shrink_asymmetric", False),
    ("transforms", "dwt_array", "transforms.dwt", True),
    ("transforms", "idwt_array", "transforms.idwt", True),
    ("gridio", "read_grid", "gridio.read_grid", False),
    ("gridio", "write_grid", "gridio.write_grid", False),
    ("gridio", "write_pgm", "gridio.write_pgm", False),
    ("gridio", "write_trace_csv", "gridio.write_trace_csv", False),
)
# operator classes that compute rather than delegate (ScaledOperator and
# the wavelet-conjugated operator call one of these)
OPERATOR_CLASSES = ("DiagonalOperator", "DenseOperator", "Convolution2DOperator",
                    "FrameSynthesisOperator")
OPERATOR_METHODS = (("apply", "operators.apply"), ("adjoint", "operators.adjoint"),
                    ("__init__", "operators.construct"))


class Tracer:
    """Span recorder; ``batch`` tags every span with the current batch."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.batch_id = array("i")
        self.in_solve = array("b")
        self.iterations = {}  # span index of a solve -> iterations it ran
        self.batch = 0
        self._stack = []
        self._open_solves = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        is_solve = name == SOLVE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.batch_id.append(self.batch)
            self.in_solve.append(self._open_solves > 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._open_solves += is_solve
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open_solves -= is_solve
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if is_solve:
                self.iterations[idx] = result.iterations
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def arrays(self):
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "batch": np.array(self.batch_id, dtype=np.int32),
            "in_solve": np.array(self.in_solve, dtype=bool),
        }

    def save(self, path, workload, seed):
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), workload=workload, seed=seed, **cols)


def _modules():
    import sparseland

    mods = [sparseland]
    for info in pkgutil.iter_modules(sparseland.__path__):
        mods.append(importlib.import_module(f"sparseland.{info.name}"))
    return mods


def install(tracer, layers=True):
    """Wrap the solve entry points, and with ``layers`` every layer.

    Returns a callable that restores the originals. ``layers=False``
    keeps only the solve spans, whose cost is one pair of clock reads
    per solve; untimed batches use it to time experiment cases.
    """
    mods = _modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for home, fname, span, patch_home in FUNCTIONS:
        if not layers and span != SOLVE:
            continue
        original = getattr(by_name.get(home), fname, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span, original)
        for mod in mods:
            if mod is by_name[home] and not patch_home:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, attr, wrapped)
    if layers:
        operators = by_name["operators"]
        for cname in OPERATOR_CLASSES:
            cls = getattr(operators, cname, None)
            for meth, span in OPERATOR_METHODS:
                if cls is not None and meth in vars(cls):
                    patch(cls, meth, tracer.wrap(span, vars(cls)[meth]))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def layer_totals(tracer, batches):
    """Per-layer calls, busy and self time, summed over ``batches``.

    Self time is a span's duration minus the durations of its direct
    children. Also returns the solve totals and the apply/adjoint calls
    made inside solves.
    """
    cols = tracer.arrays()
    keep = np.isin(cols["batch"], list(batches))
    dur = cols["end"] - cols["start"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    nid = cols["name_id"]
    inside = cols["in_solve"]

    totals = {}
    for k, name in enumerate(tracer.names):
        sel = keep & (nid == k)
        totals[name] = {
            "calls": int(np.count_nonzero(sel)),
            "busy_s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
            "in_solve_calls": int(np.count_nonzero(sel & inside)),
            "in_solve_self_s": float(self_time[sel & inside].sum()),
        }
    iterations = sum(n for idx, n in tracer.iterations.items()
                     if cols["batch"][idx] in batches)
    return totals, iterations
