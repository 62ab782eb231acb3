"""Span tracing of the isofp layers, installed from outside the package.

Each public function of a layer is replaced, wherever its name is bound,
by a wrapper that records one span: layer name, start, end, parent span
and a work count (points, nodes, members, files, ...).  Spans live in
compact in-memory arrays and are written out once, at the end of the run.

A call into a layer from inside the same layer (a density evaluated by a
density, the recursive half-line split of the adaptive integrator) is not
a new span: counts and self times describe the outermost entry only.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array

import numpy as np

# spans of these layers (the six checks) also record their tracemalloc peak
TRACEMALLOC_PREFIX = "inequality."


class Tracer:
    """In-memory span store plus the per-layer extras (bytes, peak alloc)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.extra = {}  # layer -> {key: summed value}
        self._stack = []

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_extra(self, name, key, value):
        bucket = self.extra.setdefault(name, {})
        bucket[key] = bucket.get(key, 0) + value

    def wrap(self, name, fn, count=None, extra=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(args, result)`` gives the span's work count and
        ``extra(tracer, args, result)`` may record further per-layer sums.
        """
        nid = self._nid(name)
        alloc = name.startswith(TRACEMALLOC_PREFIX)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if stack and self.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            self.count.append(0)
            stack.append(idx)
            if alloc:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.stop()
                    bucket = self.extra.setdefault(name, {})
                    bucket["peak_alloc_bytes"] = max(
                        bucket.get("peak_alloc_bytes", 0), peak)
            if count is not None:
                self.count[idx] = int(count(args, result))
            if extra is not None:
                extra(self, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- results -------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays (times in ns, parent -1 for roots)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def summary(self):
        """({layer: calls, summed count, self time in s, extras}, number of
        spans whose self time lies outside [0, duration])."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "count": int(a["count"][sel].sum()),
                "self_s": float(self_ns[sel].sum()) * 1e-9,
                **self.extra.get(name, {}),
            }
        bad = int(np.count_nonzero((self_ns < 0) | (self_ns > dur)))
        return out, bad

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# The patch table: which isofp callables form each layer
# ---------------------------------------------------------------------------


def _rows(args, _result):
    return len(np.atleast_2d(np.asarray(args[1])))


def _size(pos):
    return lambda args, _result: np.size(args[pos])


def _length(_args, result):
    return len(result)


def _grid_extra(tracer, args, _result):
    grid = args[0]
    tracer.add_extra("quadrature.grid", "nodes", len(grid.points))
    tracer.add_extra("quadrature.grid", "bytes", sum(
        v.nbytes for v in vars(grid).values() if isinstance(v, np.ndarray)))


def _file_size(_args, result):
    return result.stat().st_size


def _artifact_extra(tracer, _args, _result):
    tracer.add_extra("cli.artifacts", "files", 1)


def _targets():
    """(layer name, owner, attribute, count, extra) for every wrapped callable.

    An owner is a class (methods) or a module (functions); module-level
    functions are also re-bound in every isofp module that imported them.
    """
    from isofp import cli, corpus, densities, fpsolver, inequality, quadrature, weights

    t = [
        ("densities.eval", densities.IsotropicDensity, "eval", _size(1), None),
        ("densities.eval", densities.IsotropicDensity, "__call__", _size(1), None),
        ("densities.eval", densities.RadialMarginal, "eval", _size(1), None),
        ("densities.eval", densities.RadialMarginal, "__call__", _size(1), None),
        ("densities.eval", densities.Density1D, "__call__", _size(1), None),
        ("weights.K", weights, "weight_from_density", _size(1), None),
        ("weights.P", weights, "p_weight_1d", _size(2), None),
        ("weights.tail_radius", weights, "critical_tail_radius", None, None),
        ("weights.composite", weights, "composite_Wstar", None, None),
        ("weights.composite", weights, "hybrid_weight", None, None),
        ("quadrature.adaptive", quadrature, "integrate_interval", None, None),
        ("quadrature.grid", quadrature.HypersphericalGrid, "__init__", None, _grid_extra),
        ("corpus.eval", quadrature.TestFunction, "__call__", _rows, None),
        ("corpus.eval", corpus.Fn1D, "__call__", _size(1), None),
        ("corpus.grad", quadrature.TestFunction, "grad", _rows, None),
        ("corpus.grad", corpus.Fn1D, "deriv", _size(1), None),
        ("fpsolver.build", fpsolver, "build_solver", None, None),
        ("fpsolver.step", fpsolver.Solver, "step", None, None),
        ("fpsolver.sample", fpsolver.Solver, "theta", None, None),
        ("fpsolver.sample", fpsolver.Solver, "dissipation", None, None),
        ("fpsolver.sample", fpsolver.Solver, "l1_distance", None, None),
        ("cli.artifacts", cli, "_write_json", _file_size, _artifact_extra),
        ("cli.artifacts", cli, "_write_csv", _file_size, _artifact_extra),
        ("cli.artifacts", cli, "_sha256", None, None),
    ]
    for fn_name in ("corpus_1d", "corpus_nd", "corpus_outside_ball",
                    "corpus_anisotropic", "corpus_product"):
        t.append(("corpus.build", corpus, fn_name, _length, None))
    for theorem in cli.THEOREMS:
        t.append((f"inequality.{theorem}", inequality, f"check_{theorem}", _length, None))
    return t


def install(tracer):
    """Wrap every target of ``_targets`` in a span, wherever it is bound."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "isofp" or name.startswith("isofp."))]
    for name, owner, attr, count, extra in _targets():
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, count, extra)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
