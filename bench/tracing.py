"""Layer spans, recorded from the benchmark's side of each call.

``install`` replaces library functions by wrappers on the module
attribute that the calling layer looks them up under: ``reduce_design``
finds ``check_chebyshev`` as ``tcheb.reduction.check_chebyshev``, so
that is the attribute wrapped, not ``tcheb.chebyshev.check_chebyshev``.
No library file changes.

Each wrapper records one span (name, start, end, parent span) into
flat arrays that stay in memory until the run ends, re-raises whatever
the call raised and counts it.  A target that no longer exists, say
after a refactor deletes ``simplex.py``, is reported as absent and its
metrics read zero; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np


def _cols(args, kwargs, result):
    xs = args[1] if len(args) > 1 else kwargs.get("xs")
    return {"cols": int(np.size(xs))}


def _tuples(args, kwargs, result):
    return {"tuples": int(getattr(result, "tuples_checked", 0))}


def _iterations(args, kwargs, result):
    return {"iterations": int(getattr(result, "newton_iterations", 0))}


def _pivots(args, kwargs, result):
    return {"pivots": int(getattr(result, "iterations", 0))}


def _unrefined(args, kwargs, result):
    return {"unrefined": int(getattr(result, "newton_iterations", 1) == 0)}


# (span name, module the caller looks the name up in, attribute, counter)
TARGETS = (
    ("chebyshev.check_chebyshev", "tcheb.reduction", "check_chebyshev", _tuples),
    ("chebyshev.basis_matrix", "tcheb.chebyshev", "basis_matrix", _cols),
    ("chebyshev.basis_matrix", "tcheb.principal", "basis_matrix", _cols),
    ("chebyshev.basis_matrix", "tcheb.moments", "basis_matrix", _cols),
    ("models.psi_system", "tcheb.reduction", "psi_system", None),
    ("models.information_matrix", "tcheb.reduction", "information_matrix", None),
    ("moments.moment_point", "tcheb.reduction", "moment_point", None),
    ("moments.Design", "tcheb.reduction", "Design", None),
    ("moments.Design", "tcheb.principal", "Design", None),
    ("moments.classify_point", "tcheb.moments", "classify_point", None),
    ("principal.upper_principal", "tcheb.reduction", "upper_principal", _unrefined),
    ("principal.upper_principal", "tcheb.principal", "upper_principal", _unrefined),
    ("principal.lower_principal", "tcheb.reduction", "lower_principal", _unrefined),
    ("principal.lower_principal", "tcheb.principal", "lower_principal", _unrefined),
    ("principal.grid_lp_extremum", "tcheb.principal", "grid_lp_extremum", None),
    ("principal.refine_newton", "tcheb.principal", "refine_newton", _iterations),
    ("simplex.solve_lp", "tcheb.principal", "solve_lp", _pivots),
    ("reduction.reduce_design", "tcheb.reduction", "reduce_design", None),
    ("reduction.jacobi_spectrum", "tcheb.reduction", "jacobi_spectrum", None),
    ("reduction.criterion_value", "tcheb.reduction", "criterion_value", None),
    ("reduction.optimize_in_class", "tcheb.reduction", "optimize_in_class", None),
)

OP = "op"  # the benchmark's own span around each operation


class Tracer:
    """Span store plus per-name counters; one per traced run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self.counters: dict = {}
        self.absent: list = []
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, key: str, n: int = 1):
        per = self.counters.setdefault(name, {})
        per[key] = per.get(key, 0) + n

    def span(self, name: str, fn, counter=None):
        """Wrap fn so each call records a span under name."""
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(time.perf_counter_ns())
            self.end.append(0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(name, "raised")
                raise
            finally:
                stack.pop()
                self.end[idx] = time.perf_counter_ns()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.count(name, key, n)
            return result

        return wrapper

    def install(self):
        for name, module_name, attr, counter in TARGETS:
            self._id(name)
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(name, original, counter))
            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def summary(self, ops: int) -> dict:
        """Per-name calls, total and self milliseconds, and counters.

        Self time is a span's duration minus that of its direct
        children; spans nest because the run has one thread.
        """
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (end - start).astype(float) / 1e6
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ms = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            row = {
                "calls": int(mask.sum()) / ops,
                "total_ms": float(dur[mask].sum()) / ops,
                "self_ms": float(self_ms[mask].sum()) / ops,
            }
            for key, v in self.counters.get(name, {}).items():
                row[key] = v / ops
            out[name] = row
        return out
