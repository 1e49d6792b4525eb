"""Span tracer for the expkernel layers, installed from outside the library.

``Tracer.install()`` replaces every public function of each expkernel module
with a timing wrapper and rebinds that name wherever it was imported (for
example ``expkernel.kernel.integrate_bi_singular``), including module-level
dict values such as ``suites.SUITES``.  The geometry methods of ``Disk``,
``Annulus`` and ``Rectangle`` are wrapped on the classes.

Two kinds of span are kept in memory:

* layer spans (cli, density, quadrature, kernel, cauchy, analysis, shift,
  suites): one record each of name, start, end, parent span and call id;
* leaf spans (geometry and ``density.eval_density``), which run hundreds of
  thousands of times per evaluation: counted, timed and charged to the
  enclosing layer span, but not stored one by one.  A leaf called inside
  another leaf (``Annulus.classify_cell`` calling ``Disk.classify_cell``)
  is not timed again.

Self time of a span is its length minus the time its child spans and the
leaves under it cover.  ``uninstall()`` restores every original binding.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
import time

import numpy as np

MODULES = ("cli", "density", "geometry", "quadrature", "kernel", "cauchy",
           "analysis", "shift", "suites")
LEAF_MODULES = ("geometry",)
LEAF_FUNCTIONS = ("density.eval_density",)
GEOMETRY_CLASSES = ("Disk", "Annulus", "Rectangle")
GEOMETRY_METHODS = ("contains", "classify_cell", "cell_area", "ray_crossings",
                    "boundary_distance", "within_disc")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.call = array.array("i")
        self.leaf_s = array.array("d")
        self.stack: list[int] = []
        self.call_id = -1
        self.enabled = False
        self._leaf_acc = 0.0
        self._in_leaf = False
        # leaf name -> [calls, seconds, points]
        self.leaves: dict[str, list] = {}
        # counts read from return values and exceptions
        self.counts: dict[str, float] = {}
        # QuadratureResult / TolNotReached of integrate_singular, in order
        self.quad_log: list = []
        self._undo: list = []

    # -- recording

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, fn, name: str, observe=None):
        nid = self._id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled or self._in_leaf:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.call.append(self.call_id)
            self.leaf_s.append(0.0)
            self.end.append(0.0)
            saved = self._leaf_acc
            self._leaf_acc = 0.0
            self.stack.append(idx)
            self.start.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self.end[idx] = clock()
                self.stack.pop()
                self.leaf_s[idx] = self._leaf_acc
                self._leaf_acc = saved
                if observe is not None:
                    observe(result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, fn, name: str, points=None):
        stats = self.leaves.setdefault(name, [0, 0.0, 0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled or self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_leaf = False
                self._leaf_acc += dt
                stats[0] += 1
                stats[1] += dt
                if points is not None:
                    stats[2] += points(args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers of return values

    def _observe_singular(self, result, exc):
        if exc is None:
            self._count("quadrature.returns")
            self._count("quadrature.cells", result.cells)
            self._count("quadrature.evals", result.evaluations)
            self.quad_log.append(result)
        elif type(exc).__name__ == "TolNotReached":
            self._count("quadrature.tol_not_reached")
            self.quad_log.append(exc)

    def _observe_diagonal(self, result, exc):
        if exc is None:
            self._count("quadrature.octaves", result.octaves)

    # -- installation

    def _rebind(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, item))
                            value[key] = replacement

    def install(self) -> None:
        pkg = sys.modules["expkernel"]
        mods = {m: sys.modules[f"expkernel.{m}"] for m in MODULES}
        everything = [pkg] + list(mods.values())
        observers = {"quadrature.integrate_singular": self._observe_singular,
                     "quadrature.integrate_diagonal": self._observe_diagonal}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if short in LEAF_MODULES or name in LEAF_FUNCTIONS:
                    pts = (lambda a: int(np.size(a[1]))) if name == "density.eval_density" else None
                    wrapped = self._leaf(fn, name, pts)
                else:
                    wrapped = self._span(fn, name, observers.get(name))
                self._rebind(everything, fn, wrapped)
        geometry = mods["geometry"]
        for cls_name in GEOMETRY_CLASSES:
            cls = getattr(geometry, cls_name)
            for meth in GEOMETRY_METHODS:
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._leaf(fn, f"geometry.{meth}"))
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # -- reduction

    def summary(self) -> dict:
        """Per span name: calls, outermost inclusive seconds, self seconds."""
        n = len(self.start)
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child - np.array(self.leaf_s)
        # a span is outermost for its name when no ancestor has the same name
        outer = np.ones(n, dtype=bool)
        par = parent.tolist()
        ids = nid.tolist()
        for i in range(n):
            p = par[i]
            while p >= 0:
                if ids[p] == ids[i]:
                    outer[i] = False
                    break
                p = par[p]
        out = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            out[name] = {"calls": int(sel.sum()),
                         "s": float(dur[sel & outer].sum()),
                         "self_s": float(self_s[sel].sum())}
        return out

    def dump(self, path) -> None:
        """Write every layer span and the leaf aggregates as JSON."""
        spans = [[self.names[self.name_id[i]], self.start[i], self.end[i],
                  self.parent[i], self.call[i], self.leaf_s[i]]
                 for i in range(len(self.start))]
        doc = {"fields": ["name", "start", "end", "parent", "call", "leaf_s"],
               "spans": spans,
               "leaves": {k: {"calls": v[0], "s": v[1], "points": v[2]}
                          for k, v in self.leaves.items()},
               "counts": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
