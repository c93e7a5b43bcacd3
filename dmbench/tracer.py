"""Span tracing around the public functions of dirimor, installed from outside.

:func:`install` replaces, in every loaded ``dirimor`` module, the public
functions and methods named in the span-name tuples below by wrappers that record one span
per call: name, start, end, parent span and a size (points evaluated, grid
nodes, box queries, scan points).  Analytic functions are closures stored
on each ``AnalyticFunction``, so the factories that build them are wrapped
to return functions whose ``eval_fn``, ``deriv_fn`` and ``boundary_fn``
record spans too.  Spans stay in memory (compact typed arrays) until the
run ends; :meth:`Tracer.layer_metrics` reduces one window of them to the
per-layer metrics and :meth:`Tracer.dump` writes them all out.

A span's self time is its duration minus the durations of its direct
children; a layer's time is the sum of self times of its spans, so a
layer's time never includes the time of another layer it calls.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
import time
from array import array

import numpy as np

# span names per layer; each name is "<module>.<function>"
ANALYTIC = ("analytic.eval_fn", "analytic.deriv_fn", "analytic.boundary_fn")
GRID = ("quadrature.RadialAnnuliGrid.nodes", "quadrature.region_node_arrays",
        "quadrature.graded_breakpoints")
ARC = ("quadrature.arc_double_integral",)
MASS = ("quadrature.BoxMassTable.__init__", "quadrature.BoxMassTable.box_masses")
NORMS = tuple("norms." + n for n in (
    "dirichlet_norm", "translate_seminorm", "dm_norm_translate", "general_morrey_norm",
    "dm_seminorm_box", "qp_quantity", "qp_log_quantity", "box_quantity_pair",
    "boundary_double_seminorm", "growth_envelope", "hinf_sup", "gpcm_quantity",
))
FAMILY = ("operators.make_test_family",)
RATIO = ("operators.ratio_scan",)
TASK = ("verify.run_verification",)
POOL = ("verify.run_tasks",)
REPORT = ("verify.emit_report",)

# factories whose AnalyticFunction results get traced callables
FACTORIES = {
    "analytic": ("make_taylor", "make_power_kernel", "make_gap_series", "log_kernel",
                 "mobius_translate"),
    "operators": ("apply_Jg", "apply_Ig", "apply_Mg"),
}

PER_LAYER = (
    ("analytic.calls", "count"), ("analytic.points", "count"), ("analytic.s", "s"),
    ("quadrature.grids_built", "count"), ("quadrature.grid_nodes", "count"),
    ("quadrature.breakpoint_calls", "count"), ("quadrature.grid_s", "s"),
    ("quadrature.arc_integrals", "count"), ("quadrature.arc_nodes", "count"),
    ("quadrature.arc_s", "s"),
    ("quadrature.mass_tables", "count"), ("quadrature.mass_queries", "count"),
    ("quadrature.mass_s", "s"),
    ("norms.scans", "count"), ("norms.a_points", "count"), ("norms.arcs", "count"),
    ("norms.self_s", "s"),
    ("operators.family_builds", "count"), ("operators.family_s", "s"),
    ("operators.translate_norms", "count"), ("operators.ratio_scan_s", "s"),
    ("verify.tasks", "count"), ("verify.task_s", "s"), ("verify.pool_wall_s", "s"),
    ("verify.pool_overlap", "ratio"), ("verify.report_s", "s"),
)


class Tracer:
    """In-memory span store; thread-safe, one span stack per thread."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.size = array("q")
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, size_of=None):
        """``fn`` recording one span per call while the tracer is enabled.

        ``size_of(args, kwargs, result)`` gives the span's size."""
        nid = self._name_id(name)
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with self._lock:
                idx = len(self.start)
                self.start.append(0.0)
                self.end.append(0.0)
                self.name.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.size.append(0)
            stack.append(idx)
            self.start[idx] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
            if size_of is not None:
                self.size[idx] = int(size_of(args, kwargs, out))
            return out

        traced._dmbench_traced = True
        return traced

    # -- reduction ---------------------------------------------------------

    def arrays(self, lo: int = 0, hi=None):
        hi = len(self) if hi is None else hi
        sl = slice(lo, hi)
        return (np.frombuffer(self.start, dtype=float)[sl].copy(),
                np.frombuffer(self.end, dtype=float)[sl].copy(),
                np.frombuffer(self.name, dtype=np.int32)[sl].copy(),
                np.frombuffer(self.parent, dtype=np.int32)[sl].copy(),
                np.frombuffer(self.size, dtype=np.int64)[sl].copy())

    def layer_metrics(self, lo: int = 0, hi=None) -> dict:
        """Per-layer metrics of the spans recorded in [lo, hi)."""
        start, end, name, parent, size = self.arrays(lo, hi)
        n = start.size
        dur = end - start
        local_parent = parent - lo  # spans of a window only have parents inside it
        has_parent = (parent >= lo) & (local_parent < n) & (parent >= 0)
        child = np.zeros(n)
        np.add.at(child, local_parent[has_parent], dur[has_parent])
        self_t = dur - child

        def ids(names):
            return np.array([self._ids[x] for x in names if x in self._ids], dtype=np.int32)

        def member(names):
            return np.isin(name, ids(names))

        def parent_in(names):
            out = np.zeros(n, dtype=bool)
            out[has_parent] = np.isin(name[local_parent[has_parent]], ids(names))
            return out

        def under(names):
            """Spans with an ancestor among ``names`` (same thread)."""
            target = ids(names)
            found = np.zeros(n, dtype=bool)
            cur = np.where(has_parent, local_parent, -1)
            while np.any(cur >= 0):
                live = cur >= 0
                found[live] |= np.isin(name[cur[live]], target)
                nxt = np.full(n, -1)
                nxt[live] = np.where(has_parent[cur[live]], local_parent[cur[live]], -1)
                cur = nxt
            return found

        def one(span_name):
            return member((span_name,))

        an = member(ANALYTIC)
        top_an = an & ~parent_in(ANALYTIC)
        nodes = one("quadrature.RadialAnnuliGrid.nodes")
        arc = member(ARC)
        norms = member(NORMS)
        dm_translate = one("norms.dm_norm_translate")
        task_s = float(np.sum(dur[member(TASK)]))
        pool_s = float(np.sum(dur[member(POOL)]))
        return {
            "analytic.calls": int(np.sum(top_an)),
            "analytic.points": int(np.sum(size[top_an])),
            "analytic.s": float(np.sum(self_t[an])),
            "quadrature.grids_built": int(np.sum(nodes)),
            "quadrature.grid_nodes": int(np.sum(size[nodes])),
            "quadrature.breakpoint_calls": int(np.sum(one("quadrature.graded_breakpoints"))),
            "quadrature.grid_s": float(np.sum(self_t[member(GRID)])),
            "quadrature.arc_integrals": int(np.sum(arc)),
            "quadrature.arc_nodes": int(np.sum(size[arc])),
            "quadrature.arc_s": float(np.sum(self_t[arc])),
            "quadrature.mass_tables": int(np.sum(one("quadrature.BoxMassTable.__init__"))),
            "quadrature.mass_queries": int(np.sum(size[one("quadrature.BoxMassTable.box_masses")])),
            "quadrature.mass_s": float(np.sum(self_t[member(MASS)])),
            "norms.scans": int(np.sum(norms & ~parent_in(NORMS))),
            "norms.a_points": int(np.sum(size[member(("norms.dm_norm_translate",
                                                      "norms.general_morrey_norm"))])),
            "norms.arcs": int(np.sum(size[member(("norms.dm_seminorm_box", "norms.qp_log_quantity",
                                                  "norms.box_quantity_pair",
                                                  "norms.boundary_double_seminorm"))])),
            "norms.self_s": float(np.sum(self_t[norms])),
            "operators.family_builds": int(np.sum(member(FAMILY))),
            "operators.family_s": float(np.sum(dur[member(FAMILY) & ~under(FAMILY)])),
            "operators.translate_norms": int(np.sum(dm_translate & under(FAMILY + RATIO))),
            "operators.ratio_scan_s": float(np.sum(dur[member(RATIO)])),
            "verify.tasks": int(np.sum(member(TASK))),
            "verify.task_s": task_s,
            "verify.pool_wall_s": pool_s,
            "verify.pool_overlap": task_s / pool_s if pool_s > 0 else 0.0,
            "verify.report_s": float(np.sum(dur[member(REPORT)])),
        }

    def dump(self, path) -> None:
        """Write every span recorded so far (compressed numpy archive)."""
        start, end, name, parent, size = self.arrays()
        np.savez_compressed(path, start=start, end=end, name=name, parent=parent,
                            size=size, names=np.array(self.names))


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _point_count(args, kwargs, out):
    return np.size(args[0]) if args else 0


def _scan_size(pos: int, count: str, defaults=None):
    """Size of a scan span: the number of a-points or arcs of the ParamGrid
    passed at position ``pos`` (or by keyword), or of the function's default
    grid ``ParamGrid(**defaults)``."""
    cache: dict = {}

    def size(args, kwargs, out):
        grid = args[pos] if len(args) > pos else kwargs.get("grid")
        if grid is None:
            from dirimor.norms import ParamGrid
            grid = ParamGrid(**(defaults or {}))
        if grid not in cache:
            cache[grid] = len(getattr(grid, count)())
        return cache[grid]

    return size


def _traced_function(tracer: Tracer, f):
    """A copy of ``f`` whose callables record analytic spans."""
    changes = {}
    for attr in ("eval_fn", "deriv_fn", "boundary_fn"):
        fn = getattr(f, attr)
        if fn is not None and not getattr(fn, "_dmbench_traced", False):
            changes[attr] = tracer.wrap("analytic." + attr, fn, _point_count)
    return dataclasses.replace(f, **changes) if changes else f


def _factory(tracer: Tracer, fn):
    @functools.wraps(fn)
    def make(*args, **kwargs):
        return _traced_function(tracer, fn(*args, **kwargs))
    return make


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded dirimor module,
    which covers names the modules imported from each other."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dirimor" or mod_name.startswith("dirimor.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of analytic, quadrature, norms, operators and
    verify.  Import dirimor's submodules first, so that every module-level
    binding of a wrapped function is rebound."""
    import importlib
    from functools import cached_property

    mods = {m: importlib.import_module("dirimor." + m)
            for m in ("analytic", "quadrature", "norms", "operators", "gaps", "verify", "cli")}
    analytic, quadrature = mods["analytic"], mods["quadrature"]

    for mod_name, names in FACTORIES.items():
        for fname in names:
            orig = getattr(mods[mod_name], fname)
            _replace_everywhere(orig, _factory(tracer, orig))
    AF = analytic.AnalyticFunction
    for meth in ("__add__", "scaled"):
        orig = getattr(AF, meth)
        setattr(AF, meth, _factory(tracer, orig))

    grid_cls = quadrature.RadialAnnuliGrid
    nodes_fn = grid_cls.__dict__["_nodes"].func
    prop = cached_property(tracer.wrap(
        "quadrature.RadialAnnuliGrid.nodes", nodes_fn, lambda a, k, out: out[0].size))
    prop.__set_name__(grid_cls, "_nodes")
    setattr(grid_cls, "_nodes", prop)

    table = quadrature.BoxMassTable
    table.__init__ = tracer.wrap("quadrature.BoxMassTable.__init__", table.__init__)
    table.box_masses = tracer.wrap("quadrature.BoxMassTable.box_masses", table.box_masses,
                                   lambda a, k, out: len(a[1]))

    plain = {
        "quadrature": {
            "graded_breakpoints": None,
            "region_node_arrays": lambda a, k, out: out[0].size,
            "arc_double_integral": lambda a, k, out: out.nodes_used,
        },
        "norms": {n.split(".", 1)[1]: None for n in NORMS},
        "operators": {"make_test_family": None, "ratio_scan": None},
        "verify": {"run_verification": None, "run_tasks": None, "emit_report": None},
    }
    plain["norms"].update({
        "dm_norm_translate": _scan_size(2, "a_points"),
        "general_morrey_norm": _scan_size(3, "a_points"),
        "dm_seminorm_box": _scan_size(2, "arcs"),
        "qp_log_quantity": _scan_size(2, "arcs"),
        "box_quantity_pair": _scan_size(3, "arcs"),
        "boundary_double_seminorm": _scan_size(2, "arcs", {"k_arc": 10, "n_centers": 16}),
    })
    for mod_name, fns in plain.items():
        for fname, size_of in fns.items():
            orig = getattr(mods[mod_name], fname)
            _replace_everywhere(orig, tracer.wrap(f"{mod_name}.{fname}", orig, size_of))
