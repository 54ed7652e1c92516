"""Span tracing of the torusdyn layers, installed from outside the package.

Every public function and every public method (plus ``__call__``) defined in
the layer modules is replaced by a wrapper that records a span: name, start,
end, parent span and the run id, plus a per-span work count (points, values
or rows of the first array argument). Module-level bindings made by
``from .x import y`` are patched too, so a call through any module reaches
the wrapper. Nothing under ``src/`` changes; ``uninstall`` restores every
original binding.

Spans are kept in compact in-memory arrays and written out once at the end.
A span's self time is its duration minus the durations of its direct
children; the per-layer table is derived from self times only. A group's
``.calls`` and ``.points`` count only spans whose parent is not in the same
group, so the members of a composed map, or a ``CircleLift`` called through
``circle.eval_lift``, are not counted a second time: the counts are the
evaluations the rest of the program asked for, whatever the nesting.
"""

from __future__ import annotations

import contextlib
import fnmatch
import functools
import importlib
import inspect
import os
import time
from array import array

import numpy as np

LAYERS = ("cli", "skew", "factor", "torus", "circle", "rotation", "gallery",
          "serialize", "util")


def _size(x):
    if isinstance(x, np.ndarray):
        return x.size
    return 1 if isinstance(x, (float, int)) else int(np.size(x))


# work counted per span, by the span's method or function name: the number
# of values, or of points (rows of the trailing axis), in the array argument
_COUNTERS = {
    "torus": {name: (lambda a: _size(a[1]) // 2)
              for name in ("eval_lift", "eval_inverse", "annulus_map",
                           "eval_torus", "eval_torus_inverse")},
    "circle": {"__call__": lambda a: _size(a[1]), "eval_scalar": lambda a: 1},
    "util": {"wrap01": lambda a: _size(a[0])},
    "skew": {"step": lambda a: _size(a[1]) // 3},
}


class Tracer:
    """In-memory span store for one traced process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.count = array("q")
        self.stack = []
        self.fill_seen = {}  # id -> FiberFill, held so ids are not reused
        self.fill_miss_spans = array("i")
        self.rounds = 0
        self.region_cells = 0
        self.invariance_cells = 0
        self.bytes_written = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def root(self, name):
        """Span of a benchmark phase; yields the span index."""
        i = len(self.end)
        self.name_id.append(self.intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.count.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public callable of the layer modules."""
        pkg = importlib.import_module("torusdyn")
        mods = {layer: importlib.import_module(f"torusdyn.{layer}")
                for layer in LAYERS}
        namespaces = [pkg, *mods.values()]
        for layer, mod in mods.items():
            counters = _COUNTERS.get(layer, {})
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    wrapped = self._wrap(obj, f"{layer}.{name}",
                                         counters.get(name), name)
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, attr, wrapped)
                elif inspect.isclass(obj):
                    for mname, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn):
                            continue
                        if mname.startswith("_") and mname != "__call__":
                            continue
                        self._patch(obj, mname, self._wrap(
                            fn, f"{layer}.{obj.__name__}.{mname}",
                            counters.get(mname), mname))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, span_name, counter, short):
        # the bookkeeping of ``root``, with its lookups hoisted out of the
        # per-call path
        nid = self.intern(span_name)
        post = getattr(self, f"_after_{short}", None)
        name_id, parent, count = self.name_id.append, self.parent.append, self.count.append
        start, end, stack = self.start.append, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(end)
            name_id(nid)
            parent(stack[-1] if stack else -1)
            count(counter(args) if counter else 0)
            end.append(0.0)
            stack.append(i)
            start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(i, args, kwargs, result)
            return result

        return wrapper

    # -- counters read at the layer boundary ---------------------------------

    def _after_lower_component(self, i, args, kwargs, result):
        # a miss is a call that returns a fill object not seen before
        if id(result) not in self.fill_seen:
            self.fill_seen[id(result)] = result
            self.fill_miss_spans.append(i)

    def _after_saturate_block_orbit(self, i, args, kwargs, result):
        self.rounds += int(result[3])

    def _after_build_tau(self, i, args, kwargs, result):
        self.region_cells += int(np.count_nonzero(result.mask.occ))

    def _after_invariance_defect(self, i, args, kwargs, result):
        self.invariance_cells += int(np.count_nonzero(args[1].occ))

    def _after_write_csv(self, i, args, kwargs, result):
        self.bytes_written += os.path.getsize(args[0])

    _after_write_json = _after_write_csv

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "start": start, "end": end, "parent": parent,
                "count": np.array(self.count, dtype=np.int64),
                "duration": dur, "self": dur - child}

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            run_id=np.array(self.run_id),
                            **{k: a[k] for k in ("name_id", "start", "end",
                                                 "parent", "count")})


# metric stem -> span name patterns whose spans it aggregates
SPAN_GROUPS = {
    "skew.saturate_block_orbit": ["skew.saturate_block_orbit"],
    "skew.refine_envelopes": ["skew.refine_envelopes"],
    "skew.extend_to_envelopes": ["skew.extend_to_envelopes"],
    "skew.close_fibers": ["skew.close_fibers"],
    "skew.component_of": ["skew.component_of"],
    "skew.invariance_defect": ["skew.invariance_defect"],
    "skew.step": ["skew.CentralizedSkew.step"],
    "factor.build_tau": ["factor.build_tau"],
    "factor.evaluate_h": ["factor.evaluate_h"],
    "factor.lower_component": ["factor.lower_component"],
    "factor.project_to_torus_factor": ["factor.project_to_torus_factor"],
    "factor.verify_equivariance": ["factor.verify_equivariance"],
    "factor.continuum_Cs": ["factor.continuum_Cs"],
    "torus.annulus_map": ["torus.*.annulus_map"],
    "torus.eval_lift": ["torus.*.eval_lift", "torus.eval_lift"],
    "torus.eval_inverse": ["torus.*.eval_inverse", "torus.eval_inverse"],
    "torus.eval_torus": ["torus.*.eval_torus", "torus.*.eval_torus_inverse"],
    "circle.eval": ["circle.CircleLift.__call__", "circle.CircleLift.eval_scalar",
                    "circle.eval_lift"],
    "rotation.deviation_profile": ["rotation.deviation_profile"],
    "rotation.proximality_scan": ["rotation.proximality_scan"],
    "rotation.recurrence_probe": ["rotation.recurrence_probe"],
    "gallery.example_fully_essential": ["gallery.example_fully_essential"],
    "gallery.obstruction_evidence": ["gallery.obstruction_evidence"],
    "serialize.dump_mask": ["serialize.dump_mask"],
    "serialize.write_csv": ["serialize.write_csv"],
    "util.wrap01": ["util.wrap01"],
    "cli.main": ["cli.main"],
}


# largest share of the traced measured phase that may fall outside the
# library layers (benchmark glue between calls) before the layer wrappers
# count as missing part of the work
UNATTRIBUTED_MAX = 0.02


def layer_metrics(tracer, measured_root):
    """Per-layer figures over all spans, plus the measured phase's split.

    Returns (metrics, checks): metrics maps name -> (value, unit); the check
    says whether the library layers' self times cover the measured phase,
    that is whether the time spent outside every layer wrapper is at most
    ``UNATTRIBUTED_MAX`` of it.
    """
    a = tracer.arrays()
    group_of = np.full(len(tracer.names), -1)
    for g, patterns in enumerate(SPAN_GROUPS.values()):
        for i, n in enumerate(tracer.names):
            if any(fnmatch.fnmatchcase(n, p) for p in patterns):
                group_of[i] = g
    span_group = group_of[a["name_id"]]
    has_parent = a["parent"] >= 0
    parent_group = np.full(span_group.size, -1)
    parent_group[has_parent] = span_group[a["parent"][has_parent]]
    outermost = span_group != parent_group
    out = {}
    for g, stem in enumerate(SPAN_GROUPS):
        sel = span_group == g
        top = sel & outermost
        out[f"{stem}.s"] = (float(a["self"][sel].sum()), "s")
        out[f"{stem}.calls"] = (int(top.sum()), "count")
        out[f"{stem}.points"] = (int(a["count"][top].sum()), "count")
    out["util.wrap01.values"] = out.pop("util.wrap01.points")
    lc_calls = out["factor.lower_component.calls"][0]
    misses = np.array(tracer.fill_miss_spans, dtype=np.int64)
    out["factor.fill_misses"] = (int(misses.size), "count")
    out["factor.fill_miss_s"] = (float(a["self"][misses].sum()), "s")
    out["factor.fill_hit_ratio"] = (
        (lc_calls - misses.size) / lc_calls if lc_calls else 0.0, "ratio")
    out["skew.saturate_block_orbit.rounds"] = (tracer.rounds, "count")
    out["skew.region_cells"] = (tracer.region_cells, "count")
    out["skew.invariance_defect.cells"] = (tracer.invariance_cells, "count")
    out["serialize.bytes_written"] = (tracer.bytes_written, "bytes")
    # orbit points: torus evaluations made directly by rotation diagnostics
    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names], dtype=object)
    span_layer = layer_of[a["name_id"]]
    parent_layer = np.full(span_layer.size, "", dtype=object)
    parent_layer[has_parent] = span_layer[a["parent"][has_parent]]
    sel = (span_layer == "torus") & (parent_layer == "rotation")
    out["rotation.orbit_points"] = (int(a["count"][sel].sum()), "count")

    # one thread, so the spans under the root are those inside its interval
    idx = np.arange(a["start"].size)
    inside = ((idx >= measured_root) & (a["start"] >= a["start"][measured_root])
              & (a["end"] <= a["end"][measured_root]))
    wall = float(a["duration"][measured_root])
    for layer in (*LAYERS, "bench"):
        v = float(a["self"][inside & (span_layer == layer)].sum())
        out[f"measured.{layer}.self_s"] = (v, "s")
    out["trace.wall_s"] = (wall, "s")
    out["trace.spans"] = (int(a["start"].size), "count")
    layers = sum(out[f"measured.{layer}.self_s"][0] for layer in LAYERS)
    outside = out["measured.bench.self_s"][0]
    check = ("trace.layers_cover_wall", outside <= UNATTRIBUTED_MAX * wall,
             f"library layers {layers!r} s of traced wall {wall!r} s; "
             f"outside every layer {outside!r} s "
             f"(limit {UNATTRIBUTED_MAX:.0%})")
    return out, [check]
