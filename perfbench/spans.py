"""Layer spans recorded from outside the package.

A :class:`Tracer` wraps the public entry points of each layer.  A wrapper
replaces the function object in every loaded ``normloc`` module namespace
that binds it, because ``fans``, ``latpoints`` and ``gitfan`` import names
directly; calls between modules therefore pass through the wrapper.  Spans
are plain tuples kept in memory and reduced after the pass, so a wrapper
costs two clock reads and one append.  Uninstalling puts every original
object back and reports any binding that does not read back as the original.

Functions below the wrapped ones (``primitive``, ``dot``, the ``vec_*``
helpers, the ``_scan_py``/``_scan`` backends) are too fine-grained to wrap;
their time lands in the self time of the wrapped caller, mostly ``dd``.
The private ``lru_cache`` objects ``_fiber_cached`` and ``_git_cone_cached``
are never wrapped, and the wrapper of ``weight_cone`` forwards
``cache_info``/``cache_clear``, so cache statistics stay reachable.
"""

import itertools
import sys
import time
from functools import update_wrapper

LAYERS = {
    "latpoints": ("normloc.latpoints",
                  ("normally_located", "is_normal", "decompose",
                   "enumerate_points", "enumerate_windowed")),
    "kernels": ("normloc.kernels",
                ("scan_points", "scan_first", "scan_undecomposed")),
    "dd": ("normloc.dd",
           ("generators_from_constraints", "constraints_from_generators")),
    "exact": ("normloc.exact",
              ("hermite_normal_form", "kernel_lattice_basis",
               "saturated_basis", "solve_integral", "solve_rational", "rank",
               "det", "project_off")),
    "polyhedra": ("normloc.polyhedra",
                  ("from_h", "from_v", "minkowski_sum", "scale",
                   "translate")),
    "fans": ("normloc.fans",
             ("cone_from_generators", "cone_from_h", "intersect_cones",
              "dual_cone", "normal_fan", "common_refinement",
              "fan_from_cones", "is_fan", "refines", "support")),
    "gitfan": ("normloc.gitfan",
               ("fiber", "git_cone", "git_fan", "orbit_cones", "weight_cone",
                "fiber_point_sum_exact", "fiber_sum_exact", "realize_pair",
                "refinement_iff_interior", "multiple_making_sums_exact",
                "located_multiple_search")),
}

CACHES = {"fiber": "_fiber_cached", "git_cone": "_git_cone_cached"}


def _dd_extra(args, result):
    # both directions take (dim, first family, second family) and return a
    # (lines, rays) or (eqs, ineqs) pair
    if len(args) < 3:
        return None
    return (len(args[1]) + len(args[2]), len(result[0]) + len(result[1]))


EXTRAS = {
    ("kernels", "scan_points"): lambda args, result: len(result),
    ("kernels", "scan_first"): lambda args, result: result is not None,
    ("dd", "generators_from_constraints"): _dd_extra,
    ("dd", "constraints_from_generators"): _dd_extra,
}


def normloc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "normloc"
                                  or name.startswith("normloc."))]


def cache_infos():
    """(hits, misses) of the gitfan caches, (0, 0) for a missing cache."""
    gitfan = sys.modules.get("normloc.gitfan")
    out = {}
    for key, attr in CACHES.items():
        fn = getattr(gitfan, attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[key] = (info.hits, info.misses) if info else (0, 0)
    return out


class Tracer:
    """Installs span-recording wrappers around the layer entry points."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._ids = itertools.count()
        self._patched = []

    def _wrap(self, layer, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        extra = EXTRAS.get((layer, name))
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op, layer, name, t0, t1,
                              None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, parent, self.op, layer, name, t0, t1,
                          extra(args, result) if extra else None))
            return result

        update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self):
        modules = normloc_modules()
        for layer, (modname, names) in LAYERS.items():
            mod = sys.modules.get(modname)
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    continue  # renamed or removed: nothing to time
                wrapper = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, fn))

    def uninstall(self):
        """Restore every binding; return those that did not restore."""
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        bad = [f"{m.__name__}.{attr}" for m, attr, fn in self._patched
               if getattr(m, attr) is not fn]
        self._patched = []
        return bad


def layer_metrics(spans, op_walls_ns):
    """Per-layer calls, counts and self times of one traced pass.

    Self time is a span's duration minus the durations of its child spans;
    spans are strictly nested because ops run one at a time.  Unattributed
    time is op wall time that no root span covers.
    """
    child = {}
    layer_of = {}
    for sid, parent, _, layer, _, t0, t1, _ in spans:
        layer_of[sid] = layer
        if parent is not None:
            child[parent] = child.get(parent, 0) + (t1 - t0)
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    root_ns = 0
    points_out = first_calls = first_hits = 0
    rows_in = gens_out = max_gens = 0
    for sid, parent, _, layer, name, t0, t1, extra in spans:
        dur = t1 - t0
        calls[layer] += 1
        self_ns[layer] += dur - child.get(sid, 0)
        if parent is None:
            root_ns += dur
        if extra is None:
            continue
        if layer == "kernels" and name == "scan_points":
            points_out += extra
        elif layer == "kernels" and name == "scan_first":
            first_calls += 1
            first_hits += extra
        elif layer == "dd":
            max_gens = max(max_gens, extra[1])
            # rows handed in by other layers; a nested dd call (the polar
            # direction runs the primal one) would count them twice
            if parent is None or layer_of[parent] != "dd":
                rows_in += extra[0]
                gens_out += extra[1]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
    out["kernels.points_out"] = (points_out, "count")
    out["kernels.first_calls"] = (first_calls, "count")
    out["kernels.first_hits"] = (first_hits, "count")
    out["kernels.first_hit_ratio"] = (
        first_hits / first_calls if first_calls else 0.0, "ratio")
    out["dd.rows_in"] = (rows_in, "count")
    out["dd.gens_out"] = (gens_out, "count")
    out["dd.max_gens_out"] = (max_gens, "count")
    out["trace.spans"] = (len(spans), "count")
    out["trace.unattributed_s"] = ((sum(op_walls_ns) - root_ns) / 1e9, "s")
    return out


def cache_metrics(before, after):
    out = {}
    for key in CACHES:
        hits = after[key][0] - before[key][0]
        misses = after[key][1] - before[key][1]
        total = hits + misses
        out[f"gitfan.{key}_cache_hits"] = (hits, "count")
        out[f"gitfan.{key}_cache_misses"] = (misses, "count")
        out[f"gitfan.{key}_cache_hit_ratio"] = (
            hits / total if total else 0.0, "ratio")
    return out
