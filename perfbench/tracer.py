"""Layer tracing from outside the program.

``Tracer.install()`` wraps the public functions and methods of every aptkit
layer and rebinds each wrapped name in every aptkit module that holds it,
so that a ``from .rational import primitive`` binding is traced as well.
A wrapper records a span (name, start, end, parent span) and adds its
duration to the layer's exclusive time: the time during which the
innermost open span belongs to that layer.  The hot L0 layers keep only
counts and exclusive time, not a span per call.  Untraced runs never
import this module.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import sys
import time

LAYERS = ("rational", "linalg", "fm", "geometry", "polyhedra", "barcodes", "k0", "modules",
          "interleaving", "cutoff", "toric", "catalog", "io")
AGGREGATED = ("rational", "linalg")
POLY_SUMS = ("minkowski_sum", "minkowski_with_relint_cone")
FM_SYSTEMS = ("eliminate", "feasible", "project", "substitute", "interval_of_var")


class Tracer:
    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.names = []
        self.spans = []
        self.ids = itertools.count(1)
        self.stack = []  # open frames: [child seconds, span id]
        self.primitive_calls = 0
        self.cone_keys = set()
        self.cone_builds = 0
        self.poly_builds = 0
        self.sum_kept = 0
        self.sum_handed = 0
        self.sum_frames = []
        self.fm_max_in = 0
        self.fm_max_out = 0
        self.modules_q_s = 0.0
        self.modules_fp_s = 0.0
        self.modules_depth = 0
        self.op_span = 0
        self.bindings = []  # (owner, name, original, wrapped) for pause/resume

    # --------------------------------------------------------------- wrapping

    def _wrapper(self, fn, layer, name):
        lid = LAYERS.index(layer)
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        perf = time.perf_counter
        stack, spans, calls, self_s = self.stack, self.spans, self.calls, self.self_s
        keep_span = layer not in AGGREGATED
        tracer = self
        ids = self.ids

        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else tracer.op_span
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                elapsed = t1 - t0
                self_s[lid] += elapsed - frame[0]
                calls[lid] += 1
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans.append((frame[1], parent, nid, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def _hooked(self, fn, layer, name):
        """Wrappers that also keep the layer's counts."""
        inner = self._wrapper(fn, layer, name)
        tracer = self
        if layer == "rational" and name == "primitive":
            def hooked(*args, **kwargs):
                tracer.primitive_calls += 1
                return inner(*args, **kwargs)
        elif layer == "geometry" and name == "Cone.__init__":
            def hooked(cone, *args, **kwargs):
                inner(cone, *args, **kwargs)
                tracer.cone_builds += 1
                tracer.cone_keys.add(cone._key)
        elif layer == "polyhedra" and name == "OpenPolyhedron.__init__":
            def hooked(*args, **kwargs):
                tracer.poly_builds += 1
                return inner(*args, **kwargs)
        elif layer == "polyhedra" and name in POLY_SUMS:
            def hooked(*args, **kwargs):
                tracer.sum_frames.append(0)
                try:
                    result = inner(*args, **kwargs)
                finally:
                    handed = tracer.sum_frames.pop()
                if not result.is_empty:
                    tracer.sum_kept += len(result.constraints)
                    tracer.sum_handed += handed
                return result
        elif layer == "fm" and name in FM_SYSTEMS:
            def hooked(*args, **kwargs):
                if args and isinstance(args[0], list):
                    tracer.fm_max_in = max(tracer.fm_max_in, len(args[0]))
                result = inner(*args, **kwargs)
                if isinstance(result, list):
                    tracer.fm_max_out = max(tracer.fm_max_out, len(result))
                    if name == "project" and tracer.sum_frames:
                        tracer.sum_frames[-1] += len(result)
                return result
        elif layer == "modules":
            lid = LAYERS.index("modules")

            def hooked(*args, **kwargs):
                # Split the modules layer's exclusive time by the field of the
                # outermost modules call: F_p if any argument is or carries a
                # prime field, else Q.
                if tracer.modules_depth:
                    return inner(*args, **kwargs)
                values = args + tuple(kwargs.values())
                fp = any(type(a).__name__ == "PrimeField" or getattr(a, "field", None) is not None for a in values)
                before = tracer.self_s[lid]
                tracer.modules_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer.modules_depth -= 1
                    spent = tracer.self_s[lid] - before
                    if fp:
                        tracer.modules_fp_s += spent
                    else:
                        tracer.modules_q_s += spent
        else:
            return inner
        hooked.__wrapped__ = fn
        return hooked

    def install(self):
        """Wrap every layer's public callables and rebind them everywhere."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"aptkit.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._hooked(obj, layer, name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "aptkit" or modname.startswith("aptkit.")):
                continue
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.bindings.append((module, name, obj, hit[1]))
        self.resume()
        return self

    def pause(self):
        """Put the original functions back, so the benchmark's own checks
        are not counted; ``resume`` rebinds the wrappers."""
        for owner, name, original, _ in self.bindings:
            setattr(owner, name, original)

    def resume(self):
        for owner, name, _, wrapped in self.bindings:
            setattr(owner, name, wrapped)

    def _wrap_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            if name != "__init__" and name.startswith("_"):
                continue
            label = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                wrapped = self._hooked(attr, layer, label)
            elif isinstance(attr, classmethod):
                wrapped = classmethod(self._hooked(attr.__func__, layer, label))
            elif isinstance(attr, property) and attr.fget is not None:
                wrapped = property(self._hooked(attr.fget, layer, label), attr.fset, attr.fdel)
            else:
                continue
            self.bindings.append((cls, name, attr, wrapped))

    # ---------------------------------------------------------------- results

    def begin_op(self, index):
        """Open the root span of one timed operation; its id is -1 - index."""
        self.op_span = -1 - index

    def raw(self):
        """Counts that add up across processes (see ``merge`` and ``metrics``)."""
        return {
            "calls": dict(zip(LAYERS, self.calls)),
            "self_s": dict(zip(LAYERS, self.self_s)),
            "primitive_calls": self.primitive_calls,
            "cone_builds": self.cone_builds,
            "distinct_cones": len(self.cone_keys),
            "poly_builds": self.poly_builds,
            "sum_kept": self.sum_kept,
            "sum_handed": self.sum_handed,
            "fm_max_in": self.fm_max_in,
            "fm_max_out": self.fm_max_out,
            "modules_q_s": self.modules_q_s,
            "modules_fp_s": self.modules_fp_s,
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        """All spans as JSON lines: id, parent (negative: the operation), name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, nid, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, self.names[nid], round(t0, 9), round(t1, 9)]) + "\n")


def merge(raws):
    """Sum per-process counts; maxima stay maxima."""
    out = None
    for raw in raws:
        if out is None:
            out = json.loads(json.dumps(raw))
            continue
        for key, value in raw.items():
            if isinstance(value, dict):
                for layer, v in value.items():
                    out[key][layer] += v
            elif key.startswith("fm_max"):
                out[key] = max(out[key], value)
            else:
                out[key] += value
    return out


def metrics(raw):
    """The per-layer metrics of BENCHMARK.json from merged counts."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (raw["calls"][layer], "count")
        out[f"{layer}.self_ms"] = (1000 * raw["self_s"][layer], "ms")
    out["rational.primitive_calls"] = (raw["primitive_calls"], "count")
    out["fm.max_constraints_in"] = (raw["fm_max_in"], "count")
    out["fm.max_constraints_out"] = (raw["fm_max_out"], "count")
    out["geometry.cone_builds"] = (raw["cone_builds"], "count")
    out["geometry.distinct_cone_ratio"] = (raw["distinct_cones"] / max(1, raw["cone_builds"]), "ratio")
    out["polyhedra.builds"] = (raw["poly_builds"], "count")
    out["polyhedra.sum_kept_ratio"] = (raw["sum_kept"] / max(1, raw["sum_handed"]), "ratio")
    out["modules.q_ms"] = (1000 * raw["modules_q_s"], "ms")
    out["modules.fp_ms"] = (1000 * raw["modules_fp_s"], "ms")
    return out
