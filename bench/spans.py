"""Span tracing for the benchmark, installed from outside the library.

The library itself carries no instrumentation. For a traced run the
benchmark replaces every public function of the measured modules with a
wrapper that records a span, in every namespace that binds it: the
modules import each other with ``from .x import y``, so patching only the
defining module would miss most calls. Curves get a counting evaluator
through ``dataclasses.replace``, both the curves the benchmark builds and
the ones library functions return (arclength reparametrizations, focal
curves, sampled and synthesized curves).

Spans live in flat in-memory arrays until :meth:`Tracer.write` dumps
them. Self time is computed as each span closes: its duration minus the
time covered by its children. Calls nest strictly (one thread), so this
equals span length minus child coverage computed afterwards.

A wrapped call also spends time in its wrapper before its span starts and
after it ends, and that time falls inside the caller's span. On
``install`` the tracer measures this cost per wrapper shape on a no-op
and counts it as part of each child's coverage, so the caller's self time
does not carry its children's tracing overhead. What remains is the
difference between the no-op and real calls (cache state, the extra
bookkeeping of the frenet_apparatus and focal_curvatures hooks).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("curves", "numdiff", "linalg", "frenet", "focal", "slant", "specfile", "cli")
ORACLE_KINDS = ("analytic", "arclength", "sampled", "synthesized")

# make_curve is the shared constructor behind every factory; wrapping its
# result would tag an arclength curve as "analytic" before
# reparam_to_arclength returns it, so only its span is recorded.
_NO_RESULT_WRAP = {"curves.make_curve"}
_RESULT_KIND = {"curves.reparam_to_arclength": "arclength"}

_FACTORIES = (
    "make_circle", "make_ellipse", "make_helix", "make_wcurve", "make_salkowski",
    "curve_from_coordinates", "random_trig_curve", "make_curve", "sampled_curve",
)

# Per-layer time metrics: each is the summed self time of the listed spans.
SELF_TIME_METRICS = {
    **{f"curves.oracle_s.{k}": (f"curves.oracle.{k}",) for k in ORACLE_KINDS},
    "curves.reparam_s": ("curves.reparam_to_arclength",),
    "curves.factory_s": tuple(f"curves.{f}" for f in _FACTORIES),
    "curves.synthesize_s": ("curves.synthesize_from_curvatures",),
    "numdiff.grid_derivative_s": ("numdiff.grid_derivative",),
    "linalg.gram_schmidt_s": ("linalg.gram_schmidt",),
    "linalg.eigh_s": ("linalg.jacobi_eigh",),
    "linalg.solve_s": ("linalg.solve_linear",),
    "frenet.frenet_grid_s": ("frenet.frenet_grid",),
    "frenet.curvature_table_s": ("frenet.curvature_table",),
    "focal.focal_curvatures_s": ("focal.focal_curvatures",),
    "focal.focal_curve_s": ("focal.focal_curve",),
    "focal.relations_s": ("focal.focal_relations_check",),
    "focal.oracle_s": ("focal.osculating_center_oracle",),
    "slant.is_k_slant_s": ("slant.is_k_slant",),
    "slant.estimate_axis_s": ("slant.estimate_axis",),
    "slant.verify_s": ("slant.verify_focal_slant",),
    "specfile.load_s": ("specfile.load_curve_spec", "specfile.parse_curve_spec"),
    "specfile.build_s": ("specfile.build_curve",),
    "specfile.samples_dict_s": ("specfile.samples_spec_dict",),
}

# Per-layer call counts: number of spans with the given name.
CALL_COUNT_METRICS = {
    **{f"curves.oracle_calls.{k}": f"curves.oracle.{k}" for k in ORACLE_KINDS},
    "numdiff.fd_weights_calls": "numdiff.fd_weights",
    "linalg.gram_schmidt_calls": "linalg.gram_schmidt",
    "linalg.eigh_calls": "linalg.jacobi_eigh",
    "linalg.solve_calls": "linalg.solve_linear",
    "frenet.frenet_grid_calls": "frenet.frenet_grid",
    "frenet.rows": "frenet.frenet_apparatus",
    "focal.focal_curvatures_calls": "focal.focal_curvatures",
    "slant.is_k_slant_calls": "slant.is_k_slant",
}

COUNT_METRICS = (
    *CALL_COUNT_METRICS,
    "frenet.reduced_rows",
    "focal.vertex_rows",
)


def _shape(span_name: str) -> str:
    """Which wrapper records spans of this name: an evaluator or a function."""
    return "evaluator" if span_name.startswith("curves.oracle.") else "function"


class Tracer:
    """Flat span store plus running self-time and call tallies."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_s: defaultdict[int, float] = defaultdict(float)
        self.total_s: defaultdict[int, float] = defaultdict(float)
        self.calls: Counter[int] = Counter()
        self.counters: Counter[str] = Counter()
        self._frames_seen: set = set()
        self._frames_distinct = 0
        self._tokens = 0
        self._patches: list[tuple[object, str, object]] = []
        # Tracing cost outside a span's own window, per wrapper shape and
        # per span name; set by calibrate().
        self.span_cost = {"function": 0.0, "evaluator": 0.0}
        self._cost: list[float] = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._cost.append(self.span_cost[_shape(name)])
        return nid

    def begin(self, nid: int) -> None:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.start.append(time.perf_counter())

    def finish(self) -> None:
        t = time.perf_counter()
        idx = self._stack.pop()
        child = self._child.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        nid = self.name[idx]
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        self.calls[nid] += 1
        if self._child:
            self._child[-1] += dur + self._cost[nid]

    def new_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._frames_distinct += len(self._frames_seen)
        self._frames_seen = set()

    # -- instrumentation ---------------------------------------------------

    def wrap_curve(self, curve, kind: str | None = None):
        """Same curve with an evaluator that records one span per oracle call."""
        inner = curve.evaluator
        if hasattr(inner, "bench_kind"):
            return curve
        kind = kind or curve.kind
        self._tokens += 1
        evaluator = self._wrap_evaluator(inner, self.name_id(f"curves.oracle.{kind}"))
        evaluator.bench_kind = kind
        evaluator.bench_token = self._tokens
        return dataclasses.replace(curve, evaluator=evaluator)

    def _wrap_evaluator(self, inner, nid: int):
        begin, finish = self.begin, self.finish

        def evaluator(t, order):
            begin(nid)
            try:
                return inner(t, order)
            finally:
                finish()

        return evaluator

    def _wrap_function(self, qualname: str, fn, curve_type):
        nid = self.name_id(qualname)
        begin, finish = self.begin, self.finish
        wrap_result = qualname not in _NO_RESULT_WRAP
        result_kind = _RESULT_KIND.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish()
            if wrap_result and isinstance(result, curve_type):
                result = self.wrap_curve(result, result_kind)
            return result

        return wrapper

    def _hook_frames(self, fn, reduced_order):
        # frenet_apparatus: distinct (curve, s) rows and rows of reduced order.
        @functools.wraps(fn)
        def wrapper(curve, s, *args, **kwargs):
            token = getattr(curve.evaluator, "bench_token", id(curve))
            self._frames_seen.add((token, float(s)))
            try:
                return fn(curve, s, *args, **kwargs)
            except reduced_order:
                self.counters["frenet.reduced_rows"] += 1
                raise

        return wrapper

    def _hook_vertices(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = fn(*args, **kwargs)
            self.counters["focal.vertex_rows"] += sum(1 for fd in table if fd.is_vertex)
            return table

        return wrapper

    def calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure the per-span cost that falls outside the span's window.

        For each wrapper shape, time ``n`` wrapped no-op calls, subtract
        the bare loop and the time inside the spans, and keep the median
        per call over ``repeats`` trials.
        """
        def noop(t, order):
            return None

        for shape in self.span_cost:
            samples = []
            for _ in range(repeats):
                probe = Tracer()
                nid = probe.name_id("probe")
                if shape == "evaluator":
                    wrapped = probe._wrap_evaluator(noop, nid)
                else:
                    wrapped = probe._wrap_function("probe", noop, Tracer)
                t0 = time.perf_counter()
                for _ in range(n):
                    wrapped(0.0, 1)
                t1 = time.perf_counter()
                for _ in range(n):
                    pass
                loop = time.perf_counter() - t1
                samples.append((t1 - t0 - loop - probe.total_s[nid]) / n)
            self.span_cost[shape] = max(0.0, statistics.median(samples))
        self._cost = [self.span_cost[_shape(name)] for name in self.names]

    def install(self, package: str = "focalframe") -> None:
        """Calibrate, then wrap every public function of MODULES wherever it is bound."""
        self.calibrate()
        pkg = sys.modules[package]
        curve_type = pkg.Curve
        reduced_order = pkg.ReducedOrder
        replacements: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                qualname = f"{short}.{attr}"
                wrapped = self._wrap_function(qualname, obj, curve_type)
                if qualname == "frenet.frenet_apparatus":
                    wrapped = self._hook_frames(wrapped, reduced_order)
                elif qualname == "focal.focal_curvatures":
                    wrapped = self._hook_vertices(wrapped)
                replacements[id(obj)] = wrapped
        namespaces = [pkg] + [m for n, m in sys.modules.items()
                              if n.startswith(package + ".") and m is not None]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                new = replacements.get(id(obj))
                if new is not None and inspect.isfunction(obj):
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, new)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _self(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def _calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def base_calls_per_eval(self) -> float:
        """Analytic oracle calls made inside arclength oracle calls, per call."""
        outer = self._ids.get("curves.oracle.arclength")
        inner = self._ids.get("curves.oracle.analytic")
        if outer is None or inner is None or not self.calls[outer]:
            return 0.0
        nested = 0
        names, parents = self.name, self.parent
        for i in range(len(names)):
            p = parents[i]
            if names[i] == inner and p >= 0 and names[p] == outer:
                nested += 1
        return nested / self.calls[outer]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except the cli.* and trace.* ones."""
        out: dict[str, tuple[float, str]] = {}
        for metric, span in CALL_COUNT_METRICS.items():
            out[metric] = (self._calls(span), "count")
        out["frenet.reduced_rows"] = (self.counters["frenet.reduced_rows"], "count")
        out["focal.vertex_rows"] = (self.counters["focal.vertex_rows"], "count")
        for metric, spans in SELF_TIME_METRICS.items():
            out[metric] = (sum(self._self(s) for s in spans), "s")
        out["curves.arclength.base_calls_per_eval"] = (self.base_calls_per_eval(), "ratio")
        rows = self._calls("frenet.frenet_apparatus")
        distinct = self._frames_distinct + len(self._frames_seen)
        out["frenet.distinct_row_ratio"] = (distinct / rows if rows else 0.0, "ratio")
        return out

    def function_table(self) -> list[dict]:
        """Calls, self and inclusive time of every span name, by self time.

        No function calls itself through a wrapper, so summing span lengths
        per name counts no interval twice.
        """
        rows = [{"name": n, "calls": self.calls[i], "self_s": self.self_s[i],
                 "total_s": self.total_s[i]} for i, n in enumerate(self.names)]
        return sorted(rows, key=lambda r: -r["self_s"])

    def write(self, path: Path, seed: int) -> None:
        """Dump all spans as columns: name id, start, end, parent index, op id."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            seed=np.array(seed),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int_),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            op=np.frombuffer(self.op, dtype=np.int_),
        )
