"""Span tracing installed from outside the program.

`Tracer.install` replaces the public functions and methods of each
groupspeed module with timing wrappers, wherever a module namespace or class
holds them, so calls made through `from .x import f` bindings are caught too.
The program itself is not edited. A call made from inside the same layer
(`SpeedRisk.derivative` calling `RiskCurve.derivative`, `build_matrix`
calling `neighbors`) is counted but not timed again: time and self time are
taken at layer boundaries only.

Each boundary call becomes a span (name, request, parent, start, end, self
time) kept in memory and written out at the end. The hot scalar calls, the
risk evaluations and neighbour queries, are aggregated per (name, parent)
instead of kept one by one.
"""

import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

EVAL_METHODS = ("value", "derivative", "second_derivative")
SCALAR_EVALS = tuple(f"riskmodel.scalar_{m}" for m in EVAL_METHODS)

# module-level functions wrapped as recorded spans; the module names the layer
FUNCTIONS = (
    "scenario.generate_scenario",
    "scenario.run_experiment",
    "riskmodel.fit_risk_curve",
    "riskmodel.check_quasi_convexity",
    "oracle.solve_common_speed",
    "oracle.brute_force_verify",
    "consensus.run",
    "consensus.auto_mu",
    "svgchart.write_chart",
    "cli.main",
)
NETSIM_METHODS = ("build_matrix", "check_ergodicity_window", "record_speeds")
EVAL = "riskmodel.eval"  # frame layer of a risk evaluation in progress
ALL = object()  # `Tracer.count` parent meaning "from any caller"


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [layer, name, span_id, child_seconds]
        self.spans = []
        self.seconds = defaultdict(float)  # span name -> inclusive seconds
        self.self_seconds = defaultdict(float)  # span name -> self seconds
        self.calls = Counter()  # (name, parent span name) -> calls
        self.request = None
        self._ids = 0
        self._patched = []

    # -- installation -------------------------------------------------

    def install(self, gs):
        """Wrap the program's boundaries; `gs` holds the package and its modules."""
        modules = list(vars(gs).values())
        after = {
            "consensus.run": self._count_steps,
            "svgchart.write_chart": self._count_bytes,
        }
        for name in FUNCTIONS:
            layer, attr = name.split(".")
            original = getattr(getattr(gs, layer), attr)
            wrapped = self._span(layer, name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

        trace_cls = gs.consensus.SimulationTrace
        self._patch(
            trace_cls, "to_csv",
            self._span("consensus", "consensus.to_csv", trace_cls.to_csv),
        )
        for cls in (gs.riskmodel.RiskCurve, gs.riskmodel.SpeedRisk):
            for method in EVAL_METHODS:
                self._patch(cls, method, self._eval(getattr(cls, method)))
        for cls in _subclasses(gs.netsim.TopologySequence):
            for method in NETSIM_METHODS:
                if method in vars(cls):
                    wrapped = self._span("netsim", f"netsim.{method}", vars(cls)[method])
                    self._patch(cls, method, wrapped)
            if "neighbors" in vars(cls):
                self._patch(cls, "neighbors", self._neighbors(vars(cls)["neighbors"]))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers -----------------------------------------------------

    def _span(self, layer, name, fn, after=None):
        stack, perf = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                self.calls[(name, parent[1])] += 1
                return fn(*args, **kwargs)
            self._ids += 1
            frame = [layer, name, self._ids, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self._close(frame, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _close(self, frame, parent, start, end):
        _, name, span_id, child = frame
        duration = end - start
        self.seconds[name] += duration
        self.self_seconds[name] += duration - child
        self.calls[(name, parent[1] if parent else None)] += 1
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, parent[2] if parent else None, self.request, name,
             start, end, duration - child)
        )

    def _eval(self, fn):
        """Risk evaluation: split into scalar calls and array points."""
        stack, perf = self.stack, time.perf_counter

        def wrapper(obj, x):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == EVAL:
                return fn(obj, x)
            frame = [EVAL, None, None, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(obj, x)
            finally:
                duration = perf() - start
                stack.pop()
                if isinstance(x, float) or np.ndim(x) == 0:
                    name = f"riskmodel.scalar_{fn.__name__}"
                else:
                    name = "riskmodel.array_eval"
                    self.calls[("riskmodel.array_points", None)] += int(np.size(x))
                self.seconds[name] += duration
                self.calls[(name, parent[1] if parent else None)] += 1
                if parent is not None:
                    parent[3] += duration

        return wrapper

    def _neighbors(self, fn):
        """Neighbour queries: every call counted, boundary calls timed."""
        stack, perf = self.stack, time.perf_counter

        def wrapper(obj, k, i):
            parent = stack[-1] if stack else None
            self.calls[("netsim.neighbors", parent[1] if parent else None)] += 1
            if parent is not None and parent[0] == "netsim":
                return fn(obj, k, i)
            start = perf()
            try:
                return fn(obj, k, i)
            finally:
                duration = perf() - start
                self.seconds["netsim.neighbors"] += duration
                if parent is not None:
                    parent[3] += duration

        return wrapper

    def _count_bytes(self, args, result):
        self.calls[("svgchart.bytes_written", None)] += os.path.getsize(args[0])

    def _count_steps(self, args, trace):
        self.calls[("consensus.iterations", None)] += trace.iterations
        rows = len(trace.speeds) * len(trace.speeds[0])
        self.calls[("consensus.agent_rows", None)] += rows

    # -- results ------------------------------------------------------

    def count(self, name, parent=ALL, calls=None):
        """Calls of `name`, from every parent or from the one given."""
        calls = self.calls if calls is None else calls
        return sum(
            v for (n, p), v in calls.items()
            if n == name and (parent is ALL or p == parent)
        )

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "request", "name", "start", "end", "self"), span
                ))) + "\n")
            for (name, parent), n in sorted(self.calls.items(), key=str):
                fh.write(json.dumps({"count": name, "parent": parent, "n": n}) + "\n")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
