"""Spans around the public functions of statransport, recorded from outside.

``LayerTrace`` replaces each public function of the traced modules, in every
statransport namespace that holds it, with a wrapper that records one span:
name, start, end, the enclosing span in the same thread, and for a few
functions the work done (RK4 steps, split-operator steps and grid points).
Nothing inside the package changes; calls a module makes to its own private
helpers are not seen.  Spans stay in memory; ``layer_metrics`` reduces them.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from dataclasses import dataclass

MODULES = ("polycalc", "designer", "evaluator", "optimizer", "qsim", "cli")
CPU_TIMED = {"optimizer.sweep_epsilon"}  # process CPU time, all threads


@dataclass(slots=True)
class Span:
    name: str
    t0: float
    t1: float = 0.0
    parent: str | None = None
    cpu: float = 0.0
    work: tuple = ()


def _classical_work(args, kwargs, result):
    return (result.times.size - 1,)


def _propagate_work(args, kwargs, result):
    from statransport.qsim import propagate

    bound = inspect.signature(propagate).bind(*args, **kwargs)
    protocol, grid, omega = (bound.arguments[k] for k in ("protocol", "grid", "omega"))
    dt = bound.arguments.get("dt")
    if dt is None:
        dt = min(0.002, 0.02 / omega)
    return (max(1, math.ceil(protocol.dspec.t_f / dt)), grid.n_points)


WORK = {
    "evaluator.classical_simulate": _classical_work,
    "qsim.propagate": _propagate_work,
}


class LayerTrace:
    """Install with ``with LayerTrace() as trace:``; spans land in ``trace.spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, local = self.spans, self._local
        cpu_timed = name in CPU_TIMED
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            stack.append(name)
            if cpu_timed:
                span.cpu = -time.process_time()
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                if cpu_timed:
                    span.cpu += time.process_time()
                stack.pop()
                spans.append(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        package = [m for k, m in sys.modules.items()
                   if k == "statransport" or k.startswith("statransport.")]
        for mod_name in MODULES:
            module = sys.modules[f"statransport.{mod_name}"]
            names = getattr(module, "__all__", None) or ["main"]
            for attr in names:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                wrapped = self._wrap(f"{mod_name}.{attr}", fn)
                for holder in package:
                    if holder.__dict__.get(attr) is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()
        return False


def span_summary(spans: list[Span]) -> dict:
    """Calls and total wall seconds per traced function."""
    out = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += s.t1 - s.t0
    return out


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(op_spans: list[Span], n_ops: int, cli_spans: list[Span]) -> dict:
    """Per-layer figures, as {name: (value, unit)}.

    Times per call come from the workload's operations; a layer the
    workload never calls is timed on the cli runs of the same traced run,
    and so is the optimizer's self time (then per cli run, not per
    operation).  Counts per operation come from the operations alone.
    """
    def calls(name, spans):
        return [s for s in spans if s.name == name]

    def timed(name):
        return calls(name, op_spans) or calls(name, cli_spans)

    def per_call(name, scale):
        spans = timed(name)
        return scale * sum(s.t1 - s.t0 for s in spans) / len(spans) if spans else 0.0

    def children_per_call(parent, child):
        spans = op_spans if calls(parent, op_spans) else cli_spans
        n_parent = len(calls(parent, spans))
        n_child = sum(1 for s in spans if s.name == child and s.parent == parent)
        return n_child / n_parent if n_parent else 0.0

    def steps_per_s(name):
        spans = timed(name)
        busy = sum(s.t1 - s.t0 for s in spans)
        return sum(s.work[0] for s in spans) / busy if busy else 0.0

    sweeps = timed("optimizer.sweep_epsilon")
    sweep_wall = sum(s.t1 - s.t0 for s in sweeps)
    propagates = timed("qsim.propagate")

    # optimizer self time: top-level optimizer spans minus the time covered
    # by the band averages and builds they caused (sweep workers run those in
    # other threads, so cover is taken by time interval, not by parent link);
    # per operation, or per cli run when the operations never optimize
    def optimizer_self_time(spans, top_parent):
        inner = [s for s in spans
                 if s.name in ("evaluator.lambda_metric", "designer.build_trajectory")]
        total = 0.0
        for s in spans:
            if s.name.startswith("optimizer.") and s.parent == top_parent:
                cover = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in inner
                         if c.t1 > s.t0 and c.t0 < s.t1]
                total += (s.t1 - s.t0) - _union_length(cover)
        return total

    if any(s.name.startswith("optimizer.") for s in op_spans):
        self_per_op = optimizer_self_time(op_spans, None) / n_ops
    else:
        self_per_op = optimizer_self_time(cli_spans, "cli.main")

    return {
        "evaluator.fourier_factorized.us_per_call": (per_call("evaluator.fourier_factorized", 1e6), "us"),
        "evaluator.fourier_factorized.calls_per_op": (
            len(calls("evaluator.fourier_factorized", op_spans)) / n_ops, "count"),
        "evaluator.lambda_metric.ms_per_call": (per_call("evaluator.lambda_metric", 1e3), "ms"),
        "evaluator.lambda_metric.probes_per_call": (
            children_per_call("evaluator.lambda_metric", "evaluator.fourier_factorized"), "count"),
        "optimizer.optimize_epsilon.ms_per_call": (per_call("optimizer.optimize_epsilon", 1e3), "ms"),
        "optimizer.optimize_epsilon.lambda_calls_per_call": (
            children_per_call("optimizer.optimize_epsilon", "evaluator.lambda_metric"), "count"),
        "optimizer.sweep_epsilon.ms_per_call": (per_call("optimizer.sweep_epsilon", 1e3), "ms"),
        "optimizer.sweep_epsilon.cpu_over_wall": (
            sum(s.cpu for s in sweeps) / sweep_wall if sweep_wall else 0.0, "ratio"),
        "optimizer.self_ms_per_op": (1e3 * self_per_op, "ms"),
        "designer.build_trajectory.ms_per_call": (per_call("designer.build_trajectory", 1e3), "ms"),
        "designer.build_trajectory.calls_per_op": (
            len(calls("designer.build_trajectory", op_spans)) / n_ops, "count"),
        "polycalc.symmetric_coefficients.us_per_call": (
            per_call("polycalc.symmetric_coefficients", 1e6), "us"),
        "designer.save_protocol.ms_per_call": (per_call("designer.save_protocol", 1e3), "ms"),
        "designer.load_protocol.ms_per_call": (per_call("designer.load_protocol", 1e3), "ms"),
        "evaluator.excitation_curve.ms_per_call": (per_call("evaluator.excitation_curve", 1e3), "ms"),
        "evaluator.classical_simulate.ms_per_call": (
            per_call("evaluator.classical_simulate", 1e3), "ms"),
        "evaluator.classical_simulate.steps_per_s": (
            steps_per_s("evaluator.classical_simulate"), "1/s"),
        "qsim.make_grid.ms_per_call": (per_call("qsim.make_grid", 1e3), "ms"),
        "qsim.propagate.ms_per_call": (per_call("qsim.propagate", 1e3), "ms"),
        "qsim.propagate.steps_per_s": (steps_per_s("qsim.propagate"), "1/s"),
        "qsim.propagate.grid_points": (
            sum(s.work[1] for s in propagates) / len(propagates) if propagates else 0.0, "count"),
        "qsim.analytic_solution.ms_per_call": (per_call("qsim.analytic_solution", 1e3), "ms"),
        "qsim.verification_report.ms_per_call": (per_call("qsim.verification_report", 1e3), "ms"),
    }
