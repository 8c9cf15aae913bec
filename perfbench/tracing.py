"""Span tracing from outside the package, for the traced run.

The benchmark adds no emission sites to ``src/``: :class:`LayerPatches`
temporarily rebinds public functions and methods of the package's
layers to wrappers that open a span around each call, and restores
them afterwards.  :class:`Tracer` keeps a span stack and, as each span
closes, charges its *self time* (its duration minus its child spans) to
its layer name, so the self times of one operation always add up to
the operation's wall time.  Full span records are kept only for the
first few operations, which bounds memory and the Chrome trace file.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

#: Span name of each operation's root (the benchmark's own call).
ROOT = "op"
#: Spans whose self time is glue that no layer names: the root, and a
#: heuristic's ``run`` minus every named child layer.  The event loop of
#: ``OnlineEngine.run`` and the ILS driver are layers of their own.
RESIDUAL = (ROOT, "heuristics.run")
#: Operations whose full span records are kept for the Chrome trace.
KEEP_OPS = 4


class Tracer:
    """Per-name self/inclusive time and call totals over traced operations."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        self.op_wall_s = 0.0
        self.ops = 0
        #: ``(name, start_s, end_s, parent_name, op_id)`` of the kept ops.
        self.spans: list[tuple[str, float, float, str | None, int]] = []
        self._stack: list[list] = []  # [name, t0, child_s]
        self._op_id = -1
        self.epoch = perf_counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        t1 = perf_counter()
        name, t0, child_s = self._stack.pop()
        dur = t1 - t0
        own = dur - child_s
        stack = self._stack
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        if not any(frame[0] == name for frame in stack):
            self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
        if name in self.durations:
            self.durations[name].append(dur)
        if stack:
            stack[-1][2] += dur
        else:
            self.op_wall_s += dur
            self.ops += 1
        if self._op_id < KEEP_OPS:
            parent = stack[-1][0] if stack else None
            self.spans.append((name, t0 - self.epoch, t1 - self.epoch, parent, self._op_id))

    @contextmanager
    def op(self, op_id: int):
        """The root span of one operation."""
        if self._stack:
            raise RuntimeError("operations must not nest")
        self._op_id = op_id
        self.enter(ROOT)
        try:
            yield
        finally:
            self.exit()

    @property
    def residual_s(self) -> float:
        """Self time charged to no named layer (see :data:`RESIDUAL`)."""
        return sum(self.self_s.get(name, 0.0) for name in RESIDUAL)

    def record_durations(self, name: str) -> None:
        """Also keep every inclusive duration of ``name`` (for percentiles)."""
        self.durations.setdefault(name, [])

    def chrome_trace(self, workload: str) -> dict:
        """The kept spans as Chrome ``trace_event`` JSON (one track per op)."""
        from repro.obs.trace import PID_PHASES

        events = [{
            "name": "process_name", "ph": "M", "pid": PID_PHASES,
            "args": {"name": f"perfbench {workload} (traced operations)"},
        }]
        for name, start, end, parent, op_id in self.spans:
            events.append({
                "name": name, "ph": "X", "pid": PID_PHASES, "tid": op_id,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"op": op_id, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


class LayerPatches:
    """The package's layer boundaries, rebound to tracing wrappers.

    Functions are rebound in every ``repro`` module that holds them
    (``from x import f`` copies the binding); methods are rebound on
    each class that defines them.  Use as a context manager; the
    original bindings are restored on exit.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    def _functions(self):
        from importlib import import_module

        ranking = import_module("repro.core.ranking")
        statics = import_module("repro.kernel.statics")
        routing = import_module("repro.models.routing")
        policies = import_module("repro.online.policies")
        replay = import_module("repro.simulate.replay")

        return [
            (ranking.bottom_levels, "core.rank"),
            (ranking.priority_order, "core.rank"),
            (statics.compile_statics, "kernel.statics"),
            (routing.build_routing_table, "models.routing_table"),
            (policies.replan_job, "online.replan"),
            (replay.extract_decisions, "simulate.replay"),
            (replay.replay, "simulate.replay"),
            (replay.replay_schedule, "simulate.replay"),
        ]

    def _methods(self):
        from repro.core.schedule import Schedule
        from repro.core.taskgraph import TaskGraph
        from repro.heuristics import get_scheduler
        from repro.heuristics.base import SchedulerState
        from repro.heuristics.state_array import ArraySchedulerState
        from repro.heuristics.state_cext import CextSchedulerState
        from repro.heuristics.state_object import ObjectSchedulerState
        from repro.kernel.timed import TimedKernel
        from repro.models.routing import RoutedOnePortTrial
        from repro.online.engine import OnlineEngine
        from repro.search import IncrementalEvaluator, IteratedLocalSearch

        states = (SchedulerState, ArraySchedulerState, CextSchedulerState, ObjectSchedulerState)
        out = [
            (TaskGraph, "validate", "core.validate"),
            (Schedule, "place", "core.schedule_build"),
            (Schedule, "record_comm", "core.schedule_build"),
            (TimedKernel, "from_decisions", "kernel.from_decisions"),
            (RoutedOnePortTrial, "edge_arrival", "models.routed_trial"),
            (OnlineEngine, "run", "online.event_loop"),
            (OnlineEngine, "build_plan_activities", "online.build_activities"),
            (IteratedLocalSearch, "run", "search.ils"),
            (IncrementalEvaluator, "load", "search.load"),
            (IncrementalEvaluator, "preview", "search.preview"),
            (IncrementalEvaluator, "commit", "search.commit"),
            (IncrementalEvaluator, "critical_path_tasks", "search.critical_path"),
        ]
        for cls in states:
            out += [(cls, m, "kernel.sweep") for m in ("best_candidate", "evaluate", "evaluate_all")]
            out += [(cls, m, "kernel.commit") for m in ("commit", "schedule_on")]
        for name in ("heft", "ilha", "pct"):
            out.append((type(get_scheduler(name)), "run", "heuristics.run"))
        return out

    def __enter__(self) -> "LayerPatches":
        from repro.kernel.backends import current_backend

        tracer = self.tracer
        try:
            for fn, name in self._functions():
                wrapped = _wrap(tracer, name, fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)
            for cls, attr, name in self._methods():
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue  # inherited: the defining class is patched
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, name, raw.__func__))
                else:
                    new = _wrap(tracer, name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
            backend = current_backend()
            self._undo.append((backend, "propagate", None))
            backend.propagate = _wrap(tracer, "kernel.propagate", backend.propagate)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
