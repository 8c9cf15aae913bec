"""Schedules: task placements, communication events, and derived metrics.

A :class:`Schedule` is the output of every heuristic: an assignment of
each task to a processor with a start time (``sigma`` and ``alloc`` in
the paper's notation) together with the explicit communication events
that one-port heuristics book on the ports.  The class is model-agnostic;
:mod:`repro.core.validation` checks a schedule against the rules of a
specific communication model.

Metrics offered here mirror the paper's evaluation: makespan (scheduling
length), speedup versus the fastest-processor sequential time, processor
utilization, and communication statistics (ILHA's design goal is fewer
communications — Section 4.4's toy example counts them).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .exceptions import SchedulingError
from .platform import Platform
from .taskgraph import TaskGraph

TaskId = Hashable


class TaskPlacement(NamedTuple):
    """Execution of one task: processor, start and finish time.

    A :class:`~typing.NamedTuple` rather than a frozen dataclass: replay
    and the campaign engine construct hundreds of thousands of these,
    and tuple construction skips the per-field ``object.__setattr__``
    of frozen dataclasses (~4x faster) while staying immutable.
    """

    task: TaskId
    proc: int
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class CommEvent(NamedTuple):
    """One message transfer booked on the network.

    ``src_task -> dst_task`` is the task-graph edge served; ``src_proc ->
    dst_proc`` are the endpoints of this (possibly intermediate) hop.  For
    directly-connected platforms there is one event per remote edge with
    ``hop == 0``; the routing model emits one event per hop.
    """

    src_task: TaskId
    dst_task: TaskId
    src_proc: int
    dst_proc: int
    start: float
    finish: float
    data: float
    hop: int = 0

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class Schedule:
    """A complete mapping + timing of a task graph onto a platform."""

    graph: TaskGraph
    platform: Platform
    model: str = "macro-dataflow"
    heuristic: str = ""
    placements: dict[TaskId, TaskPlacement] = field(default_factory=dict)
    comm_events: list[CommEvent] = field(default_factory=list)
    #: Which scheduler-state implementation produced this schedule
    #: ("flat-python" or "flat-cext"; "" when hand-built) —
    #: surfaced so cross-backend comparisons can't silently compare
    #: different code paths.
    state_impl: str = ""

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def place(self, task: TaskId, proc: int, start: float, finish: float) -> TaskPlacement:
        """Record the execution of ``task``; each task placed exactly once."""
        if task in self.placements:
            raise SchedulingError(f"task {task!r} placed twice")
        if task not in self.graph:
            raise SchedulingError(f"task {task!r} is not in the graph")
        placement = TaskPlacement(task, proc, start, finish)
        self.placements[task] = placement
        return placement

    def record_comm(
        self,
        src_task: TaskId,
        dst_task: TaskId,
        src_proc: int,
        dst_proc: int,
        start: float,
        duration: float,
        data: float,
        hop: int = 0,
    ) -> CommEvent:
        event = CommEvent(
            src_task, dst_task, src_proc, dst_proc, start, start + duration, data, hop
        )
        self.comm_events.append(event)
        return event

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def proc_of(self, task: TaskId) -> int:
        """``alloc(task)`` — the processor executing ``task``."""
        return self.placements[task].proc

    def start_of(self, task: TaskId) -> float:
        """``sigma(task)`` — the start time of ``task``."""
        return self.placements[task].start

    def finish_of(self, task: TaskId) -> float:
        return self.placements[task].finish

    def is_complete(self) -> bool:
        """Whether every task of the graph has been placed."""
        return len(self.placements) == self.graph.num_tasks

    def tasks_on(self, proc: int) -> list[TaskPlacement]:
        """Placements on ``proc`` sorted by start time."""
        out = [p for p in self.placements.values() if p.proc == proc]
        out.sort(key=lambda p: (p.start, p.finish))
        return out

    def comms_between(self, edge: tuple[TaskId, TaskId]) -> list[CommEvent]:
        """All hops serving task-graph edge ``edge`` in hop order."""
        src, dst = edge
        events = [e for e in self.comm_events if e.src_task == src and e.dst_task == dst]
        events.sort(key=lambda e: e.hop)
        return events

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Scheduling length: ``max(sigma(v) + w(v) * t_alloc(v))``."""
        if not self.placements:
            return 0.0
        return max(p.finish for p in self.placements.values())

    def sequential_time(self) -> float:
        """Reference time on one fastest processor (paper Section 5.2)."""
        return self.platform.sequential_time(self.graph.total_weight())

    def speedup(self) -> float:
        """``sequential_time / makespan`` — the paper's reported ratio."""
        ms = self.makespan()
        if ms == 0.0:
            return float("inf")
        return self.sequential_time() / ms

    def num_comms(self) -> int:
        """Number of remote messages booked (hop events counted once each)."""
        return len(self.comm_events)

    def total_comm_time(self) -> float:
        return sum(e.duration for e in self.comm_events)

    def proc_busy_time(self, proc: int) -> float:
        return sum(p.duration for p in self.placements.values() if p.proc == proc)

    def utilization(self) -> float:
        """Average fraction of the makespan each processor spends computing."""
        ms = self.makespan()
        if ms == 0.0:
            return 1.0
        p = self.platform.num_processors
        busy = sum(pl.duration for pl in self.placements.values())
        return busy / (p * ms)

    def processors_used(self) -> set[int]:
        return {p.proc for p in self.placements.values()}

    def summary(self) -> dict[str, Any]:
        """Headline metrics as a plain dict (used by the harness/report)."""
        return {
            "heuristic": self.heuristic,
            "model": self.model,
            "tasks": self.graph.num_tasks,
            "processors": self.platform.num_processors,
            "makespan": self.makespan(),
            "speedup": self.speedup(),
            "num_comms": self.num_comms(),
            "total_comm_time": self.total_comm_time(),
            "utilization": self.utilization(),
            "state_impl": self.state_impl,
        }

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def gantt(self, width: int = 78, labels: bool = True) -> str:
        """ASCII Gantt chart of compute rows (one per processor).

        Each processor row shows task executions scaled to ``width``
        columns; communication rows (``q->r``) are added when the schedule
        has comm events.  Intended for examples and debugging, not parsing.
        """
        ms = self.makespan()
        if ms <= 0:
            return "(empty schedule)"
        scale = width / ms

        def bar(segments: Iterable[tuple[float, float, str]]) -> str:
            row = [" "] * width
            for s, e, label in segments:
                lo = min(width - 1, int(s * scale))
                hi = min(width, max(lo + 1, int(e * scale)))
                for i in range(lo, hi):
                    row[i] = "#"
                if labels and label:
                    text = label[: hi - lo]
                    for i, ch in enumerate(text):
                        row[lo + i] = ch
            return "".join(row)

        lines = [f"makespan = {ms:g}"]
        for proc in self.platform.processors:
            segs = [(p.start, p.finish, str(p.task)) for p in self.tasks_on(proc)]
            lines.append(f"P{proc:<3}|{bar(segs)}|")
        pairs = sorted({(e.src_proc, e.dst_proc) for e in self.comm_events})
        for q, r in pairs:
            segs = [
                (e.start, e.finish, str(e.dst_task))
                for e in self.comm_events
                if e.src_proc == q and e.dst_proc == r
            ]
            lines.append(f"{q}->{r:<2}|{bar(segs)}|")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schedule(heuristic={self.heuristic!r}, model={self.model!r}, "
            f"tasks={len(self.placements)}/{self.graph.num_tasks}, "
            f"makespan={self.makespan():g})"
        )
