"""Independent schedule checkers for the macro-dataflow and one-port models.

These validators re-derive every scheduling rule of Section 2 from the
raw placement/event data, sharing no code with the heuristics, so a bug
in a heuristic cannot hide inside its own bookkeeping.  All checks raise
:class:`~repro.core.exceptions.ValidationError` with a precise message.

Checked rules
-------------
* completeness — every task placed exactly once, on a valid processor;
* duration — ``finish - start == w(v) * t_alloc(v)``;
* exclusivity — a processor executes at most one task at a time
  (zero-length windows conflict with nothing, as in the gap search);
* precedence — ``sigma(u) + w(u) t_q + comm <= sigma(v)`` for every edge;
* communication events — each remote edge is served by a hop chain with
  correct endpoints, durations ``data * link``, and ordering;
* one-port — on each processor, send events are pairwise disjoint and
  receive events are pairwise disjoint (Section 2.3's rule).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable

from .exceptions import ValidationError
from .schedule import CommEvent, Schedule
from .tolerance import time_tol

TaskId = Hashable

MACRO_DATAFLOW = "macro-dataflow"
ONE_PORT = "one-port"


def validate_completeness(schedule: Schedule) -> None:
    """Every task placed exactly once, on an existing processor, t >= 0."""
    graph, platform = schedule.graph, schedule.platform
    missing = [v for v in graph.tasks() if v not in schedule.placements]
    if missing:
        raise ValidationError(f"{len(missing)} task(s) not placed, e.g. {missing[:5]!r}")
    extra = [v for v in schedule.placements if v not in graph]
    if extra:
        raise ValidationError(f"placements for unknown task(s) {extra[:5]!r}")
    for p in schedule.placements.values():
        if not (0 <= p.proc < platform.num_processors):
            raise ValidationError(f"task {p.task!r} on invalid processor {p.proc}")
        if p.start < -time_tol(p.start):
            raise ValidationError(f"task {p.task!r} starts before time 0: {p.start}")
        if p.finish < p.start - time_tol(p.start, p.finish):
            raise ValidationError(
                f"task {p.task!r} finishes ({p.finish}) before it starts ({p.start})"
            )


def validate_durations(schedule: Schedule) -> None:
    """``finish - start`` equals ``w(v) * t_alloc(v)`` for every task."""
    graph, platform = schedule.graph, schedule.platform
    for p in schedule.placements.values():
        expected = platform.exec_time(graph.weight(p.task), p.proc)
        if abs(p.duration - expected) > time_tol(p.duration, expected):
            raise ValidationError(
                f"task {p.task!r} on P{p.proc}: duration {p.duration} != "
                f"w * t = {expected}"
            )


def first_overlap(intervals) -> tuple | None:
    """The first overlapping pair among ``(start, finish, item)`` rows.

    Zero-length intervals conflict with nothing (the gap search places
    zero-weight tasks and empty transfers inside busy windows), so they
    are skipped; each positive-length interval, in start order, is
    checked against the latest finish seen so far rather than only its
    neighbour.  Returns ``(earlier_item, later_item)`` or ``None``.
    """
    prev = None
    for start, finish, item in sorted(intervals, key=lambda row: (row[0], row[1])):
        if finish <= start:
            continue
        if prev is not None and prev[1] > start + time_tol(prev[1], start):
            return prev[2], item
        if prev is None or finish > prev[1]:
            prev = (start, finish, item)
    return None


def validate_processor_exclusivity(schedule: Schedule) -> None:
    """No two tasks overlap on the same processor."""
    for proc in schedule.platform.processors:
        clash = first_overlap((p.start, p.finish, p) for p in schedule.tasks_on(proc))
        if clash is not None:
            a, b = clash
            raise ValidationError(
                f"P{proc}: tasks {a.task!r} [{a.start}, {a.finish}) and "
                f"{b.task!r} [{b.start}, {b.finish}) overlap"
            )


def _arrival_via_events(schedule: Schedule, src: TaskId, dst: TaskId) -> float:
    """Arrival time of edge data at ``alloc(dst)`` via the hop chain.

    Also validates the chain itself: endpoints, hop continuity, per-hop
    duration, and that hop ``i+1`` starts no earlier than hop ``i`` ends.
    """
    graph, platform = schedule.graph, schedule.platform
    hops = schedule.comms_between((src, dst))
    if not hops:
        raise ValidationError(f"remote edge {src!r}->{dst!r} has no communication event")
    expected_hops = list(range(len(hops)))
    if [h.hop for h in hops] != expected_hops:
        raise ValidationError(
            f"edge {src!r}->{dst!r}: hop indices {[h.hop for h in hops]} "
            f"are not consecutive from 0"
        )
    q = schedule.proc_of(src)
    r = schedule.proc_of(dst)
    data = graph.data(src, dst)
    if hops[0].src_proc != q:
        raise ValidationError(
            f"edge {src!r}->{dst!r}: first hop leaves P{hops[0].src_proc}, "
            f"but the source task runs on P{q}"
        )
    if hops[-1].dst_proc != r:
        raise ValidationError(
            f"edge {src!r}->{dst!r}: last hop reaches P{hops[-1].dst_proc}, "
            f"but the destination task runs on P{r}"
        )
    if hops[0].start < schedule.finish_of(src) - time_tol(hops[0].start, schedule.finish_of(src)):
        raise ValidationError(
            f"edge {src!r}->{dst!r}: first hop starts at {hops[0].start} "
            f"before the source finishes at {schedule.finish_of(src)}"
        )
    prev: CommEvent | None = None
    for h in hops:
        if h.src_proc == h.dst_proc:
            raise ValidationError(f"edge {src!r}->{dst!r}: hop {h.hop} is a self-transfer")
        expected = platform.comm_time(data, h.src_proc, h.dst_proc)
        if abs(h.duration - expected) > time_tol(h.duration, expected):
            raise ValidationError(
                f"edge {src!r}->{dst!r} hop {h.hop} P{h.src_proc}->P{h.dst_proc}: "
                f"duration {h.duration} != data * link = {expected}"
            )
        if abs(h.data - data) > time_tol(h.data, data):
            raise ValidationError(
                f"edge {src!r}->{dst!r} hop {h.hop}: event data {h.data} != "
                f"graph data {data}"
            )
        if prev is not None:
            if h.src_proc != prev.dst_proc:
                raise ValidationError(
                    f"edge {src!r}->{dst!r}: hop {h.hop} starts at P{h.src_proc} "
                    f"but hop {prev.hop} ended at P{prev.dst_proc}"
                )
            if h.start < prev.finish - time_tol(h.start, prev.finish):
                raise ValidationError(
                    f"edge {src!r}->{dst!r}: hop {h.hop} starts at {h.start} "
                    f"before hop {prev.hop} finishes at {prev.finish}"
                )
        prev = h
    return hops[-1].finish


def validate_precedence(schedule: Schedule, use_events: bool) -> None:
    """Every edge's constraint ``finish(u) + comm <= start(v)`` holds.

    With ``use_events`` the arrival time is taken from the recorded hop
    chain (one-port schedules must book explicit messages); otherwise the
    macro-dataflow closed form ``finish(u) + data * link(q, r)`` is used.
    """
    graph, platform = schedule.graph, schedule.platform
    for src, dst in graph.edges():
        q = schedule.proc_of(src)
        r = schedule.proc_of(dst)
        if q == r:
            arrival = schedule.finish_of(src)
            if use_events and schedule.comms_between((src, dst)):
                raise ValidationError(
                    f"edge {src!r}->{dst!r} is local to P{q} but has comm events"
                )
        elif use_events:
            arrival = _arrival_via_events(schedule, src, dst)
        else:
            arrival = schedule.finish_of(src) + platform.comm_time(graph.data(src, dst), q, r)
        if schedule.start_of(dst) < arrival - time_tol(schedule.start_of(dst), arrival):
            raise ValidationError(
                f"edge {src!r}->{dst!r}: task {dst!r} starts at "
                f"{schedule.start_of(dst)} before its data arrives at {arrival}"
            )


def validate_one_port(schedule: Schedule) -> None:
    """Send (resp. receive) events on each processor are pairwise disjoint."""
    send: dict[int, list[CommEvent]] = defaultdict(list)
    recv: dict[int, list[CommEvent]] = defaultdict(list)
    for e in schedule.comm_events:
        send[e.src_proc].append(e)
        recv[e.dst_proc].append(e)
    for direction, groups in (("send", send), ("receive", recv)):
        for proc, events in groups.items():
            clash = first_overlap((e.start, e.finish, e) for e in events)
            if clash is not None:
                a, b = clash
                raise ValidationError(
                    f"one-port violation on P{proc} ({direction}): "
                    f"{a.src_task!r}->{a.dst_task!r} [{a.start}, {a.finish}) "
                    f"overlaps {b.src_task!r}->{b.dst_task!r} "
                    f"[{b.start}, {b.finish})"
                )


def validate_schedule(schedule: Schedule, model: str | None = None) -> None:
    """Run every check appropriate for ``model`` (defaults to the
    schedule's own ``model`` attribute).  Raises on the first violation.
    """
    model = model or schedule.model
    validate_completeness(schedule)
    validate_durations(schedule)
    validate_processor_exclusivity(schedule)
    if model == ONE_PORT:
        validate_precedence(schedule, use_events=True)
        validate_one_port(schedule)
    elif model == MACRO_DATAFLOW:
        validate_precedence(schedule, use_events=False)
    else:
        raise ValidationError(f"unknown model {model!r}")


def is_valid(schedule: Schedule, model: str | None = None) -> bool:
    """Boolean wrapper around :func:`validate_schedule`."""
    try:
        validate_schedule(schedule, model)
    except ValidationError:
        return False
    return True
