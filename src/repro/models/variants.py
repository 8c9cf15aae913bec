"""The Section 2.3 model variants the paper names but does not evaluate.

"Several variants could be considered: no communication/computation
overlap, uni-directional communications, or even a combination of both
restrictions.  But the bi-directional one-port model seems closer to the
actual capabilities of modern processors."

Implemented here so the claim can be *measured* (see
``benchmarks/bench_ablation_models.py``):

* :class:`UniPortModel` — uni-directional one-port: each processor has a
  single port used for both sending and receiving, so it cannot send and
  receive simultaneously.  A transfer books the same window on the
  sender's port and the receiver's port.
* :class:`NoOverlapOnePortModel` — bi-directional ports, but no
  communication/computation overlap: a transfer also occupies both
  endpoint processors' *compute* rows (the CPU drives the
  transfer), so computation stalls during sends and receives.

Both strictly restrict the bi-directional one-port model, so makespans
can only grow; the benchmark quantifies by how much on the paper's
testbeds.

Validation: both variants emit ordinary one-port schedules (every
one-port rule still holds), plus extra structure checked by
:func:`validate_uni_port` / :func:`validate_no_overlap`.
"""

from __future__ import annotations

import math

from ..core.exceptions import PlatformError, ValidationError
from ..core.schedule import Schedule
from ..core.tolerance import time_tol
from ..core.validation import ONE_PORT, first_overlap, validate_schedule
from .base import CommunicationModel, FlatBooker, register_model

_INF = float("inf")


class _JointRowsFlatBooker(FlatBooker):
    """Shared flat booking: one joint window over a per-edge row set.

    Subclasses define :meth:`_rows` — the builder rows a transfer
    ``q -> r`` must occupy simultaneously.  The booking itself is the
    same greedy rule as one-port: the earliest window at or after the
    source finish free on *all* rows at once, booked on each.
    """

    __slots__ = ("builder", "edata", "links", "check_links")

    def __init__(self, builder, statics) -> None:
        self.builder = builder
        self.edata = statics.edata
        self.links = statics.link_rows
        self.check_links = not statics.all_links_finite

    def rebind(self, builder):
        # explicit field-by-field copy (subclasses append their row
        # bases via _rebind_extra): any future mutable builder-derived
        # state must be reset here, not silently shared
        dup = object.__new__(type(self))
        dup.builder = builder
        dup.edata = self.edata
        dup.links = self.links
        dup.check_links = self.check_links
        self._rebind_extra(dup)
        return dup

    def _rebind_extra(self, dup) -> None:
        raise NotImplementedError

    def _rows(self, q: int, r: int) -> tuple[int, ...]:
        raise NotImplementedError

    def _cost(self, q: int, r: int) -> float:
        cost = self.links[q][r]
        if self.check_links and not math.isfinite(cost):
            raise PlatformError(f"no direct link from P{q} to P{r}")
        return cost

    def trial_est(self, parents, proc: int, cutoff: float = _INF, duration: float = 0.0) -> float:
        b = self.builder
        edata = self.edata
        est = 0.0
        for pfinish, _pi, e, pproc in parents:
            if pproc == proc:
                arr = pfinish
            else:
                dur = edata[e] * self._cost(pproc, proc)
                if dur == 0.0:
                    arr = pfinish
                else:
                    rows = self._rows(pproc, proc)
                    start = b.joint_next_fit(rows, pfinish, dur)
                    end = start + dur
                    for r in rows:
                        b.book_tentative(r, start, end)
                    arr = end
            if arr > est:
                est = arr
        return est

    def commit_est(self, parents, proc: int, out: list) -> float:
        b = self.builder
        edata = self.edata
        est = 0.0
        for pfinish, _pi, e, pproc in parents:
            if pproc == proc:
                arr = pfinish
            else:
                dur = edata[e] * self._cost(pproc, proc)
                if dur == 0.0:
                    out.append((e, pproc, proc, pfinish, 0.0, 0))
                    arr = pfinish
                else:
                    rows = self._rows(pproc, proc)
                    start = b.joint_next_fit(rows, pfinish, dur)
                    end = start + dur
                    for r in rows:
                        b.book(r, start, end)
                    out.append((e, pproc, proc, start, dur, 0))
                    arr = end
            if arr > est:
                est = arr
        return est


class UniPortFlatBooker(_JointRowsFlatBooker):
    """One shared send+receive port row per processor."""

    __slots__ = ("port0",)

    def __init__(self, builder, statics) -> None:
        super().__init__(builder, statics)
        self.port0 = builder.new_rows(statics.num_procs)

    def _rebind_extra(self, dup) -> None:
        dup.port0 = self.port0

    def _rows(self, q: int, r: int) -> tuple[int, int]:
        return (self.port0 + q, self.port0 + r)


class NoOverlapFlatBooker(_JointRowsFlatBooker):
    """Send/recv ports plus both endpoints' compute rows (CPU-driven IO).

    The compute rows are the builder's own rows ``0 .. p-1`` — the same
    rows task executions occupy — so a transfer excludes computation on
    its endpoints.
    """

    __slots__ = ("send0", "recv0")

    def __init__(self, builder, statics) -> None:
        super().__init__(builder, statics)
        self.send0 = builder.new_rows(statics.num_procs)
        self.recv0 = builder.new_rows(statics.num_procs)

    def _rebind_extra(self, dup) -> None:
        dup.send0 = self.send0
        dup.recv0 = self.recv0

    def _rows(self, q: int, r: int) -> tuple[int, int, int, int]:
        return (self.send0 + q, self.recv0 + r, q, r)


@register_model("uni-port")
class UniPortModel(CommunicationModel):
    """Uni-directional one-port: one shared port per processor."""

    name = ONE_PORT  # schedules satisfy (and exceed) the one-port rules

    def flat_booker(self, builder, statics) -> UniPortFlatBooker:
        return UniPortFlatBooker(builder, statics)


@register_model("no-overlap")
class NoOverlapOnePortModel(CommunicationModel):
    """One-port without communication/computation overlap.

    The booker occupies the builder's own compute rows, so no binding
    to the scheduler state is needed.
    """

    name = ONE_PORT

    def flat_booker(self, builder, statics) -> NoOverlapFlatBooker:
        return NoOverlapFlatBooker(builder, statics)


def validate_uni_port(schedule: Schedule) -> None:
    """One-port rules plus: per processor, *all* port events disjoint."""
    validate_schedule(schedule, model=ONE_PORT)
    by_proc: dict[int, list] = {}
    for e in schedule.comm_events:
        by_proc.setdefault(e.src_proc, []).append(e)
        by_proc.setdefault(e.dst_proc, []).append(e)
    for proc, events in by_proc.items():
        clash = first_overlap((e.start, e.finish, e) for e in events)
        if clash is not None:
            a, b = clash
            raise ValidationError(f"uni-port violation on P{proc}: {a} overlaps {b}")


def validate_no_overlap(schedule: Schedule) -> None:
    """One-port rules plus: no transfer overlaps computation on its
    endpoint processors (zero-length windows conflict with nothing)."""
    validate_schedule(schedule, model=ONE_PORT)
    for e in schedule.comm_events:
        if e.finish <= e.start:
            continue
        for proc in (e.src_proc, e.dst_proc):
            for p in schedule.tasks_on(proc):
                if (
                    p.start < p.finish
                    and e.start < p.finish - time_tol(e.start, p.finish)
                    and p.start < e.finish - time_tol(p.start, e.finish)
                ):
                    raise ValidationError(
                        f"no-overlap violation on P{proc}: transfer "
                        f"{e.src_task!r}->{e.dst_task!r} [{e.start}, {e.finish}) "
                        f"overlaps task {p.task!r} [{p.start}, {p.finish})"
                    )
