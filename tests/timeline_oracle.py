"""Sorted-interval timeline: the oracle for the flat builder's gap search.

:class:`Timeline` records the busy intervals ``[start, end)`` of one
exclusive resource; :meth:`Timeline.next_fit` finds the earliest time
``>= ready`` at which a window of a given duration is free (insertion
scheduling), and :func:`earliest_joint_fit` the earliest window free on
several timelines at once — the one-port primitive.  The flat builder
(:mod:`repro.kernel.builder`) must return exactly these values; the
tests in ``tests/kernel/test_builder.py`` compare the two on random
interval sets.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

from repro.core.exceptions import TimelineError
from repro.core.tolerance import guard_tol


class Timeline:
    """Busy intervals of one exclusive resource."""

    __slots__ = ("_starts", "_ends")

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []

    def intervals(self) -> list[tuple[float, float]]:
        """All reservations as ``(start, end)``, sorted by start."""
        return list(zip(self._starts, self._ends))

    def next_fit(self, ready: float, duration: float) -> float:
        """Earliest ``t >= ready`` such that ``[t, t + duration)`` is free.

        Zero-length windows conflict with nothing, so ``duration == 0``
        returns ``ready`` unchanged.
        """
        if duration < 0:
            raise TimelineError(f"duration must be >= 0, got {duration}")
        if duration == 0:
            return ready
        t = ready
        starts = self._starts
        ends = self._ends
        i = bisect_right(starts, t) - 1
        if i >= 0 and ends[i] > t:
            t = ends[i]
        i += 1
        n = len(starts)
        while i < n and starts[i] < t + duration:
            if ends[i] > t:
                t = ends[i]
            i += 1
        return t

    def reserve(self, start: float, end: float) -> None:
        """Book ``[start, end)``; raises :class:`TimelineError` on overlap.

        Zero-length reservations conflict with nothing and are not
        stored.
        """
        if end < start:
            raise TimelineError(f"invalid reservation [{start}, {end})")
        if end == start:
            return
        pos = bisect_right(self._starts, start)
        if pos > 0 and self._ends[pos - 1] > start + guard_tol(start, self._ends[pos - 1]):
            raise TimelineError(f"reservation [{start}, {end}) overlaps its predecessor")
        if pos < len(self._starts) and self._starts[pos] < end - guard_tol(end, self._starts[pos]):
            raise TimelineError(f"reservation [{start}, {end}) overlaps its successor")
        self._starts.insert(pos, start)
        self._ends.insert(pos, end)


def earliest_joint_fit(views: Sequence[Timeline], ready: float, duration: float) -> float:
    """Earliest ``t >= ready`` with ``[t, t + duration)`` free on *all* views.

    Alternates ``next_fit`` across the views until a fixed point: each
    call only moves ``t`` forward, and past the last reservation of every
    view any ``t`` fits, so the loop terminates.
    """
    if not views:
        raise TimelineError("earliest_joint_fit needs at least one view")
    t = ready
    while True:
        moved = False
        for view in views:
            t2 = view.next_fit(t, duration)
            if t2 != t:
                t = t2
                moved = True
        if not moved:
            return t
