"""Flat, allocation-free *construction* state — the builder layer.

:class:`KernelStatics` froze everything about a scheduling instance
that does not depend on decisions; :class:`FlatBuilder` is the mutable
counterpart for *making* decisions: the resource state a list-scheduling
heuristic grows one commit at a time.

Layout
------
Every exclusive resource — a processor's compute unit, a send port, a
receive port — is one **row**: a pair of parallel sorted lists
``rows_s[r]`` / ``rows_e[r]`` holding the committed busy intervals
``[s, e)``.  Rows ``0 .. p-1`` are the compute rows; communication
models allocate their port rows behind them (:meth:`new_rows`), so the
whole resource state of a run is two ragged float tables indexed by
small ints — no per-resource objects, no dicts.

Trials by generation stamp
--------------------------
Evaluating a candidate placement books its incoming messages
*tentatively* (paper Section 4.3).  A trial is a **generation**: each
row has a tentative layer ``tent_s[r]`` / ``tent_e[r]`` plus a stamp
``tent_gen[r]``, and the builder has a global counter :attr:`gen`.  A row's tentative layer is live only while
``tent_gen[r] == gen``; bumping :attr:`gen` (:meth:`begin_trial`)
invalidates every tentative interval at once.  Rejecting a candidate is
therefore O(1) and allocation-free — the next trial lazily truncates
whatever stale buffers it touches (:meth:`tent_rows`).

Committed bookings are *re-derived*, not replayed: because a candidate
is always evaluated against the current committed state and committed
before any further mutation (the invariant every list heuristic here
satisfies), re-running the same greedy bookings against the same
committed rows reproduces the same floats exactly.

Undo journal
------------
:meth:`mark` / :meth:`rollback` give O(changed) scratch runs (ILHA's
chunk pre-allocation): while a mark is active every committed mutation
appends one undo record, and rollback replays them in reverse.  With no
mark active the journal is off and commits pay a single ``None`` check.

Gap search
----------
:func:`row_next_fit` finds the earliest ``t >= ready`` with ``[t, t +
duration)`` free (insertion scheduling) and :func:`joint_next_fit` the
earliest window free on both layers of several rows at once — the
one-port primitive.  Both return existing interval endpoints (or
``ready``) unchanged, so times are exact: no new arithmetic, and the
compiled engine repeats the same comparisons over the same operands.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

from ..core.exceptions import TimelineError
from ..core.tolerance import guard_tol
from ..obs import current as _obs_current

#: Shared immutable stand-in for "no tentative intervals on this row".
_EMPTY: tuple = ()


def row_next_fit(cs: list, ce: list, ready: float, duration: float) -> float:
    """Earliest ``t >= ready`` with ``[t, t + duration)`` free in one layer.

    ``cs`` / ``ce`` are the sorted interval starts/ends of the layer.
    Zero-length windows conflict with nothing: ``duration == 0``
    returns ``ready``.
    """
    if duration == 0.0:
        return ready
    if not ce or ce[-1] <= ready:
        # frontier fast path: every interval ends at or before ready
        return ready
    t = ready
    i = bisect_right(cs, t) - 1
    if i >= 0 and ce[i] > t:
        t = ce[i]
    i += 1
    n = len(cs)
    lim = t + duration
    while i < n and cs[i] < lim:
        if ce[i] > t:
            t = ce[i]
            lim = t + duration
        i += 1
    return t


def layered_next_fit(
    cs: list, ce: list, ts, te, ready: float, duration: float
) -> float:
    """Earliest window free in a row's committed *and* tentative layer.

    Alternates the two layers to a fixed point.  Pass ``_EMPTY`` for ``ts``/``te``
    when the row has no live tentative intervals.
    """
    if duration == 0.0:
        return ready
    t = ready
    while True:
        t1 = row_next_fit(cs, ce, t, duration)
        t2 = row_next_fit(ts, te, t1, duration)
        if t2 == t1:
            return t1
        t = t2


class FlatBuilder:
    """Mutable flat resource state of one scheduling run (see module doc)."""

    __slots__ = (
        "num_procs",
        "rows_s",
        "rows_e",
        "tent_s",
        "tent_e",
        "tent_gen",
        "gen",
        "commit_count",
        "last_e",
        "row_ver",
        "log",
        "_mark_depth",
        "stats",
    )

    def __init__(self, num_procs: int) -> None:
        if num_procs < 1:
            raise TimelineError("FlatBuilder needs at least one processor")
        self.num_procs = num_procs
        #: Committed busy intervals per row; rows 0..p-1 are compute rows.
        self.rows_s: list[list[float]] = [[] for _ in range(num_procs)]
        self.rows_e: list[list[float]] = [[] for _ in range(num_procs)]
        #: Tentative layer, live only while ``tent_gen[r] == gen``.
        self.tent_s: list[list[float]] = [[] for _ in range(num_procs)]
        self.tent_e: list[list[float]] = [[] for _ in range(num_procs)]
        self.tent_gen: list[int] = [0] * num_procs
        self.gen = 1
        #: Bumped on every committed mutation (bookings, rollbacks) —
        #: an epoch for caches that are valid between commits.
        self.commit_count = 0
        #: Per-row frontier ``rows_e[r][-1]`` (0.0 for an empty row),
        #: maintained on commit so frontier tests skip the list probe.
        self.last_e: list[float] = [0.0] * num_procs
        #: Per-row mutation counter — an epoch for per-row caches
        #: (the one-port booker's send-row seeds).
        self.row_ver: list[int] = [0] * num_procs
        #: Undo journal — ``None`` when no mark is active.
        self.log: list[tuple] | None = None
        self._mark_depth = 0
        #: Active obs collector, captured once (``None`` = stats off).
        self.stats = _obs_current()

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def new_rows(self, count: int) -> int:
        """Allocate ``count`` empty rows; returns the first row index."""
        base = len(self.rows_s)
        for _ in range(count):
            self.rows_s.append([])
            self.rows_e.append([])
            self.tent_s.append([])
            self.tent_e.append([])
            self.tent_gen.append(0)
            self.last_e.append(0.0)
            self.row_ver.append(0)
        return base

    @property
    def num_rows(self) -> int:
        return len(self.rows_s)

    # ------------------------------------------------------------------
    # trials
    # ------------------------------------------------------------------
    def begin_trial(self) -> None:
        """Invalidate every tentative interval: O(1), no allocation."""
        self.gen += 1

    def tent_rows(self, r: int) -> tuple[list[float], list[float]]:
        """The live tentative layer of row ``r`` (truncating stale data)."""
        ts, te = self.tent_s[r], self.tent_e[r]
        if self.tent_gen[r] != self.gen:
            del ts[:]
            del te[:]
            self.tent_gen[r] = self.gen
        return ts, te

    def tent_view(self, r: int):
        """Tentative layer of ``r`` for *reading*: ``_EMPTY`` when stale."""
        if self.tent_gen[r] != self.gen:
            return _EMPTY, _EMPTY
        return self.tent_s[r], self.tent_e[r]

    def book_tentative(self, r: int, start: float, end: float) -> None:
        """Add a tentative interval (zero-length windows are not stored)."""
        if end == start:
            return
        ts, te = self.tent_rows(r)
        pos = bisect_right(ts, start)
        ts.insert(pos, start)
        te.insert(pos, end)

    # ------------------------------------------------------------------
    # gap search
    # ------------------------------------------------------------------
    def next_fit(self, r: int, ready: float, duration: float) -> float:
        """Earliest committed-layer window (insertion scheduling)."""
        return row_next_fit(self.rows_s[r], self.rows_e[r], ready, duration)

    def next_after_last(self, r: int, ready: float) -> float:
        """Earliest committed-layer start with no insertion."""
        ce = self.rows_e[r]
        last = ce[-1] if ce else 0.0
        return ready if ready >= last else last

    def next_fit_layered(self, r: int, ready: float, duration: float) -> float:
        """Earliest window free in both layers of row ``r``."""
        ts, te = self.tent_view(r)
        return layered_next_fit(self.rows_s[r], self.rows_e[r], ts, te, ready, duration)

    def joint_next_fit(
        self, rows: Sequence[int], ready: float, duration: float
    ) -> float:
        """Earliest window free (both layers) on *all* ``rows`` at once.

        Fixed-point alternation: each row's search only moves ``t``
        forward, so the least common feasible
        instant is reached regardless of row order.
        """
        t = ready
        while True:
            moved = False
            for r in rows:
                t2 = self.next_fit_layered(r, t, duration)
                if t2 != t:
                    t = t2
                    moved = True
            if not moved:
                return t

    # ------------------------------------------------------------------
    # committed mutation
    # ------------------------------------------------------------------
    def book(self, r: int, start: float, end: float) -> None:
        """Commit ``[start, end)`` on row ``r``; raises on real overlap.

        Zero-length reservations are not stored.  The overlap guard only pays the
        tolerance computation on a suspected conflict.
        """
        if end == start:
            return
        cs, ce = self.rows_s[r], self.rows_e[r]
        pos = bisect_right(cs, start)
        if pos and ce[pos - 1] > start:
            if ce[pos - 1] > start + guard_tol(start, ce[pos - 1]):
                raise TimelineError(
                    f"row {r}: reservation [{start}, {end}) overlaps "
                    f"[{cs[pos - 1]}, {ce[pos - 1]})"
                )
        if pos < len(cs) and cs[pos] < end:
            if cs[pos] < end - guard_tol(end, cs[pos]):
                raise TimelineError(
                    f"row {r}: reservation [{start}, {end}) overlaps "
                    f"[{cs[pos]}, {ce[pos]})"
                )
        cs.insert(pos, start)
        ce.insert(pos, end)
        self.last_e[r] = ce[-1]
        self.row_ver[r] += 1
        self.commit_count += 1
        if self.log is not None:
            self.log.append((r, pos))

    # ------------------------------------------------------------------
    # undo journal
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Start (or nest) journaling; returns the rollback cursor.

        Marks nest LIFO: every ``mark()`` must be paired with exactly
        one ``rollback`` or ``release_mark``; journaling stops only
        when the outermost mark is resolved (a depth counter, not the
        cursor value, decides — two nested marks can share cursor 0).
        """
        if self.log is None:
            self.log = []
        self._mark_depth += 1
        return len(self.log)

    def rollback(self, cursor: int) -> None:
        """Undo every committed booking made since ``mark()``."""
        log = self.log
        if log is None:
            raise TimelineError("rollback without an active mark")
        stats = self.stats
        if stats is not None:
            stats.inc("builder.rollbacks")
            stats.inc("builder.rollback_entries", len(log) - cursor)
        touched = set()
        for r, pos in reversed(log[cursor:]):
            del self.rows_s[r][pos]
            del self.rows_e[r][pos]
            touched.add(r)
        for r in touched:
            ce = self.rows_e[r]
            self.last_e[r] = ce[-1] if ce else 0.0
            self.row_ver[r] += 1
        del log[cursor:]
        self._mark_depth -= 1
        if self._mark_depth == 0:
            self.log = None
        # tentative layers and between-commit caches may reference
        # pre-rollback state; invalidate both
        self.gen += 1
        self.commit_count += 1

    def release_mark(self, cursor: int) -> None:
        """Drop journal entries since ``cursor`` without undoing them."""
        if self.log is None:
            raise TimelineError("release_mark without an active mark")
        del self.log[cursor:]
        self._mark_depth -= 1
        if self._mark_depth == 0:
            self.log = None

    # ------------------------------------------------------------------
    # copies / introspection
    # ------------------------------------------------------------------
    def copy(self) -> "FlatBuilder":
        """Independent deep copy (tentative state is not carried over)."""
        dup = FlatBuilder.__new__(FlatBuilder)
        dup.num_procs = self.num_procs
        dup.rows_s = [list(row) for row in self.rows_s]
        dup.rows_e = [list(row) for row in self.rows_e]
        dup.tent_s = [[] for _ in self.rows_s]
        dup.tent_e = [[] for _ in self.rows_s]
        dup.tent_gen = [0] * len(self.rows_s)
        dup.gen = 1
        dup.commit_count = 0
        dup.last_e = list(self.last_e)
        dup.row_ver = list(self.row_ver)
        dup.log = None
        dup._mark_depth = 0
        dup.stats = self.stats
        return dup

    def committed(self, r: int) -> list[tuple[float, float]]:
        """Committed intervals of row ``r`` as ``(start, end)`` pairs."""
        return list(zip(self.rows_s[r], self.rows_e[r]))

    def fingerprint(self) -> tuple:
        """Hashable snapshot of all committed intervals (test helper)."""
        return tuple(
            tuple(zip(cs, ce)) for cs, ce in zip(self.rows_s, self.rows_e)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        booked = sum(len(cs) for cs in self.rows_s)
        return (
            f"FlatBuilder(rows={len(self.rows_s)}, procs={self.num_procs}, "
            f"intervals={booked}, gen={self.gen})"
        )
