"""Unit tests for the flat construction state (``repro.kernel.builder``).

The gap-search primitives are checked against the sorted-interval
``Timeline`` oracle (``tests/timeline_oracle.py``) on randomized
interval sets; the journal is checked to restore exact pre-mark state.
"""

import random

import pytest

from timeline_oracle import Timeline, earliest_joint_fit

from repro.core.exceptions import TimelineError
from repro.kernel.builder import FlatBuilder, layered_next_fit, row_next_fit


def random_rows(rng, count, span=100.0):
    """Disjoint sorted intervals as (starts, ends) plus a Timeline twin."""
    starts, ends = [], []
    timeline = Timeline()
    t = 0.0
    for _ in range(count):
        t += rng.uniform(0.2, 6.0)
        dur = rng.uniform(0.1, 4.0)
        starts.append(t)
        ends.append(t + dur)
        timeline.reserve(t, t + dur)
        t += dur
    return starts, ends, timeline


class TestGapSearch:
    @pytest.mark.parametrize("seed", range(10))
    def test_row_next_fit_matches_timeline(self, seed):
        rng = random.Random(seed)
        starts, ends, timeline = random_rows(rng, rng.randrange(0, 25))
        for _ in range(50):
            ready = rng.uniform(0.0, 120.0)
            duration = rng.uniform(0.0, 8.0)
            assert row_next_fit(starts, ends, ready, duration) == timeline.next_fit(
                ready, duration
            )

    def test_zero_duration_returns_ready(self):
        assert row_next_fit([1.0], [5.0], 2.0, 0.0) == 2.0

    @pytest.mark.parametrize("seed", range(10))
    def test_layered_next_fit_matches_merged_timeline(self, seed):
        """Committed + tentative layers behave like their union."""
        rng = random.Random(1000 + seed)
        cs, ce, _ = random_rows(rng, 10)
        # tentative intervals inside the committed gaps
        ts, te = [], []
        merged = Timeline()
        for s, e in zip(cs, ce):
            merged.reserve(s, e)
        for s, e in zip(cs[:-1], ce[:-1]):
            nxt = cs[cs.index(s) + 1]
            if nxt - e > 1.0:
                mid = e + (nxt - e) / 4
                ts.append(mid)
                te.append(mid + (nxt - e) / 4)
                merged.reserve(ts[-1], te[-1])
        for _ in range(50):
            ready = rng.uniform(0.0, 120.0)
            duration = rng.uniform(0.0, 5.0)
            assert layered_next_fit(cs, ce, ts, te, ready, duration) == (
                merged.next_fit(ready, duration)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_joint_next_fit_matches_earliest_joint_fit(self, seed):
        rng = random.Random(2000 + seed)
        builder = FlatBuilder(3)
        timelines = []
        for r in range(3):
            starts, ends, timeline = random_rows(rng, rng.randrange(0, 15))
            builder.rows_s[r][:] = starts
            builder.rows_e[r][:] = ends
            timelines.append(timeline)
        for _ in range(40):
            ready = rng.uniform(0.0, 120.0)
            duration = rng.uniform(0.05, 5.0)
            assert builder.joint_next_fit((0, 1, 2), ready, duration) == (
                earliest_joint_fit(timelines, ready, duration)
            )


class TestTrials:
    def test_begin_trial_invalidates_tentative(self):
        b = FlatBuilder(1)
        b.begin_trial()
        b.book_tentative(0, 1.0, 2.0)
        assert b.next_fit_layered(0, 1.0, 1.0) == 2.0
        b.begin_trial()  # O(1) rejection
        assert b.next_fit_layered(0, 1.0, 1.0) == 1.0

    def test_tentative_does_not_touch_committed(self):
        b = FlatBuilder(1)
        b.begin_trial()
        b.book_tentative(0, 1.0, 2.0)
        assert b.committed(0) == []
        assert b.next_fit(0, 0.0, 5.0) == 0.0

    def test_zero_length_tentative_not_stored(self):
        b = FlatBuilder(1)
        b.begin_trial()
        b.book_tentative(0, 3.0, 3.0)
        ts, te = b.tent_view(0)
        assert list(ts) == []


class TestCommitted:
    def test_book_keeps_rows_sorted(self):
        b = FlatBuilder(1)
        b.book(0, 5.0, 6.0)
        b.book(0, 1.0, 2.0)
        b.book(0, 3.0, 4.0)
        assert b.committed(0) == [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]

    def test_book_rejects_overlap(self):
        b = FlatBuilder(1)
        b.book(0, 1.0, 3.0)
        with pytest.raises(TimelineError):
            b.book(0, 2.0, 4.0)
        with pytest.raises(TimelineError):
            b.book(0, 0.0, 1.5)

    def test_touching_intervals_allowed(self):
        b = FlatBuilder(1)
        b.book(0, 1.0, 2.0)
        b.book(0, 2.0, 3.0)
        assert b.committed(0) == [(1.0, 2.0), (2.0, 3.0)]

    def test_zero_length_not_stored(self):
        b = FlatBuilder(1)
        b.book(0, 2.0, 2.0)
        assert b.committed(0) == []

    def test_new_rows(self):
        b = FlatBuilder(2)
        base = b.new_rows(4)
        assert base == 2
        assert b.num_rows == 6


class TestJournal:
    def test_rollback_restores_exact_state(self):
        rng = random.Random(7)
        b = FlatBuilder(2)
        b.new_rows(2)
        for r in range(4):
            t = 0.0
            for _ in range(6):
                t += rng.uniform(0.5, 3.0)
                b.book(r, t, t + 0.4)
                t += 0.4
        before = b.fingerprint()
        cursor = b.mark()
        # interleaved mid-row inserts on several rows
        for r in range(4):
            for s in (0.05, 100.0, 50.0):
                b.book(r, s + r, s + r + 0.1)
        assert b.fingerprint() != before
        b.rollback(cursor)
        assert b.fingerprint() == before
        assert b.log is None

    def test_nested_marks_lifo(self):
        """Two nested marks sharing cursor 0: inner rollback must keep
        the outer mark's journal alive (depth, not cursor, decides)."""
        b = FlatBuilder(1)
        outer = b.mark()
        inner = b.mark()  # no bookings in between: same cursor as outer
        b.book(0, 1.0, 2.0)
        b.rollback(inner)
        assert b.log is not None  # outer mark still journaling
        b.book(0, 3.0, 4.0)
        b.rollback(outer)
        assert b.committed(0) == []
        assert b.log is None

    def test_rollback_without_mark_raises(self):
        b = FlatBuilder(1)
        with pytest.raises(TimelineError):
            b.rollback(0)

    def test_release_mark_keeps_bookings(self):
        b = FlatBuilder(1)
        cursor = b.mark()
        b.book(0, 1.0, 2.0)
        b.release_mark(cursor)
        assert b.log is None
        assert b.committed(0) == [(1.0, 2.0)]

    def test_no_journal_overhead_without_mark(self):
        b = FlatBuilder(1)
        b.book(0, 1.0, 2.0)
        assert b.log is None


class TestCopy:
    def test_copy_is_independent(self):
        b = FlatBuilder(1)
        b.new_rows(1)
        b.book(0, 1.0, 2.0)
        dup = b.copy()
        dup.book(0, 3.0, 4.0)
        b.book(1, 0.0, 1.0)
        assert b.committed(0) == [(1.0, 2.0)]
        assert dup.committed(0) == [(1.0, 2.0), (3.0, 4.0)]
        assert dup.committed(1) == []
