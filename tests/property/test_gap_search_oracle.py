"""Flat gap search vs a brute-force free-list oracle.

The oracle keeps the busy set as a plain list of intervals and answers
"earliest fit" by scanning every candidate start (the ready time and
each interval end) — O(n²) and obviously correct.  Every fast-path
operation of :class:`~repro.kernel.builder.FlatBuilder` — the
committed-row search, the committed + tentative layered search, and the
joint search over several rows — must agree with it exactly, under
both hypothesis-driven cases and longer seeded random fuzz runs.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.builder import FlatBuilder

# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------


def oracle_next_fit(busy, ready, duration):
    """Brute-force earliest t >= ready with [t, t+duration) free.

    ``busy`` is any list of (start, end) pairs (need not be sorted or
    disjoint).  Candidate starts are ``ready`` and every interval end;
    the earliest candidate that overlaps nothing is the answer (any
    feasible start can be slid left onto one of these candidates).
    """
    if duration == 0:
        return ready
    candidates = sorted({ready} | {e for _, e in busy if e > ready})
    for t in candidates:
        if all(t + duration <= s or t >= e for s, e in busy):
            return t
    raise AssertionError("unreachable: past the last end everything fits")


def fill(builder, row, reqs):
    """Book each request at its committed next_fit (what heuristics do)."""
    for ready, duration in reqs:
        start = builder.next_fit(row, ready, duration)
        builder.book(row, start, start + duration)


# Durations are 0 or >= 0.01: a denormal duration d with t + d == t is
# an *empty* window in float semantics — the oracle accepts it inside a
# busy interval while the fast path (correctly) skips past, so such
# degenerate inputs have no well-defined "earliest fit" to agree on.
durations = st.one_of(
    st.just(0.0), st.floats(min_value=0.01, max_value=8.0, allow_nan=False)
)
requests = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=40.0, allow_nan=False), durations),
    min_size=0,
    max_size=20,
)
probe = st.tuples(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False), durations
)


# ----------------------------------------------------------------------
# hypothesis properties
# ----------------------------------------------------------------------


@given(requests, probe)
def test_row_next_fit_matches_oracle(reqs, query):
    b = FlatBuilder(1)
    fill(b, 0, reqs)
    ready, duration = query
    assert b.next_fit(0, ready, duration) == oracle_next_fit(b.committed(0), ready, duration)


@given(requests, requests, probe)
def test_layered_next_fit_matches_oracle(base_reqs, local_reqs, query):
    b = FlatBuilder(1)
    fill(b, 0, base_reqs)
    b.begin_trial()
    tentative = []
    for ready, duration in local_reqs:
        start = b.next_fit_layered(0, ready, duration)
        b.book_tentative(0, start, start + duration)
        if duration > 0:
            tentative.append((start, start + duration))
    ready, duration = query
    busy = b.committed(0) + tentative
    assert b.next_fit_layered(0, ready, duration) == oracle_next_fit(busy, ready, duration)


@given(requests, requests, requests, probe)
def test_joint_fit_matches_oracle(reqs_a, reqs_b, reqs_c, query):
    b = FlatBuilder(3)
    for row, reqs in enumerate((reqs_a, reqs_b, reqs_c)):
        fill(b, row, reqs)
    busy = [iv for row in range(3) for iv in b.committed(row)]
    ready, duration = query
    # free on ALL rows == free against the union of their busy sets
    assert b.joint_next_fit((0, 1, 2), ready, duration) == oracle_next_fit(
        busy, ready, duration
    )


# ----------------------------------------------------------------------
# seeded random fuzzing: longer mixed op-sequences per seed
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_committed_and_tentative_against_oracle(seed):
    rng = random.Random(seed)
    b = FlatBuilder(1)
    busy_base = []
    for _ in range(120):
        ready = rng.uniform(0, 60)
        duration = rng.choice([0.0, rng.uniform(0.01, 6), rng.uniform(0.01, 0.5)])
        got = b.next_fit(0, ready, duration)
        assert got == oracle_next_fit(busy_base, ready, duration)
        if rng.random() < 0.6:
            b.book(0, got, got + duration)
            if duration > 0:
                busy_base.append((got, got + duration))

        # a fresh trial probe against the union every few steps
        if rng.random() < 0.25:
            b.begin_trial()
            busy_all = list(busy_base)
            for _ in range(rng.randrange(4)):
                r = rng.uniform(0, 60)
                d = rng.uniform(0.01, 4)
                s = b.next_fit_layered(0, r, d)
                assert s == oracle_next_fit(busy_all, r, d)
                b.book_tentative(0, s, s + d)
                busy_all.append((s, s + d))


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_joint_fit_against_union_oracle(seed):
    rng = random.Random(1000 + seed)
    rows = rng.randrange(1, 5)
    b = FlatBuilder(rows)
    busy = []
    for _ in range(60):
        row = rng.randrange(rows)
        ready = rng.uniform(0, 40)
        duration = rng.uniform(0.01, 5)
        start = b.next_fit(row, ready, duration)
        b.book(row, start, start + duration)
        busy.append((start, start + duration))
        r = rng.uniform(0, 50)
        d = rng.uniform(0.01, 6)
        assert b.joint_next_fit(tuple(range(rows)), r, d) == oracle_next_fit(busy, r, d)
