"""The shared scale-aware epsilon, and the long-chain FP regression.

Absolute epsilons break at large magnitude: the ULP of 1e10 is ~2e-6,
so a 200-hop transfer chain whose times differ from the validator's
re-derivation by a few ULPs was spuriously rejected under the old
fixed ``1e-6`` tolerances.  These tests pin the scale-aware behavior.
"""

import pytest

from repro import Platform, validate_schedule
from repro.core import Schedule, SchedulingError, TaskGraph, TIME_EPS, time_tol
from repro.core.exceptions import ValidationError
from repro.core.schedule import CommEvent, TaskPlacement
from repro.heuristics import get_scheduler
from repro.simulate import replay_schedule


class TestTimeTol:
    def test_floor_near_zero(self):
        assert time_tol(0.0) == TIME_EPS
        assert time_tol(0.5, -0.25) == TIME_EPS

    def test_scales_with_magnitude(self):
        assert time_tol(2e9) == pytest.approx(2e9 * TIME_EPS)
        assert time_tol(1.0, -3e12, 5.0) == pytest.approx(3e12 * TIME_EPS)

    def test_shared_constants(self):
        from repro.core import validation
        from repro.core.tolerance import GUARD_FACTOR, guard_tol

        # the legacy absolute alias is retired: every comparison goes
        # through the scale-aware time_tol / guard_tol helpers
        assert not hasattr(validation, "TOL")
        # timeline overlap guards are internal-consistency checks: three
        # orders tighter than the validator epsilon (1e-9 floor)
        assert guard_tol(0.0) == GUARD_FACTOR * TIME_EPS
        assert guard_tol(1e9) == pytest.approx(GUARD_FACTOR * TIME_EPS * 1e9)

    def test_booking_guard_scales_but_stays_tight(self):
        """A booking overlapping by 1e-7 at magnitude 1 must still
        raise (the old 1e-9-absolute guard territory), while ULP noise
        at magnitude 1e9 must not."""
        from repro.core.exceptions import TimelineError
        from repro.kernel.builder import FlatBuilder

        rows = FlatBuilder(2)
        rows.book(0, 0.0, 1.0)
        with pytest.raises(TimelineError):
            rows.book(0, 1.0 - 1e-7, 2.0)
        rows.book(1, 0.0, 1e9)
        rows.book(1, 1e9 - 1e-4, 2e9)  # within 1e-9 relative at this scale

    def test_duration_tolerance_scales_with_duration_not_makespan(self):
        """A task at start ~1e9 whose recorded duration is off by 400
        units must fail validation (the tolerance operand is the
        duration being compared, not the absolute finish time)."""
        from repro.core.exceptions import ValidationError
        from repro.core.schedule import TaskPlacement
        from repro.core.validation import validate_durations

        g = TaskGraph.from_specs([("t", 5.0)], [])
        plat = Platform.homogeneous(1)
        sched = Schedule(g, plat, model="one-port")
        sched.placements["t"] = TaskPlacement("t", 0, 1e9, 1e9 + 405.0)
        with pytest.raises(ValidationError, match="duration"):
            validate_durations(sched)


def _chain_schedule(hops: int, scale: float, platform: Platform):
    """A ``hops``-transfer chain at time magnitude ``scale * hops``."""
    tasks = [(f"t{i}", scale) for i in range(hops + 1)]
    edges = [(f"t{i}", f"t{i + 1}", scale / 2) for i in range(hops)]
    graph = TaskGraph.from_specs(tasks, edges, name=f"chain-{hops}")
    alloc = {f"t{i}": i % 2 for i in range(hops + 1)}
    sched = get_scheduler("fixed", alloc=alloc).run(graph, platform, "one-port")
    validate_schedule(sched)
    return graph, sched


def _rescaled(sched: Schedule, factor: float) -> Schedule:
    """Every time in the schedule multiplied by ``factor``."""
    out = Schedule(
        sched.graph, sched.platform, model=sched.model, heuristic=sched.heuristic
    )
    out.placements = {
        t: TaskPlacement(t, p.proc, p.start * factor, p.finish * factor)
        for t, p in sched.placements.items()
    }
    out.comm_events = [
        CommEvent(
            e.src_task, e.dst_task, e.src_proc, e.dst_proc,
            e.start * factor, e.finish * factor, e.data, e.hop,
        )
        for e in sched.comm_events
    ]
    return out


class TestLongChainRegression:
    """200-hop transfer chain at ~1e9 magnitude: ULP-level deviations
    must pass validation and the tighten=False replay cross-check."""

    PLATFORM = Platform.homogeneous(2, cycle_time=1.0, link=1.0)

    def test_exact_chain_validates(self):
        _, sched = _chain_schedule(200, 1e7, self.PLATFORM)
        assert sched.makespan() > 1e9  # the magnitude that broke 1e-6 absolute
        checked = replay_schedule(sched, tighten=False)
        assert checked.makespan() == sched.makespan()

    def test_ulp_scale_deviation_accepted(self):
        """Times a relative 1e-12 *early* — far beyond the old absolute
        1e-6 tolerance at this magnitude (~2e-3 absolute), but exactly
        the accumulated-FP-error shape the shared epsilon must accept."""
        _, sched = _chain_schedule(200, 1e7, self.PLATFORM)
        jittered = _rescaled(sched, 1.0 - 1e-12)
        deviation = sched.makespan() - jittered.makespan()
        assert deviation > 1e-6  # the old absolute tolerance would reject
        validate_schedule(jittered)
        checked = replay_schedule(jittered, tighten=False)
        assert checked.makespan() == jittered.makespan()

    def test_genuine_violation_still_rejected(self):
        """A real constraint break (0.1% early) must still fail."""
        _, sched = _chain_schedule(50, 1e7, self.PLATFORM)
        broken = _rescaled(sched, 1.0 - 1e-3)
        with pytest.raises((ValidationError, SchedulingError)):
            validate_schedule(broken)
            replay_schedule(broken, tighten=False)

    def test_small_scale_keeps_absolute_floor(self):
        """At magnitude ~1 the historical absolute behavior remains: a
        5e-7 deviation passes, a 1e-3 one fails."""
        _, sched = _chain_schedule(10, 1.0, self.PLATFORM)
        validate_schedule(_rescaled(sched, 1.0 - 1e-8))
        with pytest.raises((ValidationError, SchedulingError)):
            broken = _rescaled(sched, 1.0 - 1e-1)
            validate_schedule(broken)
            replay_schedule(broken, tighten=False)
