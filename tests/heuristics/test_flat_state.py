"""Flat scheduler-state properties, on whichever engine is active.

Rejected candidates leave the state untouched, hypothetical parent
probes poison no memo, snapshots rebind every booker, and unlinked
probes raise.  Bit-identity with the retired object engine is pinned by
``test_golden_digests.py``; identity between the two engines by
``test_backend_equivalence.py``.
"""

import pytest

from repro import Platform
from repro.graphs import lu_graph
from repro.heuristics.base import SchedulerState
from repro.models import (
    MacroDataflowModel,
    NoOverlapOnePortModel,
    OnePortModel,
    RoutedOnePortModel,
    UniPortModel,
)

MODEL_CLASSES = [
    OnePortModel, MacroDataflowModel, UniPortModel, NoOverlapOnePortModel, RoutedOnePortModel,
]


# ----------------------------------------------------------------------
# no-trace property: rejected candidates leave flat state untouched
# ----------------------------------------------------------------------
class TestNoTrace:
    def _fingerprint(self, state):
        return (
            state.builder.fingerprint(),
            dict(state.schedule.placements),
            list(state.schedule.comm_events),
            dict(state.finish),
        )

    @pytest.mark.parametrize("model_cls", MODEL_CLASSES)
    def test_rejected_candidates_leave_no_trace(self, paper_platform, model_cls):
        graph = lu_graph(6)
        state = SchedulerState(graph, paper_platform, model_cls(paper_platform))
        order = list(graph.topological_order())
        for task in order[: len(order) // 2]:
            state.schedule_on(task, 0)
        before = self._fingerprint(state)
        next_task = order[len(order) // 2]
        # evaluate every processor several times and commit nothing
        for _ in range(3):
            state.evaluate_all(next_task)
            state.best_candidate(next_task)
            state.evaluate(next_task, 1, insertion=False)
        assert self._fingerprint(state) == before

    def test_rejection_is_constant_time(self, paper_platform):
        """Rejecting = bumping one counter: no rows are cleared eagerly."""
        graph = lu_graph(6)
        state = SchedulerState(graph, paper_platform, OnePortModel(paper_platform))
        for task in list(graph.topological_order())[:6]:
            state.schedule_on(task, 0)
        gen_before = state.builder.gen
        state.evaluate(list(graph.topological_order())[6], 1)
        assert state.builder.gen == gen_before + 1


def test_hypothetical_parents_do_not_poison_later_evaluations(two_identical):
    """evaluate(parents=...) with made-up finish times is evaluate-only,
    and must not corrupt the booker's memoized state (regression: the
    one-port seed cache used to be keyed without the ready time)."""
    from repro.core import TaskGraph

    g = TaskGraph.from_specs([("a", 1.0), ("c", 1.0)], [("a", "c", 2.0)])
    state = SchedulerState(g, two_identical, OnePortModel(two_identical))
    state.schedule_on("a", 0)
    genuine = state.evaluate("c", 1)
    state.evaluate("c", 1, parents=[("a", 0, 100.0, 2.0)])
    again = state.evaluate("c", 1)
    assert (again.start, again.finish) == (genuine.start, genuine.finish)


def test_relocated_parent_probe_does_not_poison_seed():
    """A hypothetical probe that *relocates* a parent (same finish, other
    processor) must neither use nor pollute the real send row's seed
    (regression: the seed key used to omit the source processor)."""
    from repro.core import TaskGraph

    platform = Platform.homogeneous(3)
    g = TaskGraph.from_specs(
        [("a", 1.0), ("b", 1.0), ("d", 1.0), ("c", 1.0)],
        [("a", "b", 3.0), ("d", "c", 2.0)],
    )
    state = SchedulerState(g, platform, OnePortModel(platform))
    state.schedule_on("a", 1)
    state.schedule_on("d", 0)
    state.schedule_on("b", 2)  # books P1's send port [1, 4)
    genuine = state.evaluate("c", 2)
    # hypothetical: d on busy-sender P1 instead of idle P0
    info = state.parents_info("c")
    parent, _pproc, pfinish, data = info[0]
    state.evaluate("c", 2, parents=[(parent, 1, pfinish, data)])
    again = state.evaluate("c", 2)
    assert (again.start, again.finish) == (genuine.start, genuine.finish)


@pytest.mark.parametrize("model_cls", MODEL_CLASSES)
def test_snapshot_rebinds_booker_per_model(model_cls):
    """snapshot() gives every flat booker an independent builder binding;
    the copy and the original book identically from the shared base."""
    from repro.core import TaskGraph

    platform = Platform.homogeneous(3)
    g = TaskGraph.from_specs(
        [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [("a", "c", 2.0), ("b", "c", 1.0)],
    )
    state = SchedulerState(g, platform, model_cls(platform))
    state.schedule_on("a", 0)
    state.schedule_on("b", 1)
    snap = state.snapshot()
    c_snap = snap.schedule_on("c", 2)
    c_real = state.schedule_on("c", 2)
    assert (c_snap.start, c_snap.finish) == (c_real.start, c_real.finish)
    assert snap.builder is not state.builder


def test_parent_procs_requires_scheduled_parents(paper_platform):
    from repro.core import TaskGraph
    from repro.core.exceptions import SchedulingError

    g = TaskGraph.from_specs([("a", 1.0), ("c", 1.0)], [("a", "c", 2.0)])
    state = SchedulerState(g, paper_platform, OnePortModel(paper_platform))
    with pytest.raises(SchedulingError):
        state.parent_procs("c")


def test_missing_link_raises():
    """Partially linked platform + one-port: the unlinked probe raises
    PlatformError — pruning must not skip it."""
    import math

    from repro.core import TaskGraph
    from repro.core.exceptions import PlatformError

    inf = math.inf
    platform = Platform(
        [1.0, 1.0, 100.0],
        [[0.0, 1.0, 1.0], [1.0, 0.0, inf], [1.0, inf, 0.0]],
    )
    g = TaskGraph.from_specs([("p", 1.0), ("x", 1.0)], [("p", "x", 1.0)])
    state = SchedulerState(g, platform, OnePortModel(platform))
    state.schedule_on("p", 1)
    with pytest.raises(PlatformError):
        state.best_candidate("x")
