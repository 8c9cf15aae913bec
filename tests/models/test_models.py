"""Booking rules of the macro-dataflow and one-port models.

Each case places zero-weight sources and their consumers through
``SchedulerState.schedule_on`` and reads the committed transfer windows
back from the schedule.
"""

import pytest

from repro.core import Platform, TaskGraph
from repro.heuristics.base import SchedulerState
from repro.models import MacroDataflowModel, OnePortModel


def windows(model_cls, p, tasks, edges, placements, link=2.0):
    """``(src_proc, dst_proc, start, finish)`` of every committed transfer."""
    platform = Platform.homogeneous(p, cycle_time=1.0, link=link)
    graph = TaskGraph.from_specs(tasks, edges)
    state = SchedulerState(graph, platform, model_cls(platform))
    for task, proc in placements:
        state.schedule_on(task, proc)
    return [(e.src_proc, e.dst_proc, e.start, e.finish) for e in state.schedule.comm_events]


#: one zero-weight source feeding two consumers
FORK = ([("u", 0.0), ("x", 1.0), ("y", 1.0)], [("u", "x", 3.0), ("u", "y", 3.0)])
#: two zero-weight sources feeding one consumer
JOIN = ([("u", 0.0), ("v", 0.0), ("w", 1.0)], [("u", "w", 3.0), ("v", "w", 3.0)])


class TestMacroDataflow:
    def test_remote_edges_cost_data_times_link_without_contention(self):
        got = windows(MacroDataflowModel, 3, *FORK, [("u", 0), ("x", 1), ("y", 2)])
        assert got == [(0, 1, 0.0, 6.0), (0, 2, 0.0, 6.0)]

    def test_local_edge_free(self):
        assert windows(MacroDataflowModel, 3, *FORK, [("u", 1), ("x", 1), ("y", 1)]) == []


class TestOnePort:
    def test_serializes_same_sender(self):
        got = windows(OnePortModel, 3, *FORK, [("u", 0), ("x", 1), ("y", 2)])
        assert got == [(0, 1, 0.0, 6.0), (0, 2, 6.0, 12.0)]

    def test_serializes_same_receiver(self):
        got = windows(OnePortModel, 3, *JOIN, [("u", 0), ("v", 1), ("w", 2)])
        assert got == [(0, 2, 0.0, 6.0), (1, 2, 6.0, 12.0)]

    def test_disjoint_pairs_parallel(self):
        tasks = [("a", 0.0), ("b", 1.0), ("c", 0.0), ("d", 1.0)]
        edges = [("a", "b", 3.0), ("c", "d", 3.0)]
        got = windows(OnePortModel, 4, tasks, edges, [("a", 0), ("c", 2), ("b", 1), ("d", 3)])
        assert got == [(0, 1, 0.0, 6.0), (2, 3, 0.0, 6.0)]

    @pytest.mark.parametrize("model_cls", [MacroDataflowModel, OnePortModel])
    def test_local_edge_books_nothing(self, model_cls):
        assert windows(model_cls, 3, *JOIN, [("u", 2), ("v", 2), ("w", 2)]) == []
