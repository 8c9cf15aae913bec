"""Unit tests for the routed one-port model (Section 4.3 extension).

The transfer tests run on both construction engines (``python`` and,
when built, ``cext``): routes are walked hop by hop over the one-port
send/recv rows, tentatively while a candidate is evaluated.
"""

import math

import numpy as np
import pytest

from repro.core import Platform, PlatformError, TaskGraph, validate_schedule
from repro.heuristics import HEFT, FixedAllocation
from repro.heuristics.base import SchedulerState
from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available
from repro.models import RoutedOnePortModel, build_routing_table


def line_platform(p: int, link: float = 1.0) -> Platform:
    """P0 - P1 - ... - P(p-1): only neighbouring links exist."""
    mat = np.full((p, p), math.inf)
    np.fill_diagonal(mat, 0.0)
    for i in range(p - 1):
        mat[i][i + 1] = link
        mat[i + 1][i] = link
    return Platform([1.0] * p, mat)


class TestRoutingTable:
    def test_full_network_routes_direct(self):
        plat = Platform.homogeneous(4)
        routes = build_routing_table(plat)
        for q in range(4):
            for r in range(4):
                expected = [q] if q == r else [q, r]
                assert routes[(q, r)] == expected

    def test_line_routes_through_middle(self):
        routes = build_routing_table(line_platform(4))
        assert routes[(0, 3)] == [0, 1, 2, 3]
        assert routes[(3, 0)] == [3, 2, 1, 0]
        assert routes[(1, 2)] == [1, 2]

    def test_cheapest_not_fewest_hops(self):
        # direct link exists but costs 10; the two-hop detour costs 2
        mat = [[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]]
        plat = Platform([1.0] * 3, mat)
        routes = build_routing_table(plat)
        assert routes[(0, 2)] == [0, 1, 2]

    def test_disconnected_raises(self):
        mat = [[0.0, math.inf], [math.inf, 0.0]]
        with pytest.raises(PlatformError, match="no route"):
            build_routing_table(Platform([1.0, 1.0], mat))

    def test_deterministic(self):
        plat = line_platform(5)
        assert build_routing_table(plat) == build_routing_table(plat)


BACKENDS = [
    "python",
    pytest.param("cext", marks=pytest.mark.skipif(
        not cext_available(), reason="cext extension not built")),
]


@pytest.fixture(params=BACKENDS)
def backend(request):
    with use_backend(request.param):
        yield request.param


def relay_state(graph, p=3):
    plat = line_platform(p)
    return SchedulerState(graph, plat, RoutedOnePortModel(plat))


def two_messages():
    """Two zero-weight sources on P0 feeding x (data 2 each) on a line."""
    return TaskGraph.from_specs(
        [("u", 0.0), ("v", 0.0), ("x", 1.0)], [("u", "x", 2.0), ("v", "x", 2.0)]
    )


def hops(schedule):
    return [(e.src_task, e.src_proc, e.dst_proc, e.start, e.finish, e.hop)
            for e in schedule.comm_events]


class TestRoutedTransfers:
    def test_two_hop_arrival_time(self, backend):
        g = TaskGraph.from_specs([("u", 0.0), ("v", 1.0)], [("u", "v", 2.0)])
        state = relay_state(g)
        state.schedule_on("u", 0)
        # data 2, unit links: hop [0,2) on 0->1, hop [2,4) on 1->2
        assert state.evaluate("v", 2).start == 4.0
        state.schedule_on("v", 2)
        assert hops(state.schedule) == [("u", 0, 1, 0.0, 2.0, 0), ("u", 1, 2, 2.0, 4.0, 1)]

    def test_hop_events_recorded(self):
        plat = line_platform(3)
        g = TaskGraph()
        g.add_task("u", 1.0)
        g.add_task("v", 1.0)
        g.add_dependency("u", "v", 2.0)
        sched = FixedAllocation({"u": 0, "v": 2}).run(g, plat, RoutedOnePortModel(plat))
        validate_schedule(sched)
        hops = sched.comms_between(("u", "v"))
        assert [(h.src_proc, h.dst_proc) for h in hops] == [(0, 1), (1, 2)]
        assert hops[1].start >= hops[0].finish

    def test_relay_port_contention(self, backend):
        """A relay's own ports serialize two routed streams, within one
        trial (tentative hops) and once committed."""
        state = relay_state(two_messages())
        state.schedule_on("u", 0)
        state.schedule_on("v", 0)
        # the second leaves P0 at 2 and relays [4, 6): pipelined
        assert state.evaluate("x", 2).start == 6.0
        state.schedule_on("x", 2)
        assert hops(state.schedule) == [
            ("u", 0, 1, 0.0, 2.0, 0), ("u", 1, 2, 2.0, 4.0, 1),
            ("v", 0, 1, 2.0, 4.0, 0), ("v", 1, 2, 4.0, 6.0, 1),
        ]

    def test_rejected_candidates_leave_no_trace(self, backend):
        state = relay_state(two_messages(), p=4)
        state.schedule_on("u", 0)
        state.schedule_on("v", 0)
        before = (state.builder.fingerprint(), list(state.schedule.comm_events))
        for _ in range(2):
            state.evaluate_all("x")
            state.best_candidate("x")
            state.evaluate("x", 3, insertion=False)
        assert (state.builder.fingerprint(), list(state.schedule.comm_events)) == before
        state.schedule_on("x", 3)
        # three hops each; the second message trails the first by one
        # hop and arrives at 8
        assert state.schedule.finish_of("x") == 9.0

    def test_mark_restore_and_snapshot_with_multi_hop_events(self, backend):
        state = relay_state(two_messages())
        state.schedule_on("u", 0)
        state.schedule_on("v", 0)
        before = (state.builder.fingerprint(), hops(state.schedule))
        mark = state.mark()
        state.schedule_on("x", 2)
        multi = hops(state.schedule)
        assert len(multi) == 4
        state.restore(mark)
        assert (state.builder.fingerprint(), hops(state.schedule)) == before
        snap = state.snapshot()
        snap.schedule_on("x", 2)
        assert hops(state.schedule) == []  # the copy shares nothing
        state.schedule_on("x", 2)
        assert hops(snap.schedule) == hops(state.schedule) == multi

    def test_hops_listed_in_order_after_materialize(self, backend):
        g = TaskGraph.from_specs([("u", 0.0), ("v", 1.0)], [("u", "v", 1.0)])
        state = relay_state(g, p=5)
        state.schedule_on("u", 0)
        state.schedule_on("v", 4)
        got = [(e.src_proc, e.dst_proc, e.hop) for e in state.schedule.comm_events]
        assert got == [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3)]
        validate_schedule(state.schedule)

    def test_heft_runs_and_validates_on_ring(self, backend):
        import repro.graphs as graphs

        p = 5
        mat = np.full((p, p), math.inf)
        np.fill_diagonal(mat, 0.0)
        for i in range(p):
            mat[i][(i + 1) % p] = 1.0
            mat[(i + 1) % p][i] = 1.0
        ring = Platform([1.0] * p, mat)
        g = graphs.lu_graph(6, comm_ratio=2.0)
        sched = HEFT().run(g, ring, RoutedOnePortModel(ring))
        validate_schedule(sched)  # multi-hop chains + one-port rules
        assert sched.is_complete()
        assert sched.state_impl == ("flat-cext" if backend == "cext" else "flat-python")
