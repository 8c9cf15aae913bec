"""Unit tests for the independent schedule validators.

Each test builds a small schedule by hand — valid or subtly broken —
and checks that the validator accepts/rejects it with the right rule.
"""

import pytest

from repro.core import (
    Platform,
    Schedule,
    TaskGraph,
    ValidationError,
    is_valid,
    validate_schedule,
)


@pytest.fixture
def graph():
    g = TaskGraph(name="vee")
    g.add_task("a", 1.0)
    g.add_task("b", 1.0)
    g.add_task("c", 2.0)
    g.add_dependency("a", "c", 3.0)
    g.add_dependency("b", "c", 5.0)
    return g


@pytest.fixture
def platform():
    return Platform.homogeneous(3, cycle_time=1.0, link=1.0)


def valid_one_port(graph, platform) -> Schedule:
    """a on P0, b on P1, c on P2 with both messages serialized on P2's
    receive port: a->c in [1, 4), b->c in [4, 9), c starts at 9."""
    s = Schedule(graph, platform, model="one-port")
    s.place("a", 0, 0.0, 1.0)
    s.place("b", 1, 0.0, 1.0)
    s.record_comm("a", "c", 0, 2, 1.0, 3.0, 3.0)
    s.record_comm("b", "c", 1, 2, 4.0, 5.0, 5.0)
    s.place("c", 2, 9.0, 11.0)
    return s


class TestValidSchedules:
    def test_one_port_valid(self, graph, platform):
        validate_schedule(valid_one_port(graph, platform))

    def test_is_valid_true(self, graph, platform):
        assert is_valid(valid_one_port(graph, platform))

    def test_macro_valid(self, graph, platform):
        s = Schedule(graph, platform, model="macro-dataflow")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 1, 0.0, 1.0)
        # both messages in parallel; c waits for the slower (1 + 5 = 6)
        s.place("c", 2, 6.0, 8.0)
        validate_schedule(s)

    def test_local_edges_need_no_comm(self, graph, platform):
        s = Schedule(graph, platform, model="one-port")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 0, 1.0, 2.0)
        s.place("c", 0, 2.0, 4.0)
        validate_schedule(s)


class TestCompleteness:
    def test_missing_task(self, graph, platform):
        s = Schedule(graph, platform, model="one-port")
        s.place("a", 0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="not placed"):
            validate_schedule(s)

    def test_invalid_processor(self, graph, platform):
        s = valid_one_port(graph, platform)
        s.placements["a"] = type(s.placements["a"])("a", 99, 0.0, 1.0)
        with pytest.raises(ValidationError, match="invalid processor"):
            validate_schedule(s)

    def test_negative_start(self, graph, platform):
        s = valid_one_port(graph, platform)
        s.placements["a"] = type(s.placements["a"])("a", 0, -1.0, 0.0)
        with pytest.raises(ValidationError, match="before time 0"):
            validate_schedule(s)


class TestDurations:
    def test_wrong_duration(self, graph, platform):
        s = valid_one_port(graph, platform)
        s.placements["c"] = type(s.placements["c"])("c", 2, 9.0, 10.0)  # w=2 needs 2
        with pytest.raises(ValidationError, match="duration"):
            validate_schedule(s)

    def test_heterogeneous_duration(self, graph):
        plat = Platform([2.0, 1.0, 1.0])
        s = Schedule(graph, plat, model="one-port")
        s.place("a", 0, 0.0, 2.0)  # w=1 on t=2
        s.place("b", 0, 2.0, 4.0)
        s.place("c", 0, 4.0, 8.0)  # w=2 on t=2
        validate_schedule(s)


class TestExclusivity:
    def test_overlapping_tasks_same_proc(self, graph, platform):
        s = Schedule(graph, platform, model="one-port")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 0, 0.5, 1.5)
        s.place("c", 0, 1.5, 3.5)
        with pytest.raises(ValidationError, match="overlap"):
            validate_schedule(s)

    @staticmethod
    def _independent(windows):
        """Independent tasks on P0 at the given (start, finish) windows."""
        g = TaskGraph()
        for i, (start, finish) in enumerate(windows):
            g.add_task(i, finish - start)
        s = Schedule(g, Platform.homogeneous(1), model="one-port")
        for i, (start, finish) in enumerate(windows):
            s.place(i, 0, start, finish)
        return s

    def test_zero_length_task_inside_busy_window_accepted(self):
        """Zero-length windows conflict with nothing, as in the gap search."""
        validate_schedule(self._independent([(0.0, 10.0), (4.0, 4.0)]))

    def test_overlap_behind_zero_length_task_still_rejected(self):
        """[0,10), [5,5), [6,8): the zero-length task sits between the two
        positive windows in start order and must not hide their overlap."""
        with pytest.raises(ValidationError, match="overlap"):
            validate_schedule(self._independent([(0.0, 10.0), (5.0, 5.0), (6.0, 8.0)]))


class TestPrecedence:
    def test_child_starts_before_arrival(self, graph, platform):
        s = valid_one_port(graph, platform)
        s.placements["c"] = type(s.placements["c"])("c", 2, 8.0, 10.0)
        with pytest.raises(ValidationError, match="before its data arrives"):
            validate_schedule(s)

    def test_macro_child_too_early(self, graph, platform):
        s = Schedule(graph, platform, model="macro-dataflow")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 1, 0.0, 1.0)
        s.place("c", 2, 5.0, 7.0)  # needs 6
        with pytest.raises(ValidationError, match="before its data arrives"):
            validate_schedule(s)

    def test_missing_comm_event(self, graph, platform):
        s = valid_one_port(graph, platform)
        s.comm_events = [e for e in s.comm_events if e.src_task != "b"]
        with pytest.raises(ValidationError, match="no communication event"):
            validate_schedule(s)

    def test_local_edge_with_spurious_event(self, graph, platform):
        s = Schedule(graph, platform, model="one-port")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 0, 1.0, 2.0)
        s.record_comm("a", "c", 0, 0, 1.0, 0.0, 3.0)
        s.place("c", 0, 2.0, 4.0)
        with pytest.raises(ValidationError):
            validate_schedule(s)

    def test_comm_starts_before_source_finish(self, graph, platform):
        s = valid_one_port(graph, platform)
        s.comm_events[0] = type(s.comm_events[0])("a", "c", 0, 2, 0.5, 3.5, 3.0)
        with pytest.raises(ValidationError, match="before the source finishes"):
            validate_schedule(s)

    def test_comm_wrong_duration(self, graph, platform):
        s = valid_one_port(graph, platform)
        s.comm_events[0] = type(s.comm_events[0])("a", "c", 0, 2, 1.0, 2.0, 3.0)
        with pytest.raises(ValidationError, match="duration"):
            validate_schedule(s)

    def test_comm_wrong_endpoint(self, graph, platform):
        s = valid_one_port(graph, platform)
        s.comm_events[0] = type(s.comm_events[0])("a", "c", 1, 2, 1.0, 4.0, 3.0)
        with pytest.raises(ValidationError, match="source task runs on"):
            validate_schedule(s)


class TestOnePortRule:
    def test_receive_overlap_rejected(self, graph, platform):
        s = Schedule(graph, platform, model="one-port")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 1, 0.0, 1.0)
        # both messages into P2 at the same time: legal under macro, not 1-port
        s.record_comm("a", "c", 0, 2, 1.0, 3.0, 3.0)
        s.record_comm("b", "c", 1, 2, 1.0, 5.0, 5.0)
        s.place("c", 2, 6.0, 8.0)
        with pytest.raises(ValidationError, match="one-port violation"):
            validate_schedule(s)

    def test_send_overlap_rejected(self, platform):
        g = TaskGraph()
        g.add_task("src", 1.0)
        g.add_task("x", 1.0)
        g.add_task("y", 1.0)
        g.add_dependency("src", "x", 2.0)
        g.add_dependency("src", "y", 2.0)
        s = Schedule(g, platform, model="one-port")
        s.place("src", 0, 0.0, 1.0)
        s.record_comm("src", "x", 0, 1, 1.0, 2.0, 2.0)
        s.record_comm("src", "y", 0, 2, 1.0, 2.0, 2.0)  # same send window!
        s.place("x", 1, 3.0, 4.0)
        s.place("y", 2, 3.0, 4.0)
        with pytest.raises(ValidationError, match="one-port violation"):
            validate_schedule(s)

    def test_zero_length_transfer_inside_busy_port_accepted(self, platform):
        """An empty message inside another's receive window books nothing."""
        g = TaskGraph.from_specs(
            [("u", 1.0), ("v", 1.0), ("w", 1.0)], [("u", "w", 4.0), ("v", "w", 0.0)]
        )
        s = Schedule(g, platform, model="one-port")
        s.place("u", 0, 0.0, 1.0)
        s.place("v", 1, 1.0, 2.0)
        s.record_comm("u", "w", 0, 2, 1.0, 4.0, 4.0)  # P2 receives [1, 5)
        s.record_comm("v", "w", 1, 2, 2.0, 0.0, 0.0)  # [2, 2): inside it
        s.place("w", 2, 5.0, 6.0)
        validate_schedule(s)

    def test_same_schedule_fine_under_macro(self, graph, platform):
        """The one-port-violating double receive is fine in macro-dataflow."""
        s = Schedule(graph, platform, model="macro-dataflow")
        s.place("a", 0, 0.0, 1.0)
        s.place("b", 1, 0.0, 1.0)
        s.record_comm("a", "c", 0, 2, 1.0, 3.0, 3.0)
        s.record_comm("b", "c", 1, 2, 1.0, 5.0, 5.0)
        s.place("c", 2, 6.0, 8.0)
        validate_schedule(s)

    def test_unknown_model_rejected(self, graph, platform):
        s = valid_one_port(graph, platform)
        with pytest.raises(ValidationError, match="unknown model"):
            validate_schedule(s, model="quantum")


class TestMultiHop:
    def test_valid_two_hop_chain(self):
        g = TaskGraph()
        g.add_task("u", 1.0)
        g.add_task("v", 1.0)
        g.add_dependency("u", "v", 2.0)
        plat = Platform.homogeneous(3, cycle_time=1.0, link=1.0)
        s = Schedule(g, plat, model="one-port")
        s.place("u", 0, 0.0, 1.0)
        s.record_comm("u", "v", 0, 1, 1.0, 2.0, 2.0, hop=0)
        s.record_comm("u", "v", 1, 2, 3.0, 2.0, 2.0, hop=1)
        s.place("v", 2, 5.0, 6.0)
        validate_schedule(s)

    def test_broken_chain_rejected(self):
        g = TaskGraph()
        g.add_task("u", 1.0)
        g.add_task("v", 1.0)
        g.add_dependency("u", "v", 2.0)
        plat = Platform.homogeneous(4, cycle_time=1.0, link=1.0)
        s = Schedule(g, plat, model="one-port")
        s.place("u", 0, 0.0, 1.0)
        s.record_comm("u", "v", 0, 1, 1.0, 2.0, 2.0, hop=0)
        s.record_comm("u", "v", 2, 3, 3.0, 2.0, 2.0, hop=1)  # 1 != 2: broken
        s.place("v", 3, 5.0, 6.0)
        with pytest.raises(ValidationError, match="hop"):
            validate_schedule(s)

    def test_hop_leaves_too_early_rejected(self):
        g = TaskGraph()
        g.add_task("u", 1.0)
        g.add_task("v", 1.0)
        g.add_dependency("u", "v", 2.0)
        plat = Platform.homogeneous(3, cycle_time=1.0, link=1.0)
        s = Schedule(g, plat, model="one-port")
        s.place("u", 0, 0.0, 1.0)
        s.record_comm("u", "v", 0, 1, 1.0, 2.0, 2.0, hop=0)
        s.record_comm("u", "v", 1, 2, 2.0, 2.0, 2.0, hop=1)  # hop0 ends at 3
        s.place("v", 2, 5.0, 6.0)
        with pytest.raises(ValidationError, match="before hop"):
            validate_schedule(s)
