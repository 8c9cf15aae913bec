"""Unit tests for the shared scheduler machinery (state, queue, registry)."""

import pytest

from repro.core import ConfigurationError, Platform, SchedulingError, TaskGraph
from repro.heuristics import available_schedulers, get_scheduler, make_model
from repro.heuristics.base import ReadyQueue, SchedulerState
from repro.models import MacroDataflowModel, OnePortModel


@pytest.fixture
def platform():
    return Platform.homogeneous(2, cycle_time=1.0, link=1.0)


@pytest.fixture
def vee():
    g = TaskGraph()
    g.add_task("a", 1.0)
    g.add_task("b", 2.0)
    g.add_task("c", 1.0)
    g.add_dependency("a", "c", 3.0)
    g.add_dependency("b", "c", 1.0)
    return g


class TestMakeModel:
    def test_by_name(self, platform):
        assert isinstance(make_model(platform, "one-port"), OnePortModel)
        assert isinstance(make_model(platform, "macro-dataflow"), MacroDataflowModel)

    def test_passthrough(self, platform):
        model = OnePortModel(platform)
        assert make_model(platform, model) is model

    def test_unknown_rejected(self, platform):
        with pytest.raises(ConfigurationError):
            make_model(platform, "telepathy")


class TestSchedulerState:
    def test_dispatch_asks_the_active_backend(self, vee, platform):
        from repro.kernel.backends import current_backend
        from repro.models import RoutedOnePortModel

        # the class the active kernel backend asks for (None means the
        # default pure-Python SchedulerState), so the assertion holds
        # under REPRO_BACKEND=cext too — for the routed model as well
        for model in (OnePortModel(platform), RoutedOnePortModel(platform)):
            expected = current_backend().state_class(model) or SchedulerState
            assert type(SchedulerState(vee, platform, model)) is expected

    def test_evaluate_does_not_mutate(self, vee, platform):
        state = SchedulerState(vee, platform, OnePortModel(platform))
        state.schedule_on("a", 0)
        state.schedule_on("b", 1)
        before = len(state.schedule.comm_events)
        c0 = state.evaluate("c", 0)
        c1 = state.evaluate("c", 1)
        assert len(state.schedule.comm_events) == before
        # the rejected trials left no trace: committing either candidate
        # still produces its evaluated times
        state.commit(c0)
        assert state.schedule.finish_of("c") == c0.finish

    def test_commit_books_everything(self, vee, platform):
        state = SchedulerState(vee, platform, OnePortModel(platform))
        state.schedule_on("a", 0)
        state.schedule_on("b", 1)
        cand = state.evaluate("c", 0)
        state.commit(cand)
        # b -> c message booked from P1
        assert any(e.src_proc == 1 for e in state.schedule.comm_events)
        assert state.schedule.is_complete()

    def test_parents_info_requires_scheduled_parents(self, vee, platform):
        state = SchedulerState(vee, platform, OnePortModel(platform))
        with pytest.raises(SchedulingError, match="before its parent"):
            state.parents_info("c")

    def test_parents_sorted_by_finish(self, vee, platform):
        state = SchedulerState(vee, platform, OnePortModel(platform))
        state.schedule_on("b", 1)  # finish 2
        state.schedule_on("a", 0)  # finish 1
        info = state.parents_info("c")
        assert [p[0] for p in info] == ["a", "b"]

    def test_parent_procs(self, vee, platform):
        state = SchedulerState(vee, platform, OnePortModel(platform))
        state.schedule_on("a", 0)
        state.schedule_on("b", 1)
        assert state.parent_procs("c") == {0, 1}

    def test_best_candidate_tie_goes_to_lowest_proc(self, platform):
        g = TaskGraph()
        g.add_task("solo", 1.0)
        state = SchedulerState(g, platform, OnePortModel(platform))
        best = state.best_candidate("solo")
        assert best.proc == 0

    def test_insertion_vs_append(self, platform):
        g = TaskGraph()
        for v in ("w", "x", "y"):
            g.add_task(v, 2.0)
        state = SchedulerState(g, platform, OnePortModel(platform))
        state.compute[0].reserve(4.0, 8.0, "blocker")
        ins = state.evaluate("w", 0, insertion=True)
        app = state.evaluate("w", 0, insertion=False)
        assert ins.start == 0.0  # fills the [0, 4) gap
        assert app.start == 8.0

    def test_snapshot_isolated(self, vee, platform):
        state = SchedulerState(vee, platform, OnePortModel(platform))
        state.schedule_on("a", 0)
        snap = state.snapshot()
        snap.schedule_on("b", 1)
        assert "b" in snap.schedule.placements
        assert "b" not in state.schedule.placements
        # resource state isolated too: the original books "b" and "c"
        # exactly as the snapshot did, proving the snapshot's bookings
        # never leaked back
        snap.schedule_on("c", 0)
        b1 = state.schedule_on("b", 1)
        c1 = state.schedule_on("c", 0)
        assert b1.finish == snap.schedule.finish_of("b")
        assert c1.finish == snap.schedule.finish_of("c")
        assert state.schedule.is_complete()

    def test_mark_restore_roundtrip(self, vee, platform):
        state = SchedulerState(vee, platform, OnePortModel(platform))
        state.schedule_on("a", 0)
        reference = SchedulerState(vee, platform, OnePortModel(platform))
        reference.schedule_on("a", 0)
        mark = state.mark()
        state.schedule_on("b", 1)
        state.schedule_on("c", 0)
        state.restore(mark)
        assert set(state.schedule.placements) == {"a"}
        assert set(state.finish) == {"a"}
        # after the rollback the state behaves exactly like one that
        # never ran the scratch chunk
        for task, proc in (("b", 1), ("c", 0)):
            got = state.schedule_on(task, proc)
            want = reference.schedule_on(task, proc)
            assert (got.start, got.finish) == (want.start, want.finish)
        assert sorted(state.schedule.comm_events) == sorted(
            reference.schedule.comm_events
        )


class TestReadyQueue:
    def test_respects_priority_and_readiness(self, vee):
        queue = ReadyQueue(vee, key=lambda v: (v,))  # alphabetical
        assert queue.pop() == "a"
        assert queue.complete("a") == []  # c still blocked by b
        assert queue.pop() == "b"
        assert queue.complete("b") == ["c"]
        assert queue.pop() == "c"
        assert not queue

    def test_pop_chunk(self):
        g = TaskGraph()
        for i in range(5):
            g.add_task(i, 1.0)
        queue = ReadyQueue(g, key=lambda v: (-v,))  # descending ids
        assert queue.pop_chunk(3) == [4, 3, 2]
        assert queue.pop_chunk(10) == [1, 0]
        assert queue.pop_chunk(1) == []

    def test_push_back(self):
        g = TaskGraph()
        g.add_task("x", 1.0)
        queue = ReadyQueue(g, key=lambda v: (0,))
        task = queue.pop()
        queue.push_back(task)
        assert queue.pop() == "x"

    def test_integer_rank(self, vee):
        # rank by insertion index: a=0, b=1, c=2 -> reverse priority
        queue = ReadyQueue(vee, rank=[2, 1, 0])
        assert queue.pop_chunk(2) == ["b", "a"]
        assert queue.complete("a") == []
        assert queue.complete("b") == ["c"]
        assert queue.pop() == "c"

    def test_key_or_rank_required(self, vee):
        with pytest.raises(ConfigurationError):
            ReadyQueue(vee)

    def test_mixed_type_ids_no_comparison_error(self):
        g = TaskGraph()
        g.add_task(("tuple", 1), 1.0)
        g.add_task("string", 1.0)
        g.add_task(42, 1.0)
        queue = ReadyQueue(g, key=lambda v: (0,))  # all keys tie
        popped = [queue.pop() for _ in range(3)]
        assert len(popped) == 3


class TestRegistry:
    def test_known_schedulers_present(self):
        names = available_schedulers()
        for expected in ("heft", "ilha", "ilha-classic", "ilha-tuned", "cpop",
                         "gdl", "bil", "pct", "min-min", "max-min", "serial",
                         "random"):
            assert expected in names

    def test_get_scheduler_with_kwargs(self):
        ilha = get_scheduler("ilha", b=7)
        assert ilha.b == 7

    def test_unknown_scheduler(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            get_scheduler("does-not-exist")
