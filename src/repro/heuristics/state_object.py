"""The object-level EFT engine, retained as the cross-check reference.

:class:`ObjectSchedulerState` is the original implementation of the
:class:`~repro.heuristics.base.SchedulerState` contract: one
:class:`~repro.core.timeline.Timeline` per processor, the model's
committed :class:`~repro.models.base.CommState`, and a fresh
:class:`~repro.models.base.CommTrial` per (task, processor) probe.  It
plays the same role for *construction* that
:func:`repro.simulate.replay_object` plays for *replay*: the slow,
obviously-faithful implementation the flat builder path is asserted
bit-identical against (``tests/heuristics/test_builder_equivalence.py``),
and the fallback for models without a flat booker (multi-hop routing).

Instantiate it directly, or route every heuristic through it with the
:func:`~repro.heuristics.base.force_object_state` context manager.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from ..core.exceptions import SchedulingError
from ..core.schedule import Schedule
from ..core.timeline import Timeline
from ..kernel import compile_statics
from .base import Candidate, SchedulerState

TaskId = Hashable


class ObjectSchedulerState(SchedulerState):
    """Mutable state of one scheduling run, on object timelines/trials."""

    __slots__ = ("compute", "comm")

    state_impl_name = "object"

    def __init__(
        self,
        graph,
        platform,
        model,
        heuristic: str = "",
        insertion: bool = True,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.platform = platform
        self.model = model
        self.maps = graph.as_maps()
        #: Shared flat arrays (interning, CSR parents, cost tables) —
        #: the candidate-trial inner loop reads these instead of
        #: per-call dict/attribute lookups.
        self.kernel = compile_statics(graph, platform)
        self.compute = [Timeline() for _ in platform.processors]
        if getattr(model, "wants_compute", False):
            # variant models (e.g. no communication/computation overlap)
            # book transfers on the compute timelines too
            model.bind_compute(self.compute)
        self.comm = model.new_state()
        self.schedule = Schedule(
            graph,
            platform,
            model=model.name,
            heuristic=heuristic,
            state_impl=self.state_impl_name,
        )
        self.insertion = insertion

    # ------------------------------------------------------------------
    # EFT engine
    # ------------------------------------------------------------------
    def parents_info(self, task: TaskId) -> list[tuple[TaskId, int, float, float]]:
        """Incoming edges as ``(parent, parent_proc, parent_finish, data)``.

        Sorted by (finish, insertion index): the order in which the
        task's incoming messages are greedily booked on the ports.  The
        paper does not fix this order; first-finished-first is the
        natural greedy choice (data that exists earliest ships earliest).
        """
        kernel = self.kernel
        placements = self.schedule.placements
        tasks, esrc, edata = kernel.tasks, kernel.esrc, kernel.edata
        keyed = []
        for e in kernel.pred_rows[kernel.intern(task)]:
            pi = esrc[e]
            parent = tasks[pi]
            placement = placements.get(parent)
            if placement is None:
                raise SchedulingError(
                    f"task {task!r} evaluated before its parent {parent!r} was scheduled"
                )
            keyed.append(
                (placement.finish, pi, (parent, placement.proc, placement.finish, edata[e]))
            )
        keyed.sort()
        return [item[2] for item in keyed]

    def parent_procs(self, task: TaskId) -> set[int]:
        """Processors hosting ``task``'s already-scheduled parents."""
        placements = self.schedule.placements
        return {placements[p].proc for p in self.maps.preds[task]}

    def evaluate(
        self,
        task: TaskId,
        proc: int,
        parents: Sequence[tuple[TaskId, int, float, float]] | None = None,
        insertion: bool | None = None,
    ) -> Candidate:
        """EFT of ``task`` on ``proc``: tentative comms + compute slot."""
        if parents is None:
            parents = self.parents_info(task)
        trial = self.comm.trial()
        est = 0.0
        for parent, pproc, pfinish, data in parents:
            arrival = trial.edge_arrival(parent, task, pproc, proc, pfinish, data)
            if arrival > est:
                est = arrival
        duration = self.kernel.exec_[self.kernel.intern(task)][proc]
        use_insertion = self.insertion if insertion is None else insertion
        if use_insertion:
            start = self.compute[proc].next_fit(est, duration)
        else:
            start = self.compute[proc].next_after_last(est)
        return Candidate(task, proc, start, start + duration, trial)

    def evaluate_all(
        self,
        task: TaskId,
        procs: Iterable[int] | None = None,
        insertion: bool | None = None,
    ) -> list[Candidate]:
        """Evaluate ``task`` on every processor (or the given subset)."""
        parents = self.parents_info(task)
        procs = self.platform.processors if procs is None else procs
        return [self.evaluate(task, proc, parents, insertion) for proc in procs]

    def best_candidate(
        self,
        task: TaskId,
        procs: Iterable[int] | None = None,
        insertion: bool | None = None,
    ) -> Candidate:
        """Minimum-EFT candidate; ties broken by start time then processor
        index (the paper's toy example sends ties to ``P0``)."""
        candidates = self.evaluate_all(task, procs, insertion)
        if not candidates:
            raise SchedulingError(f"no candidate processors for task {task!r}")
        return min(candidates, key=lambda c: (c.finish, c.start, c.proc))

    def commit(self, candidate: Candidate) -> None:
        """Make a candidate permanent: comms, compute window, placement."""
        candidate.trial.commit(self.schedule)
        self.compute[candidate.proc].reserve(
            candidate.start, candidate.finish, candidate.task
        )
        self.schedule.place(
            candidate.task, candidate.proc, candidate.start, candidate.finish
        )

    def schedule_on(
        self, task: TaskId, proc: int, insertion: bool | None = None
    ) -> Candidate:
        """Evaluate-and-commit ``task`` on a fixed processor."""
        candidate = self.evaluate(task, proc, insertion=insertion)
        self.commit(candidate)
        return candidate

    # ------------------------------------------------------------------
    # snapshots / scratch runs
    # ------------------------------------------------------------------
    def snapshot(self) -> "ObjectSchedulerState":
        """Deep copy: trial-run a whole chunk without touching this state."""
        dup = object.__new__(type(self))
        dup.graph = self.graph
        dup.platform = self.platform
        dup.model = self.model
        dup.maps = self.maps
        dup.kernel = self.kernel  # immutable statics, shared
        dup.compute = [t.copy() for t in self.compute]
        dup.comm = self.comm.copy()
        if hasattr(dup.comm, "compute"):
            # compute-sharing models must follow the copied timelines
            dup.comm.compute = dup.compute
        dup.schedule = Schedule(
            self.graph,
            self.platform,
            model=self.schedule.model,
            heuristic=self.schedule.heuristic,
        )
        dup.schedule.placements = dict(self.schedule.placements)
        dup.schedule.comm_events = list(self.schedule.comm_events)
        dup.insertion = self.insertion
        return dup

    def mark(self):
        """Checkpoint for :meth:`restore` (here: a full deep copy).

        The flat path journals mutations instead and rolls back in
        O(changed); the object path keeps the deep-copy semantics it
        always had — same cost as the ``snapshot()`` it replaces.
        """
        return self.snapshot()

    def restore(self, mark: "ObjectSchedulerState") -> None:
        """Return to the checkpointed state, discarding later commits."""
        self.compute = mark.compute
        self.comm = mark.comm
        if hasattr(self.comm, "compute"):
            self.comm.compute = self.compute
        if getattr(self.model, "wants_compute", False):
            self.model.bind_compute(self.compute)
        self.schedule.placements = mark.schedule.placements
        self.schedule.comm_events = mark.schedule.comm_events
