"""Shared machinery for list-scheduling heuristics.

:class:`SchedulerState` owns everything a heuristic mutates while
building a schedule, and its :meth:`~SchedulerState.evaluate` /
:meth:`~SchedulerState.commit` pair implements the earliest-finish-time
(EFT) engine all heuristics in this package are built on: evaluating a
candidate books the task's incoming communications *tentatively*
through the model's flat booker (Section 4.3 of the paper), so
rejected candidates leave no trace.

Resource state lives in a :class:`~repro.kernel.builder.FlatBuilder`
(per-processor compute rows plus the model's port rows, all contiguous
sorted float lists indexed by interned ids), placements and finish
times are arrays indexed by task index, and a trial is a generation
stamp — rejecting a candidate is O(1) with zero object churn.  Message
booking is delegated to the model's
:class:`~repro.models.base.FlatBooker`.  This class is the readable
reference engine (``flat-python``); the active kernel backend may
substitute its compiled subclass (``flat-cext``) in
:meth:`SchedulerState.__new__`, the one place an engine is chosen.

:meth:`~SchedulerState.evaluate_all` is the batched sweep behind
:meth:`~SchedulerState.best_candidate`: it resolves and sorts the
task's parents once and books all processors in one pass.
:meth:`~SchedulerState.mark` / :meth:`~SchedulerState.restore` give
O(changed) scratch runs (ILHA's chunk pre-allocation) through the
builder's undo journal.

:meth:`~SchedulerState.run_list` is the one list-scheduling loop (HEFT,
PCT, and ILHA in chunks): the compiled engine overrides it with a
single call.  :class:`ReadyQueue` maintains a ready set ordered by
integer priority rank for heuristics that step through it themselves,
and the :func:`register_scheduler` registry lets experiments construct
heuristics by name.  :func:`make_model` re-exports the models registry's single
resolution path.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from time import perf_counter

from ..core.exceptions import ConfigurationError, SchedulingError
from ..core.platform import Platform
from ..core.ranking import rank_of
from ..core.schedule import Schedule
from ..core.taskgraph import TaskGraph
from ..kernel import compile_statics
from ..kernel.builder import FlatBuilder, row_next_fit
from ..models import make_model
from ..models.base import CommunicationModel
from ..obs import current as _obs_current
from ..obs import stage_detail as _stage_detail

TaskId = Hashable
PriorityKey = Callable[[TaskId], tuple]

_INF = float("inf")


@dataclass(slots=True)
class Candidate:
    """Outcome of evaluating one (task, processor) placement.

    It carries no bookings: they are re-derived at commit time from the
    unchanged committed state.
    """

    task: TaskId
    proc: int
    start: float
    finish: float


class SchedulerState:
    """Mutable state of one scheduling run (see module docstring).

    The commit contract, which every list heuristic here satisfies: a
    candidate handed to :meth:`commit` was produced by :meth:`evaluate`
    against the *current* committed state (evaluations in between are
    fine, commits are not).
    """

    __slots__ = (
        "graph",
        "platform",
        "model",
        "maps",
        "kernel",
        "schedule",
        "insertion",
        "builder",
        "booker",
        "_proc_a",
        "_start_a",
        "_finish_a",
        "_ev_buf",
        "_pcache",
        "_place_log",
        "_compute_views",
        "_stats",
    )

    #: Recorded in ``Schedule.state_impl`` so cross-backend comparisons
    #: can verify which engine actually produced a schedule.
    state_impl_name = "flat-python"

    def __new__(cls, graph, platform, model, heuristic="", insertion=True):
        if cls is SchedulerState:
            from ..kernel.backends import current_backend

            cls = current_backend().state_class(model) or cls
        return object.__new__(cls)

    def __init__(
        self,
        graph: TaskGraph,
        platform: Platform,
        model: CommunicationModel,
        heuristic: str = "",
        insertion: bool = True,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.platform = platform
        self.model = model
        self.maps = graph.as_maps()
        #: Active obs collector, captured once (``None`` = stats off):
        #: the per-candidate paths pay one slot load + ``is not None``.
        stats = self._stats = _obs_current()
        #: Shared flat arrays (interning, CSR parents, cost tables).
        if stats is None:
            self.kernel = compile_statics(graph, platform)
        else:
            with stats.span("phase.statics"):
                self.kernel = compile_statics(graph, platform)
        self.schedule = Schedule(
            graph,
            platform,
            model=model.name,
            heuristic=heuristic,
            state_impl=self.state_impl_name,
        )
        self.insertion = insertion
        self._compute_views = None
        self._init_engine()

    def _init_engine(self) -> None:
        """The booking engine: flat builder rows, booker, placement arrays."""
        #: Flat resource rows: compute rows 0..p-1 + the model's ports.
        self.builder = FlatBuilder(self.platform.num_processors)
        self.booker = self.model.flat_booker(self.builder, self.kernel)
        n = self.kernel.num_tasks
        self._proc_a: list[int] = [-1] * n
        self._start_a: list[float] = [0.0] * n
        self._finish_a: list[float] = [0.0] * n
        self._ev_buf: list[tuple] = []
        self._pcache: tuple | None = None
        self._place_log: list[int] | None = None

    @property
    def finish(self) -> dict[TaskId, float]:
        """Finish time of every placed task (a fresh dict)."""
        return {task: p.finish for task, p in self.schedule.placements.items()}

    # ------------------------------------------------------------------
    # list scheduling (HEFT / PCT, Section 4.1)
    # ------------------------------------------------------------------
    def priority_rank(self, key: PriorityKey | None = None) -> list[int]:
        """Rank of every task index in the priority list (0 = first).

        Decreasing bottom level with ties by task index by default — the
        rank cached on the kernel statics (treat it as read-only); with
        ``key``, increasing ``(key(task), index)``.
        """
        if key is None:
            return self.kernel.priority_rank()
        return rank_by_key(self.kernel.tasks, key)

    def run_list(
        self,
        rank: Sequence[int],
        chunk: int = 1,
        limits: Sequence[Sequence[int]] | None = None,
    ) -> Schedule:
        """Schedule every task in list order and return the schedule.

        Ready tasks leave a heap keyed by ``rank`` (a permutation of the
        task indices, see :meth:`priority_rank`) ``chunk`` at a time.
        Each task commits its :meth:`best_candidate` over all processors
        — HEFT and PCT, with ``chunk=1``.  With ``limits`` (ILHA's Step-1
        count budgets, ``limits[k - 1][q]`` for a chunk of ``k`` tasks) a
        chunk task whose parents all sit on one processor ``q`` is first
        placed there, with no communication, while ``q``'s budget lasts.
        A chunk's children are released once the whole chunk is placed.

        This loop is the reference; the compiled engine runs the same
        loop in one call.
        """
        kernel = self.kernel
        tasks, edst, succ_rows = kernel.tasks, kernel.edst, kernel.succ_rows
        order = [0] * len(rank)
        for i, r in enumerate(rank):
            order[r] = i
        remaining = list(kernel.base_indeg)
        heap = [rank[i] for i in kernel.base_entries]
        heapq.heapify(heap)
        best_candidate, commit = self.best_candidate, self.commit
        while heap:
            batch = [order[heapq.heappop(heap)] for _ in range(min(chunk, len(heap)))]
            rest = batch
            if limits is not None:  # Step 1: zero-communication placements
                limit = limits[len(batch) - 1]
                used = [0] * len(limit)
                rest = []
                for ti in batch:
                    procs = self.parent_procs(tasks[ti]) if kernel.pred_rows[ti] else ()
                    if len(procs) == 1:
                        (proc,) = procs
                        if used[proc] < limit[proc]:
                            self.schedule_on(tasks[ti], proc)
                            used[proc] += 1
                            continue
                    rest.append(ti)
            for ti in rest:
                commit(best_candidate(tasks[ti]))
            for ti in batch:
                for e in succ_rows[ti]:
                    child = edst[e]
                    remaining[child] -= 1
                    if not remaining[child]:
                        heapq.heappush(heap, rank[child])
        return self.schedule

    # ------------------------------------------------------------------
    # EFT engine
    # ------------------------------------------------------------------
    def _parents(self, ti: int) -> list[tuple[float, int, int, int]]:
        """Interned parent rows ``(finish, parent_ix, edge_ix, proc)``.

        Sorted by (finish, parent index): the order in which the task's
        incoming messages are greedily booked on the ports.  The paper
        does not fix this order; first-finished-first is the natural
        greedy choice (data that exists earliest ships earliest).

        One-slot cache keyed by (task, commit epoch): commit re-reads
        the very list the evaluation sweep just built.  The epoch is
        the builder's monotone commit counter, so entries can never be
        revived by a rollback or by a placement-count coincidence.
        """
        key = (ti, self.builder.commit_count)
        cached = self._pcache
        if cached is not None and cached[0] == key:
            return cached[1]
        kernel = self.kernel
        esrc = kernel.esrc
        proc_a, finish_a = self._proc_a, self._finish_a
        out = []
        for e in kernel.pred_rows[ti]:
            pi = esrc[e]
            pproc = proc_a[pi]
            if pproc < 0:
                raise SchedulingError(
                    f"task {kernel.tasks[ti]!r} evaluated before its parent "
                    f"{kernel.tasks[pi]!r} was scheduled"
                )
            out.append((finish_a[pi], pi, e, pproc))
        out.sort()
        self._pcache = (key, out)
        return out

    def parent_procs(self, task: TaskId) -> set[int]:
        """Processors hosting ``task``'s already-scheduled parents."""
        kernel = self.kernel
        esrc = kernel.esrc
        proc_a = self._proc_a
        out = set()
        for e in kernel.pred_rows[kernel.intern(task)]:
            pproc = proc_a[esrc[e]]
            if pproc < 0:
                raise SchedulingError(
                    f"parent {kernel.tasks[esrc[e]]!r} of {task!r} is not scheduled"
                )
            out.add(pproc)
        return out

    def parents_info(self, task: TaskId) -> list[tuple[TaskId, int, float, float]]:
        """Incoming edges as ``(parent, parent_proc, parent_finish, data)``,
        in greedy booking order (see :meth:`_parents`)."""
        kernel = self.kernel
        tasks, edata = kernel.tasks, kernel.edata
        return [
            (tasks[pi], pproc, pfinish, edata[e])
            for pfinish, pi, e, pproc in self._parents(kernel.intern(task))
        ]

    def _flat_parents_from(self, task: TaskId, parents) -> list:
        """Re-intern public ``parents_info`` rows (order preserved)."""
        kernel = self.kernel
        eindex, tindex = kernel.eindex, kernel.tindex
        return [
            (pfinish, tindex[parent], eindex[(parent, task)], pproc)
            for parent, pproc, pfinish, _data in parents
        ]

    def _eval_one(
        self, task: TaskId, ti: int, proc: int, parents, insertion: bool | None
    ) -> Candidate:
        builder = self.builder
        builder.gen += 1  # begin_trial: rejecting this candidate is free
        stats = self._stats
        detail = stats is not None and _stage_detail()
        if stats is not None:
            stats.inc("builder.candidates")
        if detail:
            t0 = perf_counter()
        est = self.booker.trial_est(parents, proc)
        if detail:
            stats.add_time("stage.seed", perf_counter() - t0)
        duration = self.kernel.exec_[ti][proc]
        if self.insertion if insertion is None else insertion:
            if detail:
                t0 = perf_counter()
            start = row_next_fit(builder.rows_s[proc], builder.rows_e[proc], est, duration)
            if detail:
                stats.add_time("stage.gap", perf_counter() - t0)
        else:
            ce = builder.rows_e[proc]
            last = ce[-1] if ce else 0.0
            start = est if est >= last else last
        return Candidate(task, proc, start, start + duration)

    def evaluate(
        self,
        task: TaskId,
        proc: int,
        parents: Sequence[tuple[TaskId, int, float, float]] | None = None,
        insertion: bool | None = None,
    ) -> Candidate:
        """EFT of ``task`` on ``proc``: tentative comms + compute slot.

        Incoming messages are booked tentatively through the model's
        flat booker; the compute slot is the earliest free window of
        length ``w(task) * t_proc`` at or after the latest arrival
        (insertion scheduling by default).  Nothing is committed.

        ``parents``, when given, must be :meth:`parents_info` rows for
        the *current* placements (passing it only saves recomputation).
        A candidate probed under hypothetical parent rows is
        evaluate-only: :meth:`commit` re-derives bookings from the
        actual placements and would not honor the adjustment.
        """
        ti = self.kernel.intern(task)
        if parents is None:
            flat = self._parents(ti)
        else:
            flat = self._flat_parents_from(task, parents)
        return self._eval_one(task, ti, proc, flat, insertion)

    def evaluate_all(
        self,
        task: TaskId,
        procs: Iterable[int] | None = None,
        insertion: bool | None = None,
    ) -> list[Candidate]:
        """Evaluate ``task`` on every processor (or the given subset).

        The batched sweep: parents are resolved and sorted once, then
        every processor is booked in one pass over the flat rows.
        """
        ti = self.kernel.intern(task)
        flat = self._parents(ti)
        procs = self.platform.processors if procs is None else procs
        return [self._eval_one(task, ti, proc, flat, insertion) for proc in procs]

    def best_candidate(
        self,
        task: TaskId,
        procs: Iterable[int] | None = None,
        insertion: bool | None = None,
    ) -> Candidate:
        """Minimum-EFT candidate; ties broken by start time then processor
        index (the paper's toy example sends ties to ``P0``).

        Sweeps the processors like :meth:`evaluate_all` but keeps only
        the running best, so the losing candidates cost no allocation
        at all.
        """
        ti = self.kernel.intern(task)
        flat = self._parents(ti)
        procs = self.platform.processors if procs is None else procs
        builder = self.builder
        booker = self.booker
        exec_row = self.kernel.exec_[ti]
        use_insertion = self.insertion if insertion is None else insertion
        rows_s, rows_e = builder.rows_s, builder.rows_e
        # Exact pruning bound: every candidate starts no earlier than
        # its latest parent finish, so ``maxpf + duration`` is a lower
        # bound on its finish.  A processor whose bound is *strictly*
        # above the incumbent finish cannot win (ties still evaluate —
        # they may win on start time), so skipping it never changes the
        # selected candidate.  On partially linked platforms pruning is
        # disabled: the one-hop bookers probe every (parent, proc) link
        # and raise PlatformError on a missing one, and skipping a
        # probe would skip that check too.
        prunable = self.kernel.all_links_finite
        maxpf = flat[-1][0] if flat else 0.0
        bf = bs = _INF
        bp = None
        stats = self._stats
        detail = stats is not None and _stage_detail()
        if detail:
            t_sweep = perf_counter()
        for proc in procs:
            duration = exec_row[proc]
            if prunable and maxpf + duration > bf:
                if stats is not None:
                    stats.inc("builder.prune.maxpf")
                continue
            ce = rows_e[proc]
            last = ce[-1] if ce else 0.0
            if prunable and not use_insertion and last + duration > bf:
                if stats is not None:
                    stats.inc("builder.prune.frontier")
                continue  # appended slots start no earlier than the frontier
            builder.gen += 1  # begin_trial
            if stats is not None:
                stats.inc("builder.candidates")
            if detail:
                t0 = perf_counter()
            est = booker.trial_est(flat, proc, bf if prunable else _INF, duration)
            if detail:
                stats.add_time("stage.seed", perf_counter() - t0)
            if prunable and est + duration > bf:
                if stats is not None:
                    stats.inc("builder.prune.abort")
                continue  # provably worse (possibly aborted mid-booking)
            if use_insertion:
                if detail:
                    t0 = perf_counter()
                start = row_next_fit(rows_s[proc], ce, est, duration)
                if detail:
                    stats.add_time("stage.gap", perf_counter() - t0)
            else:
                start = est if est >= last else last
            finish = start + duration
            if finish < bf or (
                finish == bf and (start < bs or (start == bs and proc < bp))
            ):
                bf, bs, bp = finish, start, proc
        if detail:
            stats.add_time("stage.sweep", perf_counter() - t_sweep)
        if bp is None:
            raise SchedulingError(f"no candidate processors for task {task!r}")
        return Candidate(task, bp, bs, bf)

    def _commit_comms(self, task: TaskId, ti: int, proc: int) -> float:
        """Re-derive and commit the task's message bookings + events.

        Returns the committed EST (latest arrival over all parents).
        """
        flat = self._parents(ti)
        builder = self.builder
        builder.gen += 1  # stale any tentative data: commit sees committed rows only
        out = self._ev_buf
        del out[:]
        est = self.booker.commit_est(flat, proc, out)
        if out:
            kernel = self.kernel
            tasks, esrc, edata = kernel.tasks, kernel.esrc, kernel.edata
            record = self.schedule.record_comm
            for e, q, r, start, dur, hop in out:
                record(tasks[esrc[e]], task, q, r, start, dur, edata[e], hop)
        return est

    def _place(self, task: TaskId, ti: int, proc: int, start: float, finish: float) -> None:
        if self._stats is not None:
            self._stats.inc("builder.commits")
        self.builder.book(proc, start, finish)
        self._proc_a[ti] = proc
        self._start_a[ti] = start
        self._finish_a[ti] = finish
        self.schedule.place(task, proc, start, finish)
        if self._place_log is not None:
            self._place_log.append(ti)

    def commit(self, candidate: Candidate) -> None:
        """Make a candidate permanent: comms, compute window, placement.

        Bookings are re-derived from the actual placements against the
        committed rows, which reproduces the evaluation's floats exactly
        under the commit contract (class docstring) — candidates
        evaluated with a hand-modified ``parents`` list are not
        committable.
        """
        task = candidate.task
        ti = self.kernel.intern(task)
        stats = self._stats
        detail = stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        self._commit_comms(task, ti, candidate.proc)
        self._place(task, ti, candidate.proc, candidate.start, candidate.finish)
        if detail:
            stats.add_time("stage.commit", perf_counter() - t0)

    def schedule_on(
        self, task: TaskId, proc: int, insertion: bool | None = None
    ) -> Candidate:
        """Evaluate-and-commit ``task`` on a fixed processor (one pass)."""
        ti = self.kernel.intern(task)
        builder = self.builder
        stats = self._stats
        detail = stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        est = self._commit_comms(task, ti, proc)
        if detail:
            stats.add_time("stage.commit", perf_counter() - t0)
        duration = self.kernel.exec_[ti][proc]
        if self.insertion if insertion is None else insertion:
            # committed transfer windows of this very task (no-overlap
            # model) all end at or before est, so the slot search sees
            # exactly what a tentative evaluation would have
            start = row_next_fit(builder.rows_s[proc], builder.rows_e[proc], est, duration)
        else:
            ce = builder.rows_e[proc]
            last = ce[-1] if ce else 0.0
            start = est if est >= last else last
        finish = start + duration
        self._place(task, ti, proc, start, finish)
        return Candidate(task, proc, start, finish)

    # ------------------------------------------------------------------
    # compute-row views (debugging / tests)
    # ------------------------------------------------------------------
    @property
    def compute(self):
        """Per-processor compute-row views with a Timeline-like surface."""
        views = self._compute_views
        if views is None:
            views = self._compute_views = [
                ComputeRowView(self.builder, p)
                for p in range(self.platform.num_processors)
            ]
        return views

    # ------------------------------------------------------------------
    # scratch runs (chunk-rescheduling variants) and snapshots
    # ------------------------------------------------------------------
    def mark(self):
        """Checkpoint; undo everything after it with :meth:`restore`.

        O(changed): while a mark is active every committed mutation
        appends one undo record to the builder's journal.
        """
        cursor = self.builder.mark()
        if self._place_log is None:
            self._place_log = []
        return (cursor, len(self._place_log), len(self.schedule.comm_events))

    def restore(self, mark) -> None:
        """Roll back to ``mark``, undoing bookings/placements/events."""
        cursor, place_cursor, events_len = mark
        stats = self._stats
        detail = stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        self.builder.rollback(cursor)
        if detail:
            stats.add_time("stage.journal", perf_counter() - t0)
        tasks = self.kernel.tasks
        log = self._place_log
        for ti in reversed(log[place_cursor:]):
            self._proc_a[ti] = -1
            task = tasks[ti]
            del self.schedule.placements[task]
        del log[place_cursor:]
        if self.builder.log is None:  # outermost mark resolved
            self._place_log = None
        del self.schedule.comm_events[events_len:]

    def snapshot(self) -> "SchedulerState":
        """Independent deep copy (prefer :meth:`mark`/:meth:`restore`)."""
        dup = object.__new__(type(self))
        dup.graph = self.graph
        dup.platform = self.platform
        dup.model = self.model
        dup.maps = self.maps
        dup.kernel = self.kernel  # immutable statics, shared
        dup.builder = self.builder.copy()
        dup.booker = self.booker.rebind(dup.builder)
        dup.schedule = Schedule(
            self.graph,
            self.platform,
            model=self.schedule.model,
            heuristic=self.schedule.heuristic,
            state_impl=self.schedule.state_impl,
        )
        dup.schedule.placements = dict(self.schedule.placements)
        dup.schedule.comm_events = list(self.schedule.comm_events)
        dup.insertion = self.insertion
        dup._proc_a = list(self._proc_a)
        dup._start_a = list(self._start_a)
        dup._finish_a = list(self._finish_a)
        dup._ev_buf = []
        dup._pcache = None
        dup._place_log = None
        dup._compute_views = None
        dup._stats = self._stats
        return dup


class ComputeRowView:
    """Timeline-like view over one builder compute row (committed layer)."""

    __slots__ = ("_builder", "_proc")

    def __init__(self, builder: FlatBuilder, proc: int) -> None:
        self._builder = builder
        self._proc = proc

    def is_empty(self) -> bool:
        return not self._builder.rows_s[self._proc]

    def last_end(self) -> float:
        ce = self._builder.rows_e[self._proc]
        return ce[-1] if ce else 0.0

    def intervals(self) -> list[tuple[float, float]]:
        return self._builder.committed(self._proc)

    def next_fit(self, ready: float, duration: float) -> float:
        return self._builder.next_fit(self._proc, ready, duration)

    def next_after_last(self, ready: float) -> float:
        return self._builder.next_after_last(self._proc, ready)

    def reserve(self, start: float, end: float, tag=None) -> None:
        self._builder.book(self._proc, start, end)

    def __len__(self) -> int:
        return len(self._builder.rows_s[self._proc])


def rank_by_key(tasks: Sequence[TaskId], key: PriorityKey) -> list[int]:
    """Priority rank of every task index under ``key`` (smaller = sooner).

    Ties on ``key`` break by task index, so ranks are a permutation of
    ``0 .. n-1`` and task ids themselves are never compared.
    """
    return rank_of(sorted(range(len(tasks)), key=lambda i: (key(tasks[i]), i)))


class ReadyQueue:
    """Ready tasks ordered by priority (a heap of integer ranks).

    ``rank[i]`` is the position of task ``i`` (graph insertion index) in
    the priority list — e.g. :meth:`SchedulerState.priority_rank`; pass
    ``key`` instead to derive it once with :func:`rank_by_key`.  Tracks
    the remaining in-degree of every task; :meth:`complete` marks a task
    finished and enqueues the children that became ready.
    """

    __slots__ = ("_rank", "_order", "_heap", "_remaining", "_succs", "_index")

    def __init__(
        self,
        graph: TaskGraph,
        key: PriorityKey | None = None,
        *,
        rank: Sequence[int] | None = None,
    ) -> None:
        maps = graph.as_maps()
        tasks = list(maps.index)
        if rank is None:
            if key is None:
                raise ConfigurationError("ReadyQueue needs a key or a rank")
            rank = rank_by_key(tasks, key)
        order = [None] * len(tasks)
        for i, r in enumerate(rank):
            order[r] = tasks[i]
        self._rank = rank
        self._order = order
        self._succs = maps.succs
        self._index = maps.index
        self._remaining = {v: len(maps.preds[v]) for v in tasks}
        self._heap = [rank[i] for i, v in enumerate(tasks) if not self._remaining[v]]
        heapq.heapify(self._heap)

    def _push(self, task: TaskId) -> None:
        heapq.heappush(self._heap, self._rank[self._index[task]])

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def pop(self) -> TaskId:
        """Highest-priority ready task."""
        return self._order[heapq.heappop(self._heap)]

    def pop_chunk(self, size: int) -> list[TaskId]:
        """Up to ``size`` highest-priority ready tasks, in priority order."""
        heap, order = self._heap, self._order
        out = []
        while heap and len(out) < size:
            out.append(order[heapq.heappop(heap)])
        return out

    def push_back(self, task: TaskId) -> None:
        """Return an unscheduled task to the queue (chunk leftovers)."""
        self._push(task)

    def complete(self, task: TaskId) -> list[TaskId]:
        """Mark ``task`` done; enqueue and return newly-ready children."""
        newly = []
        for child in self._succs[task]:
            self._remaining[child] -= 1
            if self._remaining[child] == 0:
                self._push(child)
                newly.append(child)
        return newly


class Scheduler(ABC):
    """Base class: a configured heuristic that schedules graphs."""

    #: Registry name; subclasses set this.
    name: str = ""

    @abstractmethod
    def run(
        self,
        graph: TaskGraph,
        platform: Platform,
        model: str | CommunicationModel = "one-port",
    ) -> Schedule:
        """Schedule ``graph`` on ``platform`` under ``model``."""

    def __call__(self, graph, platform, model="one-port") -> Schedule:
        return self.run(graph, platform, model)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, type[Scheduler]] = {}


def register_scheduler(cls: type[Scheduler]) -> type[Scheduler]:
    """Class decorator adding a scheduler to the global registry."""
    if not cls.name:
        raise ConfigurationError(f"{cls.__name__} has no registry name")
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"duplicate scheduler name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def available_schedulers() -> list[str]:
    """Names of all registered schedulers."""
    return sorted(_REGISTRY)
