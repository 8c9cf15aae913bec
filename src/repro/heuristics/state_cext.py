"""The compiled EFT engine — ``SchedulerState`` on the cext backend.

:class:`CextSchedulerState` routes every hot operation — parent
resolution, the all-processor candidate sweep with maxpf / frontier /
in-trial pruning, the model bookers' ``trial_est`` / ``commit_est``
fixed points (seed memo included), gap search, commit, and the undo
journal — through one :class:`repro.kernel._cext.Engine` instance: a C
struct of typed arrays with no Python objects in the inner loop.
:meth:`~CextSchedulerState.run_list` hands the engine the whole HEFT /
PCT / ILHA loop (ready heap, ILHA's Step 1, sweep, commit, release) as
one call.

The engine is the only record of placements and transfers: it keeps
them in commit-ordered logs (truncated by rollbacks), and the
:class:`~repro.core.schedule.Schedule` is materialized from those logs
in bulk when :attr:`~CextSchedulerState.schedule` is read — at the end
of a run, or mid-run by readers such as tests — appending only what
was committed since the previous read.  A FlatBuilder-shaped facade
keeps state introspection working for tests and debugging.

Bit-identity: the C engine transliterates the scalar reference
(``builder.py``, the flat bookers, ``SchedulerState``'s sweep) —
the same IEEE-754 double operations in the same order, the same strict
``(finish, start, proc)`` tie-break, the same guard-tolerance
arithmetic — so schedules match the python and numpy backends float
for float.  The cross-backend fuzz suite asserts this for every
registered heuristic × flat model × testbed.

Observability: the engine accumulates the booking counters internally
(one C increment instead of a Python dict update per event) and this
wrapper flushes the *deltas* into the active collector after each
public call, so stats-on runs see the exact counters the python path
emits while stats-off runs pay nothing.  With stage detail on,
:meth:`~CextSchedulerState.run_list` has the engine time its sweeps and
commits and reports them as ``stage.sweep`` / ``stage.commit``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from time import perf_counter

from ..core.exceptions import SchedulingError
from ..core.schedule import Schedule
from ..kernel import _cext
from ..kernel.cext_backend import engine_statics
from ..obs import stage_detail as _stage_detail
from .base import Candidate, SchedulerState

TaskId = Hashable


def _model_code(model) -> int | None:
    """The engine's booker code for ``model`` (``None`` = no C booker).

    Exact type match on purpose: the one-port variants subclass and
    *share* ``name = "one-port"``-style metadata, and a user subclass
    overriding a booker hook must not be silently routed to the C
    implementation of its base class.
    """
    from ..models.macro_dataflow import MacroDataflowModel
    from ..models.one_port import OnePortModel
    from ..models.variants import NoOverlapOnePortModel, UniPortModel

    t = type(model)
    if t is OnePortModel:
        return _cext.MODEL_ONE_PORT
    if t is MacroDataflowModel:
        return _cext.MODEL_MACRO
    if t is UniPortModel:
        return _cext.MODEL_UNI_PORT
    if t is NoOverlapOnePortModel:
        return _cext.MODEL_NO_OVERLAP
    return None


class _EngineBuilder:
    """FlatBuilder-shaped read surface over the engine (tests, repr).

    The hot path never goes through this object; it exists so state
    introspection written against ``state.builder`` (fingerprints,
    trial-generation checks, committed-row dumps) works unchanged on
    the compiled backend.
    """

    __slots__ = ("_eng",)

    def __init__(self, eng) -> None:
        self._eng = eng

    @property
    def gen(self) -> int:
        return self._eng.gen

    @property
    def commit_count(self) -> int:
        return self._eng.commit_count

    @property
    def num_rows(self) -> int:
        return self._eng.num_rows

    def fingerprint(self) -> tuple:
        return self._eng.fingerprint()

    def committed(self, r: int) -> list[tuple[float, float]]:
        return self._eng.committed(r)

    def next_fit(self, r: int, ready: float, duration: float) -> float:
        return self._eng.next_fit(r, ready, duration)

    def book(self, r: int, start: float, end: float) -> None:
        self._eng.book(r, start, end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        eng = self._eng
        booked = sum(eng.row_len(r) for r in range(eng.num_rows))
        return (
            f"EngineBuilder(rows={eng.num_rows}, intervals={booked}, "
            f"gen={eng.gen})"
        )


class _CextComputeRowView:
    """Timeline-like view over one engine compute row (committed layer)."""

    __slots__ = ("_eng", "_proc")

    def __init__(self, eng, proc: int) -> None:
        self._eng = eng
        self._proc = proc

    def is_empty(self) -> bool:
        return self._eng.row_len(self._proc) == 0

    def last_end(self) -> float:
        return self._eng.last_end(self._proc)

    def intervals(self) -> list[tuple[float, float]]:
        return self._eng.committed(self._proc)

    def next_fit(self, ready: float, duration: float) -> float:
        return self._eng.next_fit(self._proc, ready, duration)

    def next_after_last(self, ready: float) -> float:
        last = self._eng.last_end(self._proc)
        return ready if ready >= last else last

    def reserve(self, start: float, end: float, tag=None) -> None:
        self._eng.book(self._proc, start, end)

    def __len__(self) -> int:
        return self._eng.row_len(self._proc)


class CextSchedulerState(SchedulerState):
    """Scheduler state on the compiled engine (see module docstring)."""

    __slots__ = ("_eng", "_sched", "_synced")

    state_impl_name = "flat-cext"

    def _init_engine(self) -> None:
        code = _model_code(self.model)
        if code is None:
            # Flat-capable model without a C booker (e.g. a subclass
            # overriding a booking hook): run the inherited pure-Python
            # engine and record what actually ran.
            self._eng = None
            super()._init_engine()
            self._sched.state_impl = SchedulerState.state_impl_name
            return
        self._eng = eng = _cext.Engine(engine_statics(self.kernel), code)
        #: ``builder`` is a read facade over the engine so state
        #: introspection keeps working; there is no Python booker.
        self.builder = _EngineBuilder(eng)
        self.booker = None
        #: Engine (placement, event) log lengths already in ``_sched``.
        self._synced = (0, 0)

    # ------------------------------------------------------------------
    # the schedule, materialized from the engine's logs
    # ------------------------------------------------------------------
    @property
    def schedule(self) -> Schedule:
        """The schedule so far (bulk-appends the engine's new records)."""
        sched = self._sched
        eng = self._eng
        if eng is not None:
            placed, events = self._synced
            if placed != eng.num_placed or events != eng.num_events:
                eng.materialize(
                    self.kernel.tasks, sched.placements, sched.comm_events, placed, events
                )
                self._synced = (eng.num_placed, eng.num_events)
        return sched

    @schedule.setter
    def schedule(self, value: Schedule) -> None:
        self._sched = value

    # ------------------------------------------------------------------
    # counter drain
    # ------------------------------------------------------------------
    def _flush_counters(self) -> None:
        """Drain engine counter deltas into the active collector.

        The engine accumulates counters in C; draining only at the
        sync points that close out every construction step (commit,
        schedule_on, restore, run_list) keeps the evaluate fast path
        free of per-call stats traffic while every completed run still
        reports exact totals.
        """
        deltas = self._eng.drain_counters()
        if deltas is not None:
            inc = self._stats.inc
            for name, d in deltas.items():
                inc(name, d)

    # ------------------------------------------------------------------
    # list scheduling
    # ------------------------------------------------------------------
    def run_list(
        self,
        rank: Sequence[int],
        chunk: int = 1,
        limits: Sequence[Sequence[int]] | None = None,
    ) -> Schedule:
        eng = self._eng
        if eng is None:
            return super().run_list(rank, chunk, limits)
        if limits is not None:
            limits = [q for limit in limits for q in limit]
        stats = self._stats
        timed = stats is not None and _stage_detail()
        times = eng.run_list(rank, self.insertion, timed, chunk, limits)
        if stats is not None:
            self._flush_counters()
            if times is not None:
                sweep_s, sweeps, commit_s, commits = times
                if sweeps:
                    stats.add_time("stage.sweep", sweep_s, sweeps)
                if commits:
                    stats.add_time("stage.commit", commit_s, commits)
        return self.schedule

    # ------------------------------------------------------------------
    # EFT engine
    # ------------------------------------------------------------------
    def _parents(self, ti: int) -> list[tuple[float, int, int, int]]:
        if self._eng is None:
            return super()._parents(ti)
        return self._eng.parents(ti)

    def parent_procs(self, task: TaskId) -> set[int]:
        if self._eng is None:
            return super().parent_procs(task)
        return {row[3] for row in self._eng.parents(self.kernel.intern(task))}

    def evaluate(
        self,
        task: TaskId,
        proc: int,
        parents: Sequence[tuple[TaskId, int, float, float]] | None = None,
        insertion: bool | None = None,
    ) -> Candidate:
        eng = self._eng
        if eng is None:
            return super().evaluate(task, proc, parents, insertion)
        ti = self.kernel.intern(task)
        ins = self.insertion if insertion is None else insertion
        if parents is None:
            start, finish = eng.evaluate_one(ti, proc, ins)
        else:
            flat = self._flat_parents_from(task, parents)
            start, finish = eng.evaluate_with_parents(ti, proc, ins, flat)
        return Candidate(task, proc, start, finish)

    def evaluate_all(
        self,
        task: TaskId,
        procs: Iterable[int] | None = None,
        insertion: bool | None = None,
    ) -> list[Candidate]:
        eng = self._eng
        if eng is None:
            return super().evaluate_all(task, procs, insertion)
        ti = self.kernel.intern(task)
        ins = self.insertion if insertion is None else insertion
        if procs is not None and not isinstance(procs, (list, tuple, range)):
            procs = list(procs)
        rows = eng.evaluate_all(ti, ins, procs)
        return [Candidate(task, p, s, f) for p, s, f in rows]

    def best_candidate(
        self,
        task: TaskId,
        procs: Iterable[int] | None = None,
        insertion: bool | None = None,
    ) -> Candidate:
        eng = self._eng
        if eng is None:
            return super().best_candidate(task, procs, insertion)
        ti = self.kernel.intern(task)
        ins = self.insertion if insertion is None else insertion
        if procs is not None and not isinstance(procs, (list, tuple, range)):
            procs = list(procs)
        detail = self._stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        res = eng.best_candidate(ti, ins, procs)
        if detail:
            self._stats.add_time("stage.sweep", perf_counter() - t0)
        if res is None:
            raise SchedulingError(f"no candidate processors for task {task!r}")
        proc, start, finish = res
        return Candidate(task, proc, start, finish)

    # ------------------------------------------------------------------
    # commits
    # ------------------------------------------------------------------
    def commit(self, candidate: Candidate) -> None:
        eng = self._eng
        if eng is None:
            return super().commit(candidate)
        ti = self.kernel.intern(candidate.task)
        detail = self._stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        eng.commit(ti, candidate.proc, candidate.start, candidate.finish)
        if detail:
            self._stats.add_time("stage.commit", perf_counter() - t0)
        if self._stats is not None:
            self._flush_counters()

    def schedule_on(
        self, task: TaskId, proc: int, insertion: bool | None = None
    ) -> Candidate:
        eng = self._eng
        if eng is None:
            return super().schedule_on(task, proc, insertion)
        ti = self.kernel.intern(task)
        ins = self.insertion if insertion is None else insertion
        detail = self._stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        start, finish = eng.schedule_on(ti, proc, ins)
        if detail:
            self._stats.add_time("stage.commit", perf_counter() - t0)
        if self._stats is not None:
            self._flush_counters()
        return Candidate(task, proc, start, finish)

    # ------------------------------------------------------------------
    # compute-row views
    # ------------------------------------------------------------------
    @property
    def compute(self):
        if self._eng is None:
            return SchedulerState.compute.fget(self)
        views = self._compute_views
        if views is None:
            views = self._compute_views = [
                _CextComputeRowView(self._eng, p)
                for p in range(self.platform.num_processors)
            ]
        return views

    # ------------------------------------------------------------------
    # scratch runs and snapshots
    # ------------------------------------------------------------------
    def mark(self):
        if self._eng is None:
            return super().mark()
        return self._eng.mark()

    def restore(self, mark) -> None:
        eng = self._eng
        if eng is None:
            return super().restore(mark)
        _cursor, pcursor, ecursor = mark
        detail = self._stats is not None and _stage_detail()
        if detail:
            t0 = perf_counter()
        _entries, undone = eng.rollback(*mark)
        if detail:
            self._stats.add_time("stage.journal", perf_counter() - t0)
        # drop what was already materialized past the mark
        placed, events = self._synced
        if placed > pcursor:
            tasks = self.kernel.tasks
            placements = self._sched.placements
            for ti in undone[len(undone) - (placed - pcursor):]:
                del placements[tasks[ti]]
        if events > ecursor:
            del self._sched.comm_events[ecursor:]
        self._synced = (min(placed, pcursor), min(events, ecursor))
        if self._stats is not None:
            self._flush_counters()

    def snapshot(self) -> "CextSchedulerState":
        if self._eng is None:
            dup = super().snapshot()
            dup._eng = None
            return dup
        dup = object.__new__(type(self))
        dup.graph = self.graph
        dup.platform = self.platform
        dup.model = self.model
        dup.maps = self.maps
        dup.kernel = self.kernel  # immutable statics, shared
        dup._eng = self._eng.copy()  # with the placement and event logs
        dup.builder = _EngineBuilder(dup._eng)
        dup.booker = None
        sched = self._sched
        dup._sched = Schedule(
            self.graph,
            self.platform,
            model=sched.model,
            heuristic=sched.heuristic,
            state_impl=sched.state_impl,
        )
        dup._synced = (0, 0)
        dup.insertion = self.insertion
        dup._compute_views = None
        dup._stats = self._stats
        return dup
