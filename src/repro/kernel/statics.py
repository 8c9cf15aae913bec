"""Static flat arrays of one (graph, platform) pair — the kernel's interning layer.

:class:`KernelStatics` freezes everything about a scheduling instance
that does not depend on decisions into contiguous, integer-indexed
structures:

* **task interning** — task ids map to ``0 .. n-1`` in graph insertion
  order (the same order as :meth:`TaskGraph.task_index`), with the
  inverse in :attr:`tasks`;
* **edge interning** — graph edges map to ``0 .. E-1`` in edge insertion
  order, with int endpoints in :attr:`esrc` / :attr:`edst` and volumes
  in :attr:`edata`;
* **CSR adjacency** — :attr:`pred_ptr` / :attr:`pred_eix` (and the
  ``succ_*`` mirror) store, for each task, the *edge indices* of its
  incoming (outgoing) edges contiguously, so one index hop reaches both
  the neighbor task and the edge's data volume;
* **cost tables** — :attr:`exec_` is the ``n x p`` execution-time table
  (``weight[i] * cycle_time[q]``) and :attr:`link_rows` the ``p x p``
  per-item link matrix as plain Python sequences (no per-lookup numpy
  scalar boxing); ``link_rows`` is the platform's own frozen table, so
  a platform cannot be mutated out from under a compiled statics.

Statics are cached per (graph, platform) on the graph itself (see
:func:`compile_statics`) and invalidated on graph mutation, so replay,
the incremental evaluator, and the list heuristics all share one
compilation.  The Section 4.1 bottom levels and the list heuristics'
priority rank are computed lazily over the CSR arrays and cached here
too (:meth:`KernelStatics.bottom_levels`,
:meth:`KernelStatics.priority_rank`).
"""

from __future__ import annotations

import math
from collections.abc import Hashable

import numpy as np

from ..core.exceptions import PlatformError
from ..core.platform import Platform
from ..core.ranking import bottom_levels_indexed, rank_of
from ..core.taskgraph import TaskGraph

TaskId = Hashable


class KernelStatics:
    """Interned flat view of one (graph, platform) pair (immutable)."""

    __slots__ = (
        "graph",
        "platform",
        "num_tasks",
        "num_edges",
        "num_procs",
        "num_nodes",
        "tasks",
        "tindex",
        "tid_index",
        "weights",
        "edges",
        "eindex",
        "esrc",
        "edst",
        "esrc_np",
        "edst_np",
        "edata",
        "all_links_finite",
        "pred_ptr",
        "pred_eix",
        "succ_ptr",
        "succ_eix",
        "succ_rows",
        "pred_rows",
        "_hop0_node",
        "topo_ix",
        "base_indeg",
        "base_entries",
        "exec_",
        "exec_np",
        "link_rows",
        "_cext",
        "_bl",
        "_prio",
        "_rank",
    )

    def __init__(self, graph: TaskGraph, platform: Platform) -> None:
        maps = graph.as_maps()
        self.graph = graph
        self.platform = platform

        # -- task interning (graph insertion order, = maps.index) ------
        self.tasks: list[TaskId] = list(maps.index)
        self.tindex: dict[TaskId, int] = dict(maps.index)
        #: Identity-keyed mirror of :attr:`tindex`.  Decision structures
        #: built from a schedule reference the graph's own task objects,
        #: so hot loops can intern by ``id()`` (int hash) instead of
        #: re-hashing arbitrary task ids; a miss falls back to
        #: :attr:`tindex`.  Keys stay valid because :attr:`tasks` keeps
        #: every object alive for the statics' lifetime.
        self.tid_index: dict[int, int] = {id(v): i for i, v in enumerate(self.tasks)}
        tindex = self.tindex
        n = len(self.tasks)
        self.num_tasks = n
        self.weights: list[float] = [maps.weight[v] for v in self.tasks]

        # -- edge interning (edge insertion order) ----------------------
        self.edges: list[tuple[TaskId, TaskId]] = list(maps.data)
        self.eindex: dict[tuple[TaskId, TaskId], int] = {
            e: i for i, e in enumerate(self.edges)
        }
        self.esrc: list[int] = [tindex[u] for u, _ in self.edges]
        self.edst: list[int] = [tindex[v] for _, v in self.edges]
        self.esrc_np = np.array(self.esrc, dtype=np.intp)
        self.edst_np = np.array(self.edst, dtype=np.intp)
        self.edata: list[float] = [maps.data[e] for e in self.edges]
        m = len(self.edges)
        self.num_edges = m
        #: Constraint-DAG node universe: tasks ``0..n-1`` then one fixed
        #: transfer slot per edge at ``n + e`` (active only while remote).
        self.num_nodes = n + m

        # -- CSR adjacency over edge indices ----------------------------
        #: Row views of the CSR arrays: ``succ_rows[i]`` / ``pred_rows[i]``
        #: are the edge indices leaving / entering task ``i``, in edge
        #: order.  Built once so hot loops iterate plain lists with no
        #: per-call slicing.
        self.succ_rows: list[list[int]] = [[] for _ in range(n)]
        self.pred_rows: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(zip(self.esrc, self.edst)):
            self.succ_rows[u].append(e)
            self.pred_rows[v].append(e)
        indeg = [len(row) for row in self.pred_rows]
        self.pred_ptr = self._ptr(indeg)
        self.succ_ptr = self._ptr([len(row) for row in self.succ_rows])
        self.pred_eix = [e for row in self.pred_rows for e in row]
        self.succ_eix = [e for row in self.succ_rows for e in row]
        self._hop0_node: dict[tuple, int] | None = None

        #: The graph's deterministic topological order, interned.
        self.topo_ix: list[int] = [tindex[v] for v in graph.topological_order()]
        #: Precedence in-degree per task.  Each graph edge contributes
        #: exactly one constraint predecessor to its consumer — the
        #: source task when local, the transfer slot when remote — so
        #: this is the constraint-DAG in-degree before order edges.
        self.base_indeg: list[int] = indeg
        #: Entry tasks (no precedence predecessor): the only candidates
        #: for in-degree zero once order edges are added.
        self.base_entries: list[int] = [i for i in range(n) if not indeg[i]]

        # -- cost tables -------------------------------------------------
        cts = platform.cycle_times
        self.num_procs = platform.num_processors
        #: ``n x p`` execution times ``weight[i] * cycle_time[q]`` (one
        #: IEEE double product each, as Python would compute it), with
        #: the plain-list copy the scalar hot loops index.
        self.exec_np = np.multiply.outer(
            np.array(self.weights, dtype=np.float64), np.array(cts, dtype=np.float64)
        ).reshape(n, len(cts))
        self.exec_: list[list[float]] = self.exec_np.tolist()
        self.link_rows: tuple[tuple[float, ...], ...] = platform.link_rows()
        #: True when every link is finite: hot loops skip the per-edge
        #: ``isfinite`` guard that partially connected platforms need.
        self.all_links_finite: bool = platform.is_fully_connected()
        #: Lazily-built flattened mirror for the compiled backend (see
        #: :func:`repro.kernel.cext_backend.engine_statics`).
        self._cext = None
        self._bl: list[float] | None = None
        self._prio: list[int] | None = None
        self._rank: list[int] | None = None

    # ------------------------------------------------------------------
    # priorities (Section 4.1), cached with the statics
    # ------------------------------------------------------------------
    def bottom_levels(self) -> list[float]:
        """Bottom level of every task, by task index (cached; do not mutate)."""
        bl = self._bl
        if bl is None:
            platform = self.platform
            bl = self._bl = bottom_levels_indexed(
                self.topo_ix,
                self.succ_rows,
                self.edst,
                self.edata,
                self.weights,
                platform.average_cycle_time(),
                platform.average_link_time(),
            )
        return bl

    def priority_list(self) -> list[int]:
        """Task indices by decreasing bottom level, ties by index (cached)."""
        prio = self._prio
        if prio is None:
            # a stable sort keeps equal levels in index order, also reversed
            prio = self._prio = sorted(
                range(self.num_tasks), key=self.bottom_levels().__getitem__, reverse=True
            )
        return prio

    def priority_rank(self) -> list[int]:
        """Position of every task in :meth:`priority_list` (cached)."""
        rank = self._rank
        if rank is None:
            rank = self._rank = rank_of(self.priority_list())
        return rank

    @property
    def hop0_node(self) -> dict[tuple, int]:
        """Direct-transfer lookup: ``(src, dst, 0)`` -> transfer-slot node
        index ``n + e`` (exactly the hop keys the one-port model books);
        built on first use."""
        hop0 = self._hop0_node
        if hop0 is None:
            n = self.num_tasks
            hop0 = self._hop0_node = {
                (u, v, 0): n + e for e, (u, v) in enumerate(self.edges)
            }
        return hop0

    @staticmethod
    def _ptr(degrees: list[int]) -> list[int]:
        ptr = [0] * (len(degrees) + 1)
        for i, d in enumerate(degrees):
            ptr[i + 1] = ptr[i] + d
        return ptr

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def intern(self, task: TaskId) -> int:
        """Kernel index of ``task``: identity fast path, equality fallback.

        The ``id()`` lookup is valid because :attr:`tasks` keeps every
        task object alive for the statics' lifetime; callers holding the
        graph's own task objects (schedules, decisions, points) hit it
        without re-hashing arbitrary ids.  Hot loops that intern whole
        rows may inline the same two-step pattern — keep any copy
        faithful to this method.
        """
        i = self.tid_index.get(id(task))
        if i is None:
            i = self.tindex[task]
        return i

    # ------------------------------------------------------------------
    # derived costs
    # ------------------------------------------------------------------
    def comm_dur(self, e: int, src_proc: int, dst_proc: int) -> float:
        """Transfer time of edge ``e`` between two processors.

        Matches :meth:`Platform.comm_time`: zero when co-located, raises
        :class:`PlatformError` when the processors are not directly
        linked (the routed model handles those — outside the kernel).
        """
        if src_proc == dst_proc:
            return 0.0
        cost = self.link_rows[src_proc][dst_proc]
        if not math.isfinite(cost):
            raise PlatformError(f"no direct link from P{src_proc} to P{dst_proc}")
        return self.edata[e] * cost

    def pred_edges(self, ti: int) -> list[int]:
        """Edge indices entering task ``ti``."""
        return self.pred_eix[self.pred_ptr[ti] : self.pred_ptr[ti + 1]]

    def succ_edges(self, ti: int) -> list[int]:
        """Edge indices leaving task ``ti``."""
        return self.succ_eix[self.succ_ptr[ti] : self.succ_ptr[ti + 1]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelStatics(tasks={self.num_tasks}, edges={self.num_edges}, "
            f"procs={self.num_procs})"
        )


def compile_statics(graph: TaskGraph, platform: Platform) -> KernelStatics:
    """The cached :class:`KernelStatics` of ``(graph, platform)``.

    The cache lives on the graph (cleared when the graph mutates) and is
    keyed by platform identity — platforms are immutable, so one entry
    per distinct platform object ever paired with the graph.
    """
    cache = graph._kernel_cache
    if cache is None:
        cache = graph._kernel_cache = {}
    statics = cache.get(platform)
    if statics is None:
        statics = cache[platform] = KernelStatics(graph, platform)
    return statics
