"""Directed acyclic task graphs with computation and communication costs.

This module implements the application model of the paper (Section 2.1):
a directed vertex-weighted edge-weighted acyclic graph ``G = (V, E, w, c)``
where ``w(v)`` is the number of computation cycles of task ``v`` and
``data(u, v)`` is the number of data items sent from ``u`` to ``v`` once
``u`` completes.

The class wraps :class:`networkx.DiGraph` so users can interoperate with
the networkx ecosystem (drawing, graph algorithms) while the scheduling
code gets a stable, validated interface with cached traversal orders.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any, NamedTuple

import networkx as nx

from .exceptions import GraphError

#: Node attribute storing the computation cost of a task.
WEIGHT_KEY = "weight"
#: Edge attribute storing the communication volume of a dependence.
DATA_KEY = "data"

TaskId = Hashable


def _cost(value: float, what: str) -> float:
    """``value`` as a float, or :class:`GraphError` unless finite and >= 0."""
    value = float(value)
    if not (value >= 0 and math.isfinite(value)):
        raise GraphError(f"{what} must be finite and >= 0, got {value}")
    return value


class GraphMaps(NamedTuple):
    """Plain-dict snapshot of a task graph for tight scheduling loops.

    Heuristics iterate over parents/children of thousands of tasks;
    going through networkx attribute dictionaries each time dominates
    the profile, so :meth:`TaskGraph.as_maps` exposes the graph as flat
    dictionaries built once (and invalidated on mutation).
    """

    weight: dict[TaskId, float]
    data: dict[tuple[TaskId, TaskId], float]
    preds: dict[TaskId, tuple[TaskId, ...]]
    succs: dict[TaskId, tuple[TaskId, ...]]
    index: dict[TaskId, int]


class TaskGraph:
    """A weighted DAG of tasks.

    Parameters
    ----------
    graph:
        Optional existing :class:`networkx.DiGraph` whose nodes carry a
        ``weight`` attribute and whose edges carry a ``data`` attribute.
        The graph is copied, validated, and frozen inside this wrapper.
    name:
        Optional human-readable name (testbed generators set this).

    Notes
    -----
    * Task identifiers may be any hashable object; generators in
      :mod:`repro.graphs` use strings or tuples.
    * Weights must be non-negative finite numbers.  Zero-weight tasks are
      allowed — the COMM-SCHED reduction of the paper's appendix uses them.
    * The graph must be acyclic.  :meth:`validate` checks it through the
      cached topological order, so repeated checks are free until the
      next mutation.
    """

    __slots__ = ("_g", "_name", "_topo", "_index", "_maps", "_kernel_cache")

    def __init__(self, graph: nx.DiGraph | None = None, name: str = "taskgraph"):
        self._g = nx.DiGraph()
        self._name = name
        self._topo: tuple[TaskId, ...] | None = None
        self._index: dict[TaskId, int] | None = None
        self._maps: GraphMaps | None = None
        #: Per-platform :class:`repro.kernel.KernelStatics` cache, owned
        #: by :func:`repro.kernel.compile_statics`; cleared on mutation.
        self._kernel_cache: dict | None = None
        if graph is not None:
            for node, attrs in graph.nodes(data=True):
                self.add_task(node, attrs.get(WEIGHT_KEY, 1.0))
            for u, v, attrs in graph.edges(data=True):
                self.add_dependency(u, v, attrs.get(DATA_KEY, 0.0))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: TaskId, weight: float = 1.0) -> TaskId:
        """Add a task with computation cost ``weight``; returns the id."""
        weight = _cost(weight, f"task {task!r}: weight")
        if task in self._g:
            raise GraphError(f"duplicate task id {task!r}")
        self._g.add_node(task, **{WEIGHT_KEY: weight})
        self._invalidate()
        return task

    def add_dependency(self, src: TaskId, dst: TaskId, data: float = 0.0) -> None:
        """Add a precedence edge ``src -> dst`` carrying ``data`` items."""
        data = _cost(data, f"edge {src!r}->{dst!r}: data")
        for node in (src, dst):
            if node not in self._g:
                raise GraphError(f"unknown task {node!r} in edge {src!r}->{dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on task {src!r}")
        if self._g.has_edge(src, dst):
            raise GraphError(f"duplicate edge {src!r}->{dst!r}")
        self._g.add_edge(src, dst, **{DATA_KEY: data})
        self._invalidate()

    def set_weight(self, task: TaskId, weight: float) -> None:
        """Replace the computation cost of ``task``."""
        if task not in self._g:
            raise GraphError(f"unknown task {task!r}")
        self._g.nodes[task][WEIGHT_KEY] = _cost(weight, f"task {task!r}: weight")
        self._invalidate()

    def set_data(self, src: TaskId, dst: TaskId, data: float) -> None:
        """Replace the communication volume of edge ``src -> dst``."""
        if not self._g.has_edge(src, dst):
            raise GraphError(f"unknown edge {src!r}->{dst!r}")
        self._g.edges[src, dst][DATA_KEY] = _cost(data, f"edge {src!r}->{dst!r}: data")
        self._invalidate()

    def scale_data(self, factor: float) -> "TaskGraph":
        """Multiply every edge's data volume by ``factor`` (in place)."""
        factor = _cost(factor, "scale factor")
        for u, v in self._g.edges:
            self._g.edges[u, v][DATA_KEY] *= factor
        self._invalidate()
        return self

    def _invalidate(self) -> None:
        self._topo = None
        self._index = None
        self._maps = None
        self._kernel_cache = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_tasks(self) -> int:
        return self._g.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._g.number_of_edges()

    def __len__(self) -> int:
        return self._g.number_of_nodes()

    def __contains__(self, task: TaskId) -> bool:
        return task in self._g

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._g.nodes)

    def tasks(self) -> Iterator[TaskId]:
        """Iterate over task identifiers (insertion order)."""
        return iter(self._g.nodes)

    def edges(self) -> Iterator[tuple[TaskId, TaskId]]:
        """Iterate over dependence edges."""
        return iter(self._g.edges)

    def weight(self, task: TaskId) -> float:
        """Computation cost ``w(task)``."""
        try:
            return self._g.nodes[task][WEIGHT_KEY]
        except KeyError:
            raise GraphError(f"unknown task {task!r}") from None

    def data(self, src: TaskId, dst: TaskId) -> float:
        """Communication volume ``data(src, dst)``."""
        try:
            return self._g.edges[src, dst][DATA_KEY]
        except KeyError:
            raise GraphError(f"unknown edge {src!r}->{dst!r}") from None

    def has_edge(self, src: TaskId, dst: TaskId) -> bool:
        return self._g.has_edge(src, dst)

    def predecessors(self, task: TaskId) -> list[TaskId]:
        """Immediate predecessors (parents) of ``task``."""
        if task not in self._g:
            raise GraphError(f"unknown task {task!r}")
        return list(self._g.predecessors(task))

    def successors(self, task: TaskId) -> list[TaskId]:
        """Immediate successors (children) of ``task``."""
        if task not in self._g:
            raise GraphError(f"unknown task {task!r}")
        return list(self._g.successors(task))

    def in_degree(self, task: TaskId) -> int:
        return self._g.in_degree(task)

    def out_degree(self, task: TaskId) -> int:
        return self._g.out_degree(task)

    def entry_tasks(self) -> list[TaskId]:
        """Tasks with no predecessor, in insertion order."""
        return [v for v in self._g.nodes if self._g.in_degree(v) == 0]

    def exit_tasks(self) -> list[TaskId]:
        """Tasks with no successor, in insertion order."""
        return [v for v in self._g.nodes if self._g.out_degree(v) == 0]

    def total_weight(self) -> float:
        """Sum of all task weights (the paper's ``W`` for the whole graph)."""
        return sum(self._g.nodes[v][WEIGHT_KEY] for v in self._g.nodes)

    def total_data(self) -> float:
        """Sum of all edge data volumes."""
        return sum(self._g.edges[e][DATA_KEY] for e in self._g.edges)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`GraphError` unless the graph is a DAG.

        A graph is valid exactly when its topological order exists, so
        this is free while the cached order is (until the next mutation).
        """
        if self._topo is None:
            self.topological_order()

    def topological_order(self) -> tuple[TaskId, ...]:
        """A deterministic topological order (cached).

        Kahn's algorithm with a min-heap of insertion indices: among the
        ready tasks the earliest-inserted always goes first, so repeated
        calls — and therefore every heuristic built on top — are fully
        deterministic regardless of hash randomization.  Raises
        :class:`GraphError` naming a cycle when the graph has one.
        """
        if self._topo is None:
            maps = self.as_maps()
            index, succs = maps.index, maps.succs
            tasks = list(index)
            remaining = [len(maps.preds[v]) for v in tasks]
            heap = [i for i, d in enumerate(remaining) if not d]  # sorted: a heap
            order = []
            while heap:
                task = tasks[heapq.heappop(heap)]
                order.append(task)
                for child in succs[task]:
                    j = index[child]
                    remaining[j] -= 1
                    if not remaining[j]:
                        heapq.heappush(heap, j)
            if len(order) < len(tasks):
                cycle = nx.find_cycle(self._g)
                raise GraphError(f"task graph contains a cycle: {cycle}")
            self._topo = tuple(order)
        return self._topo

    def task_index(self) -> Mapping[TaskId, int]:
        """Stable integer index of each task (insertion order); cached."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self._g.nodes)}
        return self._index

    def as_maps(self) -> GraphMaps:
        """Flat-dict snapshot for tight loops (cached; see :class:`GraphMaps`)."""
        if self._maps is None:
            g = self._g
            succs = {}
            data = {}
            for u, nbrs in g.adjacency():  # node order, then edge order
                succs[u] = tuple(nbrs)
                for v, attrs in nbrs.items():
                    data[(u, v)] = attrs[DATA_KEY]
            self._maps = GraphMaps(
                weight=dict(g.nodes(data=WEIGHT_KEY)),
                data=data,
                # the reverse view's adjacency is the raw predecessor dicts
                preds={v: tuple(nbrs) for v, nbrs in g.reverse(copy=False).adjacency()},
                succs=succs,
                index={v: i for i, v in enumerate(g)},
            )
        return self._maps

    def levels(self) -> list[list[TaskId]]:
        """Iso-levels: groups of tasks sharing the same *depth*.

        The depth of a task is the length (in edges) of the longest path
        from any entry task.  This is the "same top-level" level
        decomposition used by the first version of ILHA (Section 4.2):
        level 0 holds the entry tasks, level ``i+1`` the tasks that become
        ready once level ``i`` completes.
        """
        depth: dict[TaskId, int] = {}
        for v in self.topological_order():
            preds = list(self._g.predecessors(v))
            depth[v] = 0 if not preds else 1 + max(depth[p] for p in preds)
        if not depth:
            return []
        buckets: list[list[TaskId]] = [[] for _ in range(max(depth.values()) + 1)]
        for v in self.topological_order():
            buckets[depth[v]].append(v)
        return buckets

    # ------------------------------------------------------------------
    # interoperability
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """A copy of the underlying :class:`networkx.DiGraph`."""
        return self._g.copy()

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible serialization (ids converted to strings)."""
        return {
            "name": self._name,
            "tasks": [{"id": repr(v), "weight": self.weight(v)} for v in self._g.nodes],
            "edges": [
                {"src": repr(u), "dst": repr(v), "data": self.data(u, v)}
                for u, v in self._g.edges
            ],
        }

    @classmethod
    def from_specs(
        cls,
        tasks: Iterable[tuple[TaskId, float]],
        edges: Iterable[tuple[TaskId, TaskId, float]],
        name: str = "taskgraph",
    ) -> "TaskGraph":
        """Build a graph from ``(id, weight)`` and ``(src, dst, data)`` specs."""
        g = cls(name=name)
        for task, weight in tasks:
            g.add_task(task, weight)
        for src, dst, data in edges:
            g.add_dependency(src, dst, data)
        g.validate()
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskGraph(name={self._name!r}, tasks={self.num_tasks}, "
            f"edges={self.num_edges}, total_weight={self.total_weight():g})"
        )
