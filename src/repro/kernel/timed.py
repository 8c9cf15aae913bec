"""Flat timed constraint DAG: the kernel's compile → propagate → patch core.

A :class:`TimedKernel` is the integer-indexed form of the constraint DAG
that :mod:`repro.simulate.replay` describes in prose: node ``i < n`` is
task ``i`` (kernel interning), node ``n + e`` is the *transfer slot* of
graph edge ``e``.  Every edge owns exactly one slot, **active** only
while the edge is remote under the current allocation — so moves that
localize or remote an edge never allocate or free nodes, they flip a
flag.

The three phases:

* **compile** — :meth:`from_decisions` (replay: arbitrary
  :class:`~repro.simulate.replay.ReplayDecisions` with direct transfers)
  or :meth:`from_point` (search: the canonical orders of a
  :class:`~repro.search.point.SearchPoint`) build the flat adjacency
  and duration arrays.  The two builders store complementary forms of
  the same DAG: ``from_decisions`` builds *successor* lists plus
  in-degrees (all a one-shot forward pass needs), while ``from_point``
  builds *predecessor* lists (what incremental patching needs);
* **propagate** — :meth:`propagate_kahn` / :meth:`propagate_order` run
  one forward pass over the int arrays, computing the component-wise
  least start/finish times (identical floats to the object-level
  replay: same ``max`` over the same operands, same single addition);
* **patch** — :meth:`patch` re-propagates only downstream of an
  invalidated node set into generation-stamped overlay arrays (no
  mutation), and :meth:`apply` folds one such overlay back into the
  base state in time proportional to the disturbance.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import isfinite

import numpy as np

from ..core.exceptions import PlatformError, SchedulingError
from .statics import KernelStatics


class KernelIneligible(Exception):
    """Raised by :meth:`TimedKernel.from_decisions` when the decision
    set is outside the kernel's domain (multi-hop or unknown-edge
    transfers); the caller falls back to the object-level replay."""


def _check_procs(alloc: list[int], num_procs: int) -> None:
    """Reject out-of-range processor indices with the Platform error.

    One C-speed min/max scan; without it, negative indices would wrap
    silently into the wrong ``exec_`` / ``link_rows`` entries where the
    object-level replay raises :class:`PlatformError`.
    """
    if alloc and (min(alloc) < 0 or max(alloc) >= num_procs):
        bad = next(p for p in alloc if not (0 <= p < num_procs))
        raise PlatformError(f"processor index {bad} out of range [0, {num_procs})")


@dataclass(slots=True)
class KernelPatch:
    """One patch's overlay results, ready for :meth:`TimedKernel.apply`.

    All node references are kernel node indices (``i < n`` tasks,
    ``n + e`` transfer slots).
    """

    #: Nodes re-timed by the patch, in visit (key) order.
    nodes: list[int]
    #: Overlay start/finish per entry of :attr:`nodes`.
    start: list[float]
    finish: list[float]
    #: Replacement predecessor lists (exactly the dirty nodes).
    new_preds: dict[int, list[int]]
    #: Replacement durations for nodes whose cost changed.
    new_dur: dict[int, float]
    #: Transfer slots deactivated by the patch (their edge became local).
    removed: set[int]
    #: Makespan of the patched state.
    makespan: float


class TimedKernel:
    """Flat timed constraint DAG of one decision set (see module docstring)."""

    __slots__ = (
        "statics",
        "alloc",
        "active",
        "num_active",
        "hop_list",
        "hop_procs",
        "dur",
        "preds",
        "succs",
        "indeg",
        "next_proc",
        "next_send",
        "next_recv",
        "start",
        "finish",
        "makespan",
        "_ov_start",
        "_ov_finish",
        "_ov_stamp",
        "_gen",
    )

    def __init__(self, statics: KernelStatics, with_preds: bool = False) -> None:
        n, m = statics.num_tasks, statics.num_edges
        self.statics = statics
        self.alloc: list[int] = [0] * n
        self.active = bytearray(m)
        self.num_active = 0
        #: Edge index per booked transfer, in decision insertion order
        #: (``from_decisions`` only; parallels ``decisions.hops.items()``).
        self.hop_list: list[int] = []
        #: ``(from_proc, to_proc)`` per entry of :attr:`hop_list` — the
        #: port pair each transfer occupies (online engine hook: a
        #: transfer activity seizes the send port of ``from_proc`` and
        #: the receive port of ``to_proc`` simultaneously).
        self.hop_procs: list[tuple[int, int]] = []
        self.dur: list[float] = [0.0] * (n + m)
        #: Predecessor lists (``from_point`` builds these; the one-shot
        #: ``from_decisions`` path builds :attr:`succs`/:attr:`indeg`).
        self.preds: list[list[int]] | None = (
            [[] for _ in range(n + m)] if with_preds else None
        )
        #: Dense successor lists (evaluator form; see :meth:`build_succs`).
        self.succs: list[list[int]] | None = None
        self.indeg: list[int] | None = None
        #: One-shot form (``from_decisions``): next task on the same
        #: processor per task, next transfer slot on the same send /
        #: receive port per edge (-1 = none); graph successors come from
        #: the statics CSR, so no per-replay adjacency is ever built.
        self.next_proc: list[int] | None = None
        self.next_send: list[int] | None = None
        self.next_recv: list[int] | None = None
        self.start: list[float] = [0.0] * (n + m)
        self.finish: list[float] = [0.0] * (n + m)
        self.makespan = 0.0
        self._ov_start: list[float] | None = None
        self._ov_finish: list[float] | None = None
        self._ov_stamp: list[int] | None = None
        self._gen = 0

    # ------------------------------------------------------------------
    # compile
    # ------------------------------------------------------------------
    @classmethod
    def from_decisions(cls, statics: KernelStatics, decisions) -> "TimedKernel":
        """Compile a direct-transfer :class:`ReplayDecisions` set.

        Builds the successor/in-degree form (all a one-shot
        :meth:`propagate_kahn` pass needs).  Raises
        :class:`KernelIneligible` on multi-hop or unknown-edge transfers
        (the caller falls back to the object-level replay); everything
        the object-level replay validates beyond that — missing tasks,
        local edges with transfers, remote edges without, inconsistent
        orders — is checked here with identical errors.
        """
        self = cls(statics)
        n, m = statics.num_tasks, statics.num_edges
        tindex = statics.tindex
        decided = decisions.alloc
        try:
            alloc = [decided[v] for v in statics.tasks]
        except KeyError:
            for v in statics.tasks:
                if v not in decided:
                    raise SchedulingError(f"decisions missing task {v!r}") from None
            raise  # pragma: no cover - unreachable
        _check_procs(alloc, statics.num_procs)
        self.alloc = alloc
        dur = self.dur
        dur[:n] = [row[p] for row, p in zip(statics.exec_, alloc)]

        active = self.active
        esrc, edst, edata = statics.esrc, statics.edst, statics.edata
        link_rows = statics.link_rows
        finite_links = statics.all_links_finite
        num_procs = statics.num_procs
        # The successor structure is implicit: graph successors come from
        # the statics CSR (shared, never rebuilt), and each decision
        # order contributes at most one "next" pointer per resource.
        # Task in-degrees start from the precomputed precedence count.
        indeg = statics.base_indeg + [0] * m
        self.indeg = indeg
        next_proc = self.next_proc = [-1] * n
        next_send = self.next_send = [-1] * m
        next_recv = self.next_recv = [-1] * m
        hop_list = self.hop_list
        hget = statics.hop0_node.get
        # identity-keyed shortcut for the port loops below: the order
        # lists reuse the exact key tuples of ``hops`` when extracted
        # from a schedule, so ``id()`` lookups skip tuple re-hashing
        node_by_id: dict[int, int] = {}
        for key, (a, b) in decisions.hops.items():
            node = hget(key)
            if node is None:
                u, v, hop = key
                raise KernelIneligible(f"transfer ({u!r}, {v!r}, {hop})")
            node_by_id[id(key)] = node
            e = node - n
            active[e] = 1
            hop_list.append(e)
            self.hop_procs.append((a, b))
            indeg[node] = 1
            if not (0 <= a < num_procs and 0 <= b < num_procs):
                # match Platform._check_proc (negative list indices would
                # silently wrap into the wrong link row otherwise)
                bad = a if not (0 <= a < num_procs) else b
                raise PlatformError(
                    f"processor index {bad} out of range [0, {num_procs})"
                )
            if a == b:
                dur[node] = 0.0
            elif finite_links:
                dur[node] = edata[e] * link_rows[a][b]
            else:
                cost = link_rows[a][b]
                if not isfinite(cost):
                    raise PlatformError(f"no direct link from P{a} to P{b}")
                dur[node] = edata[e] * cost
        self.num_active = len(hop_list)

        # every edge must be either local, or remote with a booked
        # transfer — one vectorized comparison; the python loop runs
        # only to pinpoint the offending edge for the error message
        al = np.asarray(alloc)
        remote = al[statics.esrc_np] != al[statics.edst_np]
        booked = np.frombuffer(active, dtype=np.uint8).astype(bool)
        if not np.array_equal(remote, booked):
            for e, src, consumer in zip(range(m), esrc, edst):
                if alloc[src] == alloc[consumer]:
                    if active[e]:
                        u, v = statics.edges[e]
                        raise SchedulingError(
                            f"edge {u!r}->{v!r} is local but has transfers"
                        )
                elif not active[e]:
                    u, v = statics.edges[e]
                    raise SchedulingError(f"remote edge {u!r}->{v!r} has no transfer")

        # row-level inline of KernelStatics.intern: identity listcomp
        # first, one equality listcomp for the whole row on any miss
        tid_get = statics.tid_index.get
        for tasks in decisions.proc_order.values():
            row = [tid_get(id(t)) for t in tasks]
            if None in row:
                row = [tindex[t] for t in tasks]
            for a, b in zip(row, row[1:]):
                if next_proc[a] >= 0:
                    # a task ordered on two processors: degenerate input,
                    # outside the one-next-pointer representation
                    raise KernelIneligible(f"task {tasks[0]!r} multiply ordered")
                next_proc[a] = b
                indeg[b] += 1
        nid_get = node_by_id.get
        for orders, nxt in (
            (decisions.send_order, next_send),
            (decisions.recv_order, next_recv),
        ):
            for keys in orders.values():
                nodes = [nid_get(id(k)) for k in keys]
                prev = -1
                for i, node in enumerate(nodes):
                    if node is None:
                        # identity miss (caller-built orders): equality
                        # lookup, then require the transfer to be booked —
                        # mirrors the object-level replay, which KeyErrors
                        # on port entries that are not booked transfers
                        node = hget(keys[i])
                        if node is None or not active[node - n]:
                            raise KeyError(keys[i])
                    elif not active[node - n]:
                        raise KeyError(keys[i])
                    if prev >= 0:
                        if nxt[prev] >= 0:
                            raise KernelIneligible("transfer multiply ordered")
                        nxt[prev] = node
                        indeg[node] += 1
                    prev = node - n
        return self

    @classmethod
    def from_point(cls, statics: KernelStatics, point) -> "TimedKernel":
        """Compile the canonical decision set of a ``SearchPoint``.

        Builds the predecessor form, which incremental patching needs;
        call :meth:`build_succs` before :meth:`patch`.
        """
        self = cls(statics, with_preds=True)
        n = statics.num_tasks
        tindex, eindex = statics.tindex, statics.eindex
        exec_, link_rows = statics.exec_, statics.link_rows
        edata, esrc, edst = statics.edata, statics.esrc, statics.edst
        alloc, dur, preds = self.alloc, self.dur, self.preds
        active = self.active
        finite_links = statics.all_links_finite

        point_alloc = point.alloc
        for i, v in enumerate(statics.tasks):
            alloc[i] = point_alloc[v]
        _check_procs(alloc, statics.num_procs)
        for i, p in enumerate(alloc):
            dur[i] = exec_[i][p]
        for e in range(statics.num_edges):
            a, b = alloc[esrc[e]], alloc[edst[e]]
            if a == b:
                preds[edst[e]].append(esrc[e])
            else:
                active[e] = 1
                cost = link_rows[a][b]
                if not finite_links and not isfinite(cost):
                    raise PlatformError(f"no direct link from P{a} to P{b}")
                dur[n + e] = edata[e] * cost
                preds[n + e].append(esrc[e])
                preds[edst[e]].append(n + e)
        for proc in range(statics.num_procs):
            row = point.proc_list(proc)
            for a, b in zip(row, row[1:]):
                preds[tindex[b]].append(tindex[a])
            for order in (point.send_list(proc), point.recv_list(proc)):
                prev = -1
                for u, v, _hop in order:
                    node = n + eindex[(u, v)]
                    if prev >= 0:
                        preds[node].append(prev)
                    prev = node
        self.num_active = sum(active)
        return self

    def build_succs(self) -> list[list[int]]:
        """Successor lists mirroring :attr:`preds` (built on demand)."""
        succs: list[list[int]] = [[] for _ in range(len(self.preds))]
        for node, plist in enumerate(self.preds):
            for p in plist:
                succs[p].append(node)
        self.succs = succs
        return succs

    # ------------------------------------------------------------------
    # propagate
    # ------------------------------------------------------------------
    def active_nodes(self) -> list[int]:
        """All live node indices: every task, every active transfer slot."""
        n = self.statics.num_tasks
        out = list(range(n))
        out.extend(n + e for e in range(self.statics.num_edges) if self.active[e])
        return out

    def one_shot_successors(self, node: int) -> list[int]:
        """Constraint successors of ``node`` in the one-shot form.

        Online-engine hook: enumerates the same successor set
        :meth:`propagate_kahn` walks — graph successors from the statics
        CSR (task nodes), the destination task (transfer slots), plus
        the next-pointer order edges — without materializing adjacency
        lists for the whole DAG.  Requires :meth:`from_decisions`.
        """
        st = self.statics
        n = st.num_tasks
        out: list[int] = []
        if node < n:
            active, edst = self.active, st.edst
            for e in st.succ_rows[node]:
                out.append(n + e if active[e] else edst[e])
            nxt = self.next_proc[node]
            if nxt >= 0:
                out.append(nxt)
        else:
            e = node - n
            out.append(st.edst[e])
            nxt = self.next_send[e]
            if nxt >= 0:
                out.append(nxt)
            nxt = self.next_recv[e]
            if nxt >= 0:
                out.append(nxt)
        return out

    def propagate_kahn(
        self,
        dur: list[float] | None = None,
        out_start: list[float] | None = None,
        out_finish: list[float] | None = None,
    ) -> float:
        """Full forward pass in Kahn order; raises on cyclic orders.

        Requires the one-shot form (:meth:`from_decisions`): successors
        are enumerated from the statics CSR plus the next-pointer
        arrays, and the max over each node's predecessors is fused into
        the in-degree decrement — ``est`` accumulates the running
        maximum of finished predecessors, which equals the object-level
        replay's ``max`` over the full predecessor list exactly (same
        operands, any order).

        Online-engine hook: ``dur`` substitutes observed durations for
        the compiled estimates, and ``out_start`` / ``out_finish``
        (full-size arrays) receive the resulting times without touching
        the base plan state — passing either leaves :attr:`start`,
        :attr:`finish`, and :attr:`makespan` unchanged.
        """
        st = self.statics
        n = st.num_tasks
        srows, edst = st.succ_rows, st.edst
        active = self.active
        if dur is None:
            dur = self.dur
        start = self.start if out_start is None else out_start
        finish = self.finish if out_finish is None else out_finish
        next_proc, next_send, next_recv = self.next_proc, self.next_send, self.next_recv
        indeg = self.indeg.copy()
        est = [0.0] * (n + st.num_edges)
        ready = [x for x in st.base_entries if not indeg[x]]
        push = ready.append
        total = n + self.num_active
        done = 0
        while ready:
            node = ready.pop()
            s = est[node]
            start[node] = s
            f = s + dur[node]
            finish[node] = f
            done += 1
            if node < n:
                for e in srows[node]:
                    nxt = n + e if active[e] else edst[e]
                    if f > est[nxt]:
                        est[nxt] = f
                    d = indeg[nxt] - 1
                    indeg[nxt] = d
                    if not d:
                        push(nxt)
                nxt = next_proc[node]
                if nxt >= 0:
                    if f > est[nxt]:
                        est[nxt] = f
                    d = indeg[nxt] - 1
                    indeg[nxt] = d
                    if not d:
                        push(nxt)
            else:
                e = node - n
                nxt = edst[e]
                if f > est[nxt]:
                    est[nxt] = f
                d = indeg[nxt] - 1
                indeg[nxt] = d
                if not d:
                    push(nxt)
                nxt = next_send[e]
                if nxt >= 0:
                    if f > est[nxt]:
                        est[nxt] = f
                    d = indeg[nxt] - 1
                    indeg[nxt] = d
                    if not d:
                        push(nxt)
                nxt = next_recv[e]
                if nxt >= 0:
                    if f > est[nxt]:
                        est[nxt] = f
                    d = indeg[nxt] - 1
                    indeg[nxt] = d
                    if not d:
                        push(nxt)
        if done != total:
            raise SchedulingError(
                "constraint DAG has a cycle: the decision orders are inconsistent"
            )
        ms = max(finish[:n], default=0.0)
        if finish is self.finish:
            self.makespan = ms
        return ms

    def propagate_order(self, order: list[int]) -> float:
        """Full forward pass over a pre-sorted topological node order."""
        preds, dur = self.preds, self.dur
        start, finish = self.start, self.finish
        for node in order:
            s = 0.0
            for p in preds[node]:
                f = finish[p]
                if f > s:
                    s = f
            start[node] = s
            finish[node] = s + dur[node]
        return self._scan_makespan()

    def _scan_makespan(self) -> float:
        n = self.statics.num_tasks
        self.makespan = max(self.finish[:n], default=0.0)
        return self.makespan

    # ------------------------------------------------------------------
    # patch
    # ------------------------------------------------------------------
    def patch(
        self,
        dirty: list[int],
        removed: set[int],
        new_preds: dict[int, list[int]],
        new_dur: dict[int, float],
        key_of,
    ) -> KernelPatch:
        """Overlay re-propagation downstream of ``dirty`` (no mutation).

        ``key_of`` maps a node index to an int every constraint edge of
        the *patched* DAG strictly increases, so processing a node after
        everything it depends on is guaranteed.  Requires
        :meth:`build_succs` to have run.
        """
        n = self.statics.num_tasks
        if self._ov_stamp is None:
            size = len(self.preds)
            self._ov_start = [0.0] * size
            self._ov_finish = [0.0] * size
            self._ov_stamp = [0] * size
        self._gen += 1
        gen = self._gen
        ov_start, ov_finish, ov_stamp = self._ov_start, self._ov_finish, self._ov_stamp
        preds, succs, dur = self.preds, self.succs, self.dur
        base_finish, active = self.finish, self.active

        heap = [(key_of(node), node) for node in dirty]
        heapify(heap)
        visited: list[int] = []
        while heap:
            _, node = heappop(heap)
            if ov_stamp[node] == gen:
                continue
            ov_stamp[node] = gen
            visited.append(node)
            plist = new_preds.get(node)
            if plist is None:
                plist = preds[node]
            s = 0.0
            for p in plist:
                f = ov_finish[p] if ov_stamp[p] == gen else base_finish[p]
                if f > s:
                    s = f
            d = new_dur.get(node)
            if d is None:
                d = dur[node]
            f = s + d
            ov_start[node] = s
            ov_finish[node] = f
            if (node >= n and not active[node - n]) or f != base_finish[node]:
                for succ in succs[node]:
                    if succ not in removed and ov_stamp[succ] != gen:
                        heappush(heap, (key_of(succ), succ))

        ms = 0.0
        for i in range(n):
            f = ov_finish[i] if ov_stamp[i] == gen else base_finish[i]
            if f > ms:
                ms = f
        return KernelPatch(
            nodes=visited,
            start=[ov_start[node] for node in visited],
            finish=[ov_finish[node] for node in visited],
            new_preds=new_preds,
            new_dur=new_dur,
            removed=removed,
            makespan=ms,
        )

    def apply(self, patch: KernelPatch) -> float:
        """Fold a patch into the base state; cost ~ size of the change."""
        n = self.statics.num_tasks
        preds, succs, active = self.preds, self.succs, self.active
        for node in patch.removed:
            for p in preds[node]:
                if p not in patch.removed:
                    succs[p].remove(node)
            preds[node] = []
            succs[node] = []
            active[node - n] = 0
        for node, plist in patch.new_preds.items():
            for p in preds[node]:
                if p not in patch.removed:
                    succs[p].remove(node)
            preds[node] = list(plist)
            for p in plist:
                succs[p].append(node)
            if node >= n:
                active[node - n] = 1
        for node, d in patch.new_dur.items():
            self.dur[node] = d
        start, finish = self.start, self.finish
        for i, node in enumerate(patch.nodes):
            start[node] = patch.start[i]
            finish[node] = patch.finish[i]
        self.makespan = patch.makespan
        return self.makespan
