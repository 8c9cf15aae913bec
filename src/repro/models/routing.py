"""One-port scheduling over sparse topologies with static routing.

Section 4.3 of the paper notes that the model "can easily be extended to
the case where the interconnection network is such that messages must be
routed between some processor pairs: if there is no direct link from P2
to P1, we redo the previous step for all intermediate messages between
adjacent processors."  This module implements exactly that extension:

* the platform's link matrix may contain ``inf`` for missing links;
* a static routing table is precomputed (shortest paths by link cost,
  ties broken deterministically), matching the fully static routing of
  the related work by Sinnen & Sousa;
* a logical transfer becomes a chain of store-and-forward hops, each
  individually subject to the one-port rule on its own endpoints, and
  each hop leaving no earlier than the previous hop's arrival.

Intermediate processors relay with their ports only — relaying does not
occupy their compute rows (communication/computation overlap).

:class:`RoutedFlatBooker` is that loop over the one-port send/recv rows
of a :class:`~repro.kernel.builder.FlatBuilder`; the compiled engine
mirrors it over the same route table, passed in CSR form
(:meth:`RoutedOnePortModel.route_csr`).
"""

from __future__ import annotations

import heapq
import math

import networkx as nx

from ..core.exceptions import PlatformError
from ..core.platform import Platform
from ..core.validation import ONE_PORT
from .base import CommunicationModel, FlatBooker, register_model

_INF = float("inf")


def build_routing_table(platform: Platform) -> dict[tuple[int, int], list[int]]:
    """Static routes between every ordered processor pair.

    Each route is the node sequence ``[src, ..., dst]`` of a minimum
    total-link-cost path (hop count breaks ties, then lexicographic node
    order, so routes are deterministic).  Raises
    :class:`~repro.core.exceptions.PlatformError` if some pair is
    unreachable.
    """
    g = nx.DiGraph()
    g.add_nodes_from(platform.processors)
    for q in platform.processors:
        for r in platform.processors:
            if q != r and math.isfinite(platform.link_matrix[q, r]):
                g.add_edge(q, r, cost=float(platform.link_matrix[q, r]))

    table: dict[tuple[int, int], list[int]] = {}
    for src in platform.processors:
        # Dijkstra with deterministic tie-breaking on (cost, hops, path).
        paths: dict[int, tuple[float, int, list[int]]] = {src: (0.0, 0, [src])}
        frontier = [(0.0, 0, [src], src)]
        while frontier:
            cost, hops, path, node = heapq.heappop(frontier)
            if paths.get(node, (math.inf,))[0] < cost:
                continue
            for nxt in sorted(g.successors(node)):
                ncost = cost + g.edges[node, nxt]["cost"]
                cand = (ncost, hops + 1, path + [nxt])
                if nxt not in paths or cand < paths[nxt]:
                    paths[nxt] = cand
                    heapq.heappush(frontier, (*cand, nxt))
        for dst in platform.processors:
            if dst == src:
                table[(src, dst)] = [src]
            elif dst in paths:
                table[(src, dst)] = paths[dst][2]
            else:
                raise PlatformError(f"no route from P{src} to P{dst}")
    return table


class RoutedFlatBooker(FlatBooker):
    """Store-and-forward bookings: the one-port rule once per route hop.

    Per remote parent the message walks ``routes[(q, proc)]``: each hop
    ``a -> b`` takes the earliest window at or after the previous hop's
    arrival that is free on ``a``'s send row and ``b``'s receive row
    (both layers), and books it there.  A zero-duration hop books
    nothing and leaves the arrival time unchanged, but still records a
    zero-length event.
    """

    __slots__ = ("builder", "send0", "recv0", "edata", "links", "routes")

    def __init__(self, builder, statics, routes) -> None:
        p = statics.num_procs
        self.builder = builder
        self.send0 = builder.new_rows(p)
        self.recv0 = builder.new_rows(p)
        self.edata = statics.edata
        self.links = statics.link_rows
        self.routes = routes

    def rebind(self, builder) -> "RoutedFlatBooker":
        dup = object.__new__(RoutedFlatBooker)
        dup.builder = builder
        dup.send0 = self.send0
        dup.recv0 = self.recv0
        dup.edata = self.edata
        dup.links = self.links
        dup.routes = self.routes
        return dup

    def _ship(self, e: int, q: int, r: int, t: float, book, out) -> float:
        """Book edge ``e``'s hops from ``q`` to ``r``, leaving at ``t``;
        returns the arrival time (records hops into ``out`` if given)."""
        b = self.builder
        data, links = self.edata[e], self.links
        route = self.routes[(q, r)]
        for hop in range(len(route) - 1):
            a, c = route[hop], route[hop + 1]
            dur = data * links[a][c]
            rows = (self.send0 + a, self.recv0 + c)
            start = b.joint_next_fit(rows, t, dur)
            t = start + dur
            book(rows[0], start, t)
            book(rows[1], start, t)
            if out is not None:
                out.append((e, a, c, start, dur, hop))
        return t

    def trial_est(
        self, parents, proc: int, cutoff: float = _INF, duration: float = 0.0
    ) -> float:
        book = self.builder.book_tentative
        est = 0.0
        for pfinish, _pi, e, pproc in parents:
            if pproc != proc:
                pfinish = self._ship(e, pproc, proc, pfinish, book, None)
            if pfinish > est:
                est = pfinish
                if est + duration > cutoff:
                    return est  # partial: candidate provably loses
        return est

    def commit_est(self, parents, proc: int, out: list) -> float:
        book = self.builder.book
        est = 0.0
        for pfinish, _pi, e, pproc in parents:
            if pproc != proc:
                pfinish = self._ship(e, pproc, proc, pfinish, book, out)
            if pfinish > est:
                est = pfinish
        return est


class RoutedOnePortTrial:
    """Import stub: nothing returns it; the routed model books through
    :class:`RoutedFlatBooker`.  The benchmark tracer still imports it
    by name."""

    __slots__ = ()


@register_model("routed")
class RoutedOnePortModel(CommunicationModel):
    """One-port model over an arbitrary (connected) topology."""

    name = ONE_PORT

    def __init__(self, platform: Platform) -> None:
        super().__init__(platform)
        self.routes = build_routing_table(platform)
        self._csr: tuple[list[int], list[int]] | None = None

    def flat_booker(self, builder, statics) -> RoutedFlatBooker:
        return RoutedFlatBooker(builder, statics, self.routes)

    def route_csr(self) -> tuple[list[int], list[int]]:
        """The route table as CSR arrays for the compiled engine.

        ``nodes[ptr[q * p + r]:ptr[q * p + r + 1]]`` is the route
        ``[q, ..., r]``.
        """
        if self._csr is None:
            p = self.platform.num_processors
            ptr, nodes = [0], []
            for q in range(p):
                for r in range(p):
                    nodes.extend(self.routes[(q, r)])
                    ptr.append(len(nodes))
            self._csr = (ptr, nodes)
        return self._csr
