"""``repro.kernel`` — the flat, integer-interned evaluation core.

Why this package exists
-----------------------
Every layer that re-times one-port schedules — :func:`repro.simulate.replay`,
the :class:`repro.search.IncrementalEvaluator` behind iterated local
search, and the list heuristics' candidate trials — used to walk Python
dict-of-object constraint graphs keyed by arbitrary hashable task ids.
Hashing id tuples dominated those profiles and capped testbed size.
The kernel compiles a ``(graph, platform, decisions)`` triple into flat,
integer-indexed arrays once and lets every layer share that compilation.

Layout
------
* **Interning** (:class:`KernelStatics`): task ids map to ``0 .. n-1``
  in graph insertion order, graph edges to ``0 .. E-1`` in edge
  insertion order.  Adjacency is CSR — ``pred_ptr[v] : pred_ptr[v+1]``
  slices ``pred_eix``, an array of *edge indices*, so one hop reaches
  both the neighbor (``esrc[e]``) and the edge volume (``edata[e]``).
  Cost tables are contiguous: the ``n x p`` execution-time table
  ``exec_`` and the ``p x p`` plain-list link matrix ``link_rows``.
  Statics are cached per (graph, platform) on the graph itself and
  invalidated when the graph mutates.
* **Flat construction state** (:class:`FlatBuilder`): the mutable
  counterpart of the statics for *building* schedules — per-resource
  committed interval rows (compute rows then the model's port rows),
  generation-stamped tentative layers so a candidate trial is O(1) to
  reject, and an undo journal for O(changed) scratch runs.  The
  heuristics' ``SchedulerState`` and the models' flat bookers live on
  top of it.
* **Timed constraint DAG** (:class:`TimedKernel`): node ``i < n`` is
  task ``i``; node ``n + e`` is the transfer slot of edge ``e``, active
  only while the edge is remote.  ``compile`` (from replay decisions or
  a search point) builds predecessor lists over these indices — the
  precedence, processor-order, and per-port event-list edges of the
  one-port model; ``propagate`` runs one forward pass over
  topologically ordered int arrays; ``patch`` re-propagates only
  downstream of an invalidated node set into generation-stamped
  overlays and ``apply`` folds the overlay back in.

Who routes through the kernel
-----------------------------
* :func:`repro.simulate.replay.replay` — every direct-transfer decision
  set (the one-port hot path) compiles and propagates here; only
  multi-hop routed schedules take the retained object-level path.
* :class:`repro.search.IncrementalEvaluator` — load is ``from_point`` +
  one ordered pass; previews and commits are ``patch`` / ``apply``.
* :class:`repro.heuristics.base.SchedulerState` — the HEFT/ILHA
  EFT engine runs entirely on :class:`FlatBuilder` rows for every
  model, routed included: candidate trials, port bookings, compute
  slots, placements and finish times are all flat arrays over the
  statics' interned ids (the compiled engine mirrors it in C).

The kernel computes bit-identical times to the object-level replay:
same ``max`` over the same operands, same single addition per node —
the cross-check suite in ``tests/kernel`` asserts exact agreement.
"""

from . import cext_backend as _cext_backend  # noqa: F401  (registers "cext")
from .backends import (
    available_backends,
    current_backend,
    current_backend_name,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from .builder import FlatBuilder
from .statics import KernelStatics, compile_statics
from .timed import KernelIneligible, KernelPatch, TimedKernel

__all__ = [
    "FlatBuilder",
    "KernelIneligible",
    "KernelPatch",
    "KernelStatics",
    "TimedKernel",
    "available_backends",
    "compile_statics",
    "current_backend",
    "current_backend_name",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]
