"""The compiled kernel backend (``cext``): registration and fallback.

:mod:`repro.kernel._cext` is a hand-written CPython extension holding
the hot sequential booking loop — the FlatBuilder primitives, the flat
bookers of the five flat models, the all-processor candidate sweep and
the list-scheduling loop — as one C engine over typed arrays (see ``_cextmodule.c``; its header
states the bit-identity contract with the pure-Python reference).

This module is the *optional* half of the bargain: the extension is
compiled opportunistically (``python setup.py build_ext --inplace``, or
transparently by ``pip install`` when a compiler is present) and the
package must work identically without it.  Importing this module never
fails — a missing or broken extension leaves :func:`cext_available`
False, the registered backend falls back to the pure-Python state class
with a single ``repro.kernel`` log warning, and the engine that
actually ran is recorded in ``Schedule.state_impl`` (and surfaced by
``python -m repro info --json`` under ``"backends"``).
"""

from __future__ import annotations

from ..obs import get_logger as _get_logger
from .backends import KernelBackend, register_backend

try:  # pragma: no cover - exercised via the no-compiler simulation test
    from . import _cext
except ImportError as exc:  # extension not built on this interpreter
    _cext = None
    _IMPORT_ERROR: str | None = str(exc)
else:
    _IMPORT_ERROR = None
    # Booking raises the package's own exception types from C.
    from ..core.exceptions import PlatformError, SchedulingError, TimelineError
    from ..core.schedule import CommEvent, TaskPlacement

    _cext._set_exceptions(SchedulingError, TimelineError, PlatformError)
    _cext._set_record_types(TaskPlacement, CommEvent)

#: One fallback warning per process; tests reset it directly.
_WARNED = False

_LOG = _get_logger("kernel")


def cext_available() -> bool:
    """True when the compiled engine imported on this interpreter."""
    return _cext is not None


def cext_import_error() -> str | None:
    """The import failure message when unavailable (else ``None``)."""
    return None if _cext is not None else _IMPORT_ERROR


def cext_build_info() -> dict | None:
    """Build provenance baked into the extension (``None`` if absent)."""
    return _cext.build_info() if _cext is not None else None


def _warn_fallback() -> None:
    global _WARNED
    if _WARNED:
        return
    _WARNED = True
    _LOG.warning(
        "kernel backend 'cext' selected but the compiled extension is not "
        "available (%s): scheduling falls back to the pure-Python state. "
        "Build it with 'python setup.py build_ext --inplace'. The active "
        "implementation is recorded in Schedule.state_impl.",
        _IMPORT_ERROR,
    )


def engine_statics(kernel):
    """The kernel's statics flattened into the C engine's layout.

    Cached on the :class:`~repro.kernel.statics.KernelStatics` itself
    (slot ``_cext``), so every state built over the same (graph,
    platform) pair shares one flattened copy — same lifetime as the
    statics cache.
    """
    st = kernel._cext
    if st is None:
        exec_flat = kernel.exec_np.ravel().tolist()
        links_flat = [c for row in kernel.link_rows for c in row]
        st = _cext.Statics(
            kernel.num_tasks,
            kernel.num_edges,
            kernel.num_procs,
            exec_flat,
            kernel.edata,
            kernel.esrc,
            kernel.pred_ptr,
            kernel.pred_eix,
            links_flat,
            bool(kernel.all_links_finite),
        )
        kernel._cext = st
    return st


@register_backend("cext")
class CextBackend(KernelBackend):
    """Compiled booking loop; schedules bit-identical to python.

    ``propagate`` is inherited from the base class: the compiled tier
    covers construction (the booking loop), and replay propagation
    runs the pure-Python ``propagate_kahn``.
    """

    def state_class(self, model):
        if _cext is None:
            _warn_fallback()
            return None
        from ..heuristics.state_cext import CextSchedulerState, _model_code

        if _model_code(model) is None:
            return None  # no C booker (e.g. a user subclass): python state
        return CextSchedulerState
