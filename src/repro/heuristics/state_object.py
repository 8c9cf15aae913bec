"""Import stub: no kernel backend returns :class:`ObjectSchedulerState`.

The object-level engine is retired: every model books through a flat
booker, on ``flat-python`` or ``flat-cext``.  The class exists only
because the benchmark tracer (``perfbench/tracing.py``) imports it by
name and patches the methods each state class defines itself.  The
empty subclass defines none, so the patches touch nothing.
"""

from __future__ import annotations

from .base import SchedulerState


class ObjectSchedulerState(SchedulerState):
    __slots__ = ()
