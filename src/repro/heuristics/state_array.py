"""Import stub: no kernel backend returns :class:`ArraySchedulerState`.

It exists only because the benchmark tracer (``perfbench/tracing.py``)
imports it by name and patches the methods each state class defines
itself.  The empty subclass defines none, so the patches touch nothing;
an alias of ``SchedulerState`` would get the base class patched twice.
"""

from __future__ import annotations

from .base import SchedulerState


class ArraySchedulerState(SchedulerState):
    __slots__ = ()
