"""Observability: process-local metrics, phase spans, and trace export.

The stack schedules hundreds of thousands of candidate probes per
second; ``repro.obs`` makes those hot paths visible without slowing
them down.  A :class:`~repro.obs.registry.Stats` collector gathers
counters, timers, gauges, and wall-clock phase spans; the active
collector is scoped through a :mod:`contextvars` variable so nested
runs (a campaign cell inside a campaign, a search inside a bench) do
not bleed into each other.  When no collector is active every
instrumented object holds ``None`` in its stats slot, so hot loops pay
roughly one attribute load plus an ``is not None`` check.

Usage::

    from repro import obs

    with obs.collect() as stats:
        scheduler.run(graph, platform, "one-port")
    print(stats.table())

:mod:`repro.obs.trace` exports Chrome ``trace_event`` JSON (openable
at https://ui.perfetto.dev) in four views: any :class:`Schedule` as
processor/port tracks, an online-engine run as an activity/transfer
timeline with utilization counters, the wall-clock phase spans the
collector recorded around scheduler construction, and a whole
distributed campaign reconstructed from its event journal.

:mod:`repro.obs.journal` is the durable half: an append-only JSONL
event journal the campaign parent and every spool worker write into
(atomic ``O_APPEND`` records, torn tails healed), consumed by
:func:`~repro.obs.trace.campaign_trace`, the metrics exporters in
:mod:`repro.obs.export` (``repro obs export`` — Prometheus text or
JSON), and the live ``repro campaign status --spool-dir --watch``
dashboard.

Metrics-naming convention
-------------------------
Metric names are dotted ``layer.noun[.reason]`` paths, lowercase, with
the unit implied by the layer's catalog entry (see
:data:`repro.obs.registry.CATALOG`):

* ``builder.*``  — flat-kernel construction (counts per run),
  e.g. ``builder.prune.maxpf`` / ``builder.prune.frontier`` /
  ``builder.prune.abort`` for the three EFT prune reasons.
* ``oneport.*``  — one-port booker internals (seed-memo hits/misses).
* ``search.*``   — local-search moves (previewed / committed /
  sideways / kicked) and patched-node totals.
* ``online.*``   — engine events by type, replans, port waits.
* ``campaign.*`` — per-cell wall time, cache hits, worker occupancy.
* ``phase.*``    — wall-clock timers around construction phases
  (statics build, ranking, candidate sweeps, booking, propagation).

Counters are monotonically increasing integers, timers accumulate
``(calls, seconds)``, gauges record last-written floats.  New metrics
must be registered in :data:`~repro.obs.registry.CATALOG` so
``repro info --json`` and the README catalog stay discoverable.
"""

from .export import journal_summary, prometheus_text
from .journal import (
    JOURNAL_FILENAME,
    JOURNAL_SCHEMA_VERSION,
    Journal,
    journal_path,
    read_journal,
)
from .log import ENV_VAR as LOG_ENV_VAR
from .log import configure_logging, get_logger
from .registry import (
    CATALOG,
    Stats,
    collect,
    current,
    enabled,
    metric_names,
    span,
    stage_detail,
    stage_detail_scope,
)
from .trace import (
    campaign_trace,
    online_trace,
    phase_events,
    schedule_trace,
    validate_trace,
    write_trace,
)

__all__ = [
    "CATALOG",
    "JOURNAL_FILENAME",
    "JOURNAL_SCHEMA_VERSION",
    "Journal",
    "LOG_ENV_VAR",
    "Stats",
    "campaign_trace",
    "collect",
    "configure_logging",
    "current",
    "enabled",
    "get_logger",
    "journal_path",
    "journal_summary",
    "metric_names",
    "online_trace",
    "phase_events",
    "prometheus_text",
    "read_journal",
    "schedule_trace",
    "span",
    "stage_detail",
    "stage_detail_scope",
    "validate_trace",
    "write_trace",
]
