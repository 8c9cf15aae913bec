"""Metric catalog and the order statistics every report uses.

``BENCHMARK.json`` is the single source of the metric names, units,
directions and bounds; :data:`END_TO_END` and :data:`PER_LAYER` are read
from it.  This module only adds what the file has no room for: what
each metric means and, for a per-layer metric, which end-to-end metric
a faster layer should move and on which workload.  Every workload
reports every metric, so a metric is defined on each workload's own
*operation*:

========== =============================== ==========================
workload   operation (one latency sample)  work unit (``ops_per_s``)
========== =============================== ==========================
construct  one ``Scheduler.run`` call      schedules
dynamic    one item of each part below     operations
online     one simulated job stream        simulated events
search     one ``ils(heft)`` run           evaluator move previews
routed     one ``Scheduler.run`` call      schedules
========== =============================== ==========================

``BENCHMARK.json`` lists ``construct`` and ``dynamic``; ``online``,
``search`` and ``routed`` are the parts of ``dynamic`` and can be run
on their own.

Per-layer metrics come from the traced run only.  Times that every
workload spends (the construction layers) are milliseconds of self
time per operation; layers only some workloads reach are reported as
their share of operation wall time (``*_pct``), which is 0 where the
layer does no work.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DIRECTIONS = ("lower", "higher")

CONFIG = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
#: name -> ``{"name", "unit", "better", "bound"}``, in file order.
END_TO_END: dict[str, dict] = {m["name"]: m for m in CONFIG["end_to_end"]}
#: name -> ``{"name", "unit", "better"}``, in file order.
PER_LAYER: dict[str, dict] = {m["name"]: m for m in CONFIG["per_layer"]}

#: End-to-end metrics that repeat exactly for a seed, so any seed-paired
#: change in them is a real change.
DETERMINISTIC = ("quality_ratio",)

#: end-to-end name -> meaning
MEANING: dict[str, str] = {
    "setup_s": (
        "median of 3 set-ups: out-of-tree cext compile, cold package import "
        "in a fresh interpreter, workload construction and one warm-up item"),
    "ops_per_s": (
        "median over input items of work units per second of operation time "
        "(schedules on construct, operations on dynamic)"),
    "op_p50_ms": "median operation latency",
    "op_p90_ms": "90th-percentile operation latency",
    "quality_ratio": (
        "median over the fixed leading operations of the seeded input stream "
        "of makespan / makespan_lower_bound (the stream's mean stretch on online; "
        "the mean of the three parts' ratios on dynamic)"),
    "peak_rss_mb": "peak resident set size of the process",
}

#: per-layer name -> (end-to-end metric it should move, workloads, meaning)
LAYER_NOTES: dict[str, tuple[str, str, str]] = {
    "core.validate_ms": (
        "op_p50_ms", "construct, dynamic",
        "self time in TaskGraph.validate per operation"),
    "core.rank_ms": (
        "op_p50_ms", "construct",
        "self time in bottom_levels / priority_order per operation"),
    "core.schedule_build_ms": (
        "op_p50_ms", "construct",
        "self time in Schedule.place + Schedule.record_comm per operation"),
    "kernel.statics_ms": (
        "op_p50_ms", "construct",
        "self time in compile_statics per operation"),
    "kernel.statics_calls": (
        "op_p50_ms", "construct",
        "compile_statics calls per operation"),
    "kernel.sweep_ms": (
        "op_p50_ms", "construct",
        "self time in the engine's best_candidate / evaluate per operation"),
    "kernel.commit_ms": (
        "op_p50_ms", "construct",
        "self time in the engine's commit / schedule_on per operation"),
    "heuristics.run_ms": (
        "ops_per_s", "construct",
        "inclusive time in list-heuristic run calls per operation"),
    "trace.residual_ms": (
        "ops_per_s", "construct",
        "self time of the operation root and of heuristic run calls "
        "(run minus every named child layer): glue no layer names"),
    "trace.op_ms": (
        "op_p50_ms", "construct, dynamic",
        "traced operation wall time (the sum of every self time above)"),
    "builder.candidates": (
        "ops_per_s", "construct",
        "EFT probes per operation (repro.obs counter)"),
    "builder.prune_ratio": (
        "ops_per_s", "construct",
        "pruned probes / probes (repro.obs counters)"),
    "oneport.seed_hit_ratio": (
        "ops_per_s", "construct",
        "one-port seed-memo hits / lookups (repro.obs counters)"),
    "kernel.propagate_pct": (
        "ops_per_s", "dynamic (online part)",
        "self-time share of KernelBackend.propagate"),
    "kernel.propagate_calls": (
        "ops_per_s", "dynamic (online part)",
        "KernelBackend.propagate calls per operation"),
    "kernel.from_decisions_pct": (
        "ops_per_s", "dynamic (online part)",
        "self-time share of TimedKernel.from_decisions"),
    "simulate.replay_pct": (
        "ops_per_s", "dynamic",
        "self-time share of replay / replay_schedule / extract_decisions"),
    "online.replan_pct": (
        "ops_per_s", "dynamic (online part)",
        "self-time share of replan_job"),
    "online.replans": (
        "ops_per_s", "dynamic (online part)",
        "replan_job calls per operation"),
    "online.build_activities_pct": (
        "ops_per_s", "dynamic (online part)",
        "self-time share of OnlineEngine.build_plan_activities"),
    "online.event_loop_pct": (
        "ops_per_s", "dynamic (online part)",
        "self-time share of OnlineEngine.run (the event loop)"),
    "search.load_pct": (
        "ops_per_s", "dynamic (search part)",
        "self-time share of IncrementalEvaluator.load"),
    "search.preview_pct": (
        "ops_per_s", "dynamic (search part)",
        "self-time share of IncrementalEvaluator.preview"),
    "search.commit_pct": (
        "ops_per_s", "dynamic (search part)",
        "self-time share of IncrementalEvaluator.commit"),
    "search.accept_ratio": (
        "ops_per_s", "dynamic (search part)",
        "evaluator commits / previews"),
    "search.patched_nodes_per_preview": (
        "ops_per_s", "dynamic (search part)",
        "kernel nodes re-timed per preview (repro.obs counters)"),
    "models.routing_table_pct": (
        "op_p50_ms", "dynamic (routed part)",
        "self-time share of build_routing_table"),
    "models.routed_trial_pct": (
        "op_p50_ms", "dynamic (routed part)",
        "self-time share of routed multi-hop trial bookings"),
    "models.routed_trials": (
        "op_p50_ms", "dynamic (routed part)",
        "routed multi-hop trial bookings per operation"),
    "trace.overhead": (
        "none", "construct, dynamic",
        "traced operation wall / untraced wall of the same inputs"),
}


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile; refused without ten samples beyond it."""
    data = sorted(samples)
    n = len(data)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise ValueError(
            f"p{q * 100:g} needs at least ten samples beyond it; have {n} samples"
        )
    return data[rank - 1]


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``)."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
