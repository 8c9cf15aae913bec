"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload construct --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs every input twice, untraced and then traced through
the layer wrappers of :mod:`perfbench.tracing`, prints a self-time
table per layer and writes the kept spans as a Chrome trace.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the full
result (with the engine provenance and seeds) is written under
``.bench_build/perfbench/``.  The exit code is non-zero when any output
check fails or the benchmark cannot run on the compiled engine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import engine  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, percentile  # noqa: E402
from perfbench.tracing import ROOT, LayerPatches, Tracer  # noqa: E402

SETUP_REPS = 3
#: Stop measuring after this long even if ``min_ops`` is not reached.
HARD_LIMIT_S = 120.0


class Run:
    """Counters of one measured loop: attempts, failures, samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: list[float] = []
        #: Work units per second of operation time, one per input item.
        self.item_rates: list[float] = []
        self.quality: list[float] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)
        print(f"FAILED {what}", flush=True)


def _timed_ops(wl, item, run: Run, op_wrapper=None):
    """Run every operation of ``item``; returns ``[(label, out, seconds)]``."""
    done = []
    for label, call in wl.ops(item):
        run.attempted += 1
        try:
            if op_wrapper is None:
                t0 = perf_counter()
                out = call()
                dt = perf_counter() - t0
            else:
                out, dt = op_wrapper(call)
        except Exception as exc:  # a failed operation is counted, not fatal
            run.fail(f"{wl.name}[{item.index}] {label}: {type(exc).__name__}: {exc}")
            continue
        done.append((label, out, dt))
    return done


def _check(wl, item, done, run: Run) -> None:
    for label, out, _ in done:
        errs = wl.check(item, label, out)
        if errs:
            run.fail(f"{wl.name}[{item.index}] {label}: " + "; ".join(errs))
        if len(run.quality) < wl.quality_ops:
            run.quality.append(wl.quality(item, label, out))


def measure(wl, seconds: float) -> Run:
    """Closed loop: next item after the previous one's checks return."""
    run = Run()
    least = max(wl.min_ops, wl.quality_ops)
    start = perf_counter()
    i = 0
    while (perf_counter() - start < seconds or run.attempted < least) and (
        perf_counter() - start < HARD_LIMIT_S
    ):
        item = wl.make_item(i)
        done = _timed_ops(wl, item, run)
        run.samples += [dt for _, _, dt in done]
        if done:
            work = sum(wl.work(label, out) for label, out, _ in done)
            run.item_rates.append(work / sum(dt for _, _, dt in done))
        _check(wl, item, done, run)
        i += 1
    return run


def end_to_end(wl, run: Run, setup_s: float) -> dict:
    if len(run.quality) < wl.quality_ops:
        raise engine.BenchError(
            f"only {len(run.quality)} of {wl.quality_ops} quality operations completed"
        )
    values = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(run.item_rates),
        "op_p50_ms": statistics.median(run.samples) * 1e3,
        "op_p90_ms": percentile(run.samples, 0.9) * 1e3,
        "quality_ratio": statistics.median(run.quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]["unit"]} for k in END_TO_END}


def traced(wl, seconds: float):
    """Untraced then traced run of each item; per-layer metrics."""
    from repro import obs
    from repro.obs.trace import validate_trace

    tracer = Tracer()
    tracer.record_durations("online.replan")
    stats = obs.Stats()
    run, plain_run = Run(), Run()
    plain_s = traced_s = 0.0
    by_label: dict[str, list[float]] = {}

    def in_op(call):
        with tracer.op(tracer.ops):
            t0 = perf_counter()
            out = call()
            return out, perf_counter() - t0

    start = perf_counter()
    i = 0
    while (perf_counter() - start < seconds or tracer.ops < wl.min_ops // 2) and (
        perf_counter() - start < HARD_LIMIT_S
    ):
        plain = _timed_ops(wl, wl.make_item(i), plain_run)
        item = wl.make_item(i)
        with LayerPatches(tracer), obs.collect(stats):
            done = _timed_ops(wl, item, run, op_wrapper=in_op)
        if len(done) == len(plain):
            for (label, out, dt), (_, ref, ref_dt) in zip(done, plain):
                if wl.fingerprint(out) != wl.fingerprint(ref):
                    run.fail(f"{wl.name}[{i}] {label}: traced output differs from untraced")
                plain_s += ref_dt
                traced_s += dt
                by_label.setdefault(label, []).append(dt)
        _check(wl, item, done, run)
        i += 1

    run.attempted += plain_run.attempted
    run.failed += plain_run.failed
    run.errors += plain_run.errors
    ops = max(tracer.ops, 1)
    wall = tracer.op_wall_s
    total_self = sum(tracer.self_s.values())
    if abs(total_self - wall) > 1e-6 * max(wall, 1.0):
        run.fail(f"trace: self times sum to {total_self!r}, operation wall is {wall!r}")
    trace = tracer.chrome_trace(wl.name)
    try:
        validate_trace(trace)
    except ValueError as exc:
        run.fail(f"trace: {exc}")
    counters = stats.counters

    def per_op(name):
        return tracer.self_s.get(name, 0.0) / ops * 1e3

    def share(name):
        return 100.0 * tracer.self_s.get(name, 0.0) / wall if wall else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    pruned = sum(counters.get(f"builder.prune.{r}", 0) for r in ("maxpf", "frontier", "abort"))
    hits = counters.get("oneport.seed.hit", 0)
    previews = counters.get("search.previews", 0)
    values = {
        "core.validate_ms": per_op("core.validate"),
        "core.rank_ms": per_op("core.rank"),
        "core.schedule_build_ms": per_op("core.schedule_build"),
        "kernel.statics_ms": per_op("kernel.statics"),
        "kernel.statics_calls": tracer.calls.get("kernel.statics", 0) / ops,
        "kernel.sweep_ms": per_op("kernel.sweep"),
        "kernel.commit_ms": per_op("kernel.commit"),
        "heuristics.run_ms": tracer.incl_s.get("heuristics.run", 0.0) / ops * 1e3,
        "trace.residual_ms": tracer.residual_s / ops * 1e3,
        "trace.op_ms": wall / ops * 1e3,
        "builder.candidates": counters.get("builder.candidates", 0) / ops,
        "builder.prune_ratio": ratio(pruned, counters.get("builder.candidates", 0)),
        "oneport.seed_hit_ratio": ratio(hits, hits + counters.get("oneport.seed.miss", 0)),
        "kernel.propagate_pct": share("kernel.propagate"),
        "kernel.propagate_calls": tracer.calls.get("kernel.propagate", 0) / ops,
        "kernel.from_decisions_pct": share("kernel.from_decisions"),
        "simulate.replay_pct": share("simulate.replay"),
        "online.replan_pct": share("online.replan"),
        "online.replans": tracer.calls.get("online.replan", 0) / ops,
        "online.build_activities_pct": share("online.build_activities"),
        "online.event_loop_pct": share("online.event_loop"),
        "search.load_pct": share("search.load"),
        "search.preview_pct": share("search.preview"),
        "search.commit_pct": share("search.commit"),
        "search.accept_ratio": ratio(counters.get("search.commits", 0), previews),
        "search.patched_nodes_per_preview": ratio(counters.get("search.patched_nodes", 0), previews),
        "models.routing_table_pct": share("models.routing_table"),
        "models.routed_trial_pct": share("models.routed_trial"),
        "models.routed_trials": tracer.calls.get("models.routed_trial", 0) / ops,
        "trace.overhead": ratio(traced_s, plain_s),
    }
    metrics = {k: {"value": values[k], "unit": PER_LAYER[k]["unit"]} for k in PER_LAYER}
    table = self_time_table(wl.name, tracer, ops, values["trace.overhead"], by_label)
    return run, metrics, trace, table


def self_time_table(name, tracer, ops, overhead, by_label) -> str:
    """Per-layer self time per operation; the rows sum to the wall time."""
    wall = tracer.op_wall_s
    lines = [f"self time per operation, workload {name} ({ops} traced operations)"]
    lines.append(f"  {'layer':<26}{'calls/op':>10}{'self ms/op':>12}{'share':>8}")
    for layer, own in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        if layer == ROOT:
            continue
        lines.append(
            f"  {layer:<26}{tracer.calls[layer] / ops:>10.1f}"
            f"{own / ops * 1e3:>12.3f}{100 * own / wall:>7.1f}%"
        )
    root = tracer.self_s.get(ROOT, 0.0)
    lines.append(f"  {'(benchmark call glue)':<26}{'':>10}{root / ops * 1e3:>12.3f}{100 * root / wall:>7.1f}%")
    lines.append(f"  {'= operation wall':<26}{'':>10}{wall / ops * 1e3:>12.3f}{'100.0':>7}%")
    lines.append(
        f"  residual (benchmark call glue + heuristics.run self time): "
        f"{tracer.residual_s / ops * 1e3:.3f} ms/op "
        f"({100 * tracer.residual_s / wall:.1f}%)"
    )
    for label, times in sorted(by_label.items()):
        lines.append(f"  traced {label}: {statistics.fmean(times) * 1e3:.3f} ms/op over {len(times)}")
    replans = tracer.durations.get("online.replan") or []
    if replans:
        row = f"  online.replan latency: p50 {statistics.median(replans) * 1e3:.3f} ms"
        try:
            row += f", p90 {percentile(replans, 0.9) * 1e3:.3f} ms"
        except ValueError:
            pass
        lines.append(row + f" (n={len(replans)})")
    lines.append(f"  trace.overhead {overhead:.3f} (traced / untraced wall, same inputs)")
    return "\n".join(lines)


def setup(workload_cls, seed: int, reps: int):
    """Compile, cold-import and warm up ``reps`` times; median seconds."""
    times, wl, so = [], None, None
    for rep in range(reps):
        t0 = perf_counter()
        out = engine.BUILD_DIR / f"cext-{os.getpid()}-{rep}"
        shutil.rmtree(out, ignore_errors=True)
        built = engine.build_cext(out)
        engine.time_cold_import(built)
        if so is None:
            so = built
            engine.load_cext(so)
        wl = workload_cls(seed)
        warm = wl.make_item(-1)
        for _, call in wl.ops(warm):
            call()
        times.append(perf_counter() - t0)
    return wl, statistics.median(times), times


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        engine.check_tree()
        engine.BUILD_DIR.mkdir(parents=True, exist_ok=True)
        try:
            wl, setup_s, setup_all = setup(WORKLOADS[args.workload], args.seed, SETUP_REPS)
        finally:
            for path in engine.BUILD_DIR.glob(f"cext-{os.getpid()}-*"):
                shutil.rmtree(path, ignore_errors=True)
        prov = engine.provenance()
        print(f"engine {prov['cext_build_info']} source sha256 {prov['cext_source_sha256'][:16]} "
              f"nproc {prov['nproc']}", flush=True)
        if args.trace:
            run, metrics, trace, table = traced(wl, args.seconds)
            print(table)
            from repro.obs.trace import write_trace

            trace_path = engine.BUILD_DIR / f"trace-{wl.name}-s{args.seed}.json"
            write_trace(trace, trace_path)
            print(f"trace written to {trace_path.relative_to(engine.ROOT)}")
        else:
            run = measure(wl, args.seconds)
            metrics = end_to_end(wl, run, setup_s)
            print(f"{len(run.samples)} operation samples over {len(run.item_rates)} items, "
                  f"quality over the first {wl.quality_ops} operations", flush=True)
    except (engine.BenchError, ValueError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": wl.digest(),
        "setup_reps_s": setup_all,
        "errors": run.errors,
        **prov,
    }
    out = engine.BUILD_DIR / f"result-{wl.name}-s{args.seed}-t{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
