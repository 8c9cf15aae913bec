"""Construction throughput of the two kernel backends.

Standalone script (not a pytest-benchmark module) so CI can run it and
archive the result::

    python benchmarks/bench_sched.py --quick --backend python --out BENCH_SCHED.quick.json

Measures, per heuristic x testbed x kernel backend:

* **schedules/s** — full construction runs through each selected
  ``SchedulerState`` backend (``python`` scalar loops, the baseline
  column, and the ``cext`` compiled engine), interleaved inside each
  round so CPU-load drift cannot skew their ratio, with exact makespan
  agreement asserted across every backend pair.
* **candidate-evaluations/s** — the same latency expressed per
  (task, processor) EFT probe, the unit the paper's Section 4.3
  tentative-booking mechanism is invoked at.

The ``irregular-10000`` bed runs HEFT only: it exists to show that a
10k-task random DAG is a routine sub-second construction.  The
``ring-irregular-100`` bed runs HEFT under the routed model on the
paper's processors wired as a ring, where most messages take several
store-and-forward hops.

A **stage breakdown** (``--stages``, always on for full runs) re-runs
HEFT per backend under the opt-in ``repro.obs`` stage timers
(``stage.sweep`` / ``stage.seed`` / ``stage.gap`` / ``stage.commit`` /
``stage.journal``) and records per-stage ms/run, so a regression can
be attributed to seed resolution vs gap search vs commit vs journal
replay rather than re-profiled from scratch.

An **obs-overhead guard** times lu-20 HEFT with the ``repro.obs``
collector off and on: stats-off must stay at the committed
``BENCH_SCHED.json`` numbers and stats-on within
``OBS_OVERHEAD_LIMIT``; both violations print warnings.

``--baseline BENCH_SCHED.json`` turns the run into a regression guard:
every (testbed, heuristic, backend) row shared with the baseline must
stay at or above ``--min-ratio`` (default 0.7) of the committed
schedules/s, else the script exits nonzero.

``--quick`` trims repetition counts and the testbed list for CI smoke;
the committed ``BENCH_SCHED.json`` at the repo root is produced by a
full ``--backend all`` run and seeds the perf trajectory (regenerate
and commit alongside kernel changes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _harness import best_of, write_result  # noqa: E402
from repro import HEFT, ILHA  # noqa: E402
from repro.experiments import paper_platform  # noqa: E402
from repro.graphs import irregular_testbed, layered_testbed, lu_graph  # noqa: E402
from repro.core import Platform  # noqa: E402
from repro.heuristics import get_scheduler  # noqa: E402
from repro.kernel.backends import use_backend  # noqa: E402
from repro.kernel.cext_backend import cext_available  # noqa: E402
from repro.models import make_model  # noqa: E402
from repro.obs import collect, stage_detail_scope  # noqa: E402

#: Acceptable stats-on construction slowdown per backend:
#: instrumentation is slot cached, so anything past this is a hot-loop
#: regression, not noise.  The compiled backend finishes far sooner
#: than the interpreted one, so the same absolute stats cost (the
#: per-commit counter drain + comm-event records) is a larger *ratio*;
#: its limit holds the absolute overhead to the interpreted budget.
OBS_OVERHEAD_LIMIT = {"python": 1.20, "cext": 1.50}

#: (label, factory) — representative constructions: the paper's two
#: protagonists (ILHA at its recommended default B and at a small B)
#: plus the classic insertion and non-insertion EFT baselines.
HEURISTICS = [
    ("heft", lambda: HEFT()),
    ("ilha", lambda: ILHA()),
    ("ilha:b=8", lambda: ILHA(b=8)),
    ("pct", lambda: get_scheduler("pct")),
]


def ring_platform() -> Platform:
    """The paper's processors on a bidirectional unit ring."""
    speeds = paper_platform().cycle_times
    p = len(speeds)
    links = [
        [0.0 if q == r else (1.0 if (q - r) % p in (1, p - 1) else float("inf"))
         for r in range(p)]
        for q in range(p)
    ]
    return Platform(speeds, links)


def bench_cell(label, hname, scheduler, graph, plat, model, rounds, repeats, backends):
    # one model instance per cell: the rows time construction, not the
    # routed model's routing-table build
    model = make_model(plat, model)
    # correctness gate before timing: every backend must agree on the
    # makespan exactly
    ref_makespan = None
    for be in backends:
        with use_backend(be):
            ms = scheduler.run(graph, plat, model).makespan()
        if ref_makespan is None:
            ref_makespan = ms
        assert ms == ref_makespan, f"backend drift for {hname} on {label}"

    flat_s = {be: float("inf") for be in backends}
    for _ in range(rounds):
        for be in backends:
            with use_backend(be):
                t0 = time.perf_counter()
                for _ in range(repeats):
                    scheduler.run(graph, plat, model)
                flat_s[be] = min(flat_s[be], (time.perf_counter() - t0) / repeats)

    # candidate probes: every task is evaluated on every processor by
    # the EFT sweep (upper bound for chunked ILHA, whose step-1 tasks
    # commit without a sweep — the ratio is unaffected)
    candidates = graph.num_tasks * plat.num_processors
    rows = []
    for be in backends:
        s = flat_s[be]
        row = {
            "testbed": label,
            "heuristic": hname,
            "backend": be,
            "tasks": graph.num_tasks,
            "edges": graph.num_edges,
            "flat_ms": round(s * 1e3, 4),
            "schedules_per_s": round(1.0 / s, 1),
            "cand_evals_per_s": round(candidates / s),
            "makespan": ref_makespan,
        }
        rows.append(row)
        print(
            f"{label:<18} {hname:<9} {be:<7} {row['tasks']:>5} tasks  "
            f"flat {row['flat_ms']:9.3f} ms  "
            f"{row['schedules_per_s']:>7.1f} sched/s  "
            f"{row['cand_evals_per_s']:>8} cand/s"
        )
    return rows


#: Stage timers reported by ``--stages`` (catalog order; the compiled
#: backend folds seed + gap into its C sweep, so those rows read 0.0).
STAGE_NAMES = ["stage.sweep", "stage.seed", "stage.gap",
               "stage.commit", "stage.journal"]


def bench_stages(beds, plat, backends, rounds) -> list[dict]:
    """Per-stage breakdown: HEFT per testbed x backend under the opt-in
    stage timers, reported as accumulated ms per construction run.

    ``stage.seed`` / ``stage.gap`` are nested inside ``stage.sweep`` on
    the interpreted backends; the cext backend performs them inside the
    compiled sweep, so only sweep / commit / journal are visible there.
    """
    scheduler = HEFT()
    rows = []
    for label, graph, repeats, _only, _plat, _model in beds:
        repeats = max(1, repeats // 2)
        for be in backends:
            best: dict[str, float] | None = None
            with use_backend(be):
                for _ in range(rounds):
                    with collect() as stats, stage_detail_scope():
                        t0 = time.perf_counter()
                        for _ in range(repeats):
                            scheduler.run(graph, plat, "one-port")
                        total = time.perf_counter() - t0
                    per_run = {
                        name: stats.timers.get(name, (0, 0.0))[1] / repeats
                        for name in STAGE_NAMES
                    }
                    per_run["total"] = total / repeats
                    if best is None or per_run["total"] < best["total"]:
                        best = per_run
            row = {
                "testbed": label,
                "heuristic": "heft",
                "backend": be,
                "total_ms": round(best["total"] * 1e3, 4),
            }
            for name in STAGE_NAMES:
                row[name.replace("stage.", "") + "_ms"] = round(
                    best[name] * 1e3, 4
                )
            rows.append(row)
            print(
                f"stages {label:<16} heft {be:<7} "
                f"total {row['total_ms']:8.3f} ms  "
                f"sweep {row['sweep_ms']:7.3f}  seed {row['seed_ms']:7.3f}  "
                f"gap {row['gap_ms']:7.3f}  commit {row['commit_ms']:7.3f}  "
                f"journal {row['journal_ms']:7.3f}"
            )
    return rows


def check_baseline(rows, baseline_path, min_ratio) -> int:
    """Regression guard: every (testbed, heuristic, backend) row shared
    with the committed baseline must keep at least ``min_ratio`` of its
    schedules/s.  Returns the number of regressed rows.
    """
    path = Path(baseline_path)
    if not path.exists():
        print(f"baseline {baseline_path} not found; guard skipped")
        return 0
    committed = {
        (r["testbed"], r["heuristic"], r["backend"]): r["flat_ms"]
        for r in json.loads(path.read_text()).get("construction", [])
    }
    regressions = 0
    shared = 0
    for row in rows:
        key = (row["testbed"], row["heuristic"], row["backend"])
        base_ms = committed.get(key)
        if base_ms is None:
            continue
        shared += 1
        ratio = base_ms / row["flat_ms"]  # >1 means faster than baseline
        if ratio < min_ratio:
            regressions += 1
            print(
                f"REGRESSION: {key[0]} {key[1]} [{key[2]}] "
                f"{row['flat_ms']} ms vs committed {base_ms} ms "
                f"(x{ratio:.2f} < x{min_ratio})"
            )
    print(
        f"baseline guard: {shared} shared rows, {regressions} regressions "
        f"(min-ratio x{min_ratio})"
    )
    return regressions


def bench_obs_overhead(plat, backends, rounds, repeats, baseline_path) -> list[dict]:
    """Guard the observability PR: stats-off must stay at the committed
    numbers and stats-on must cost at most ``OBS_OVERHEAD_LIMIT``.

    Times HEFT on lu-20 per backend with collection disabled and with
    an active collector; compares stats-off against the matching row of
    the committed ``BENCH_SCHED.json`` when one exists.
    """
    graph = lu_graph(20)
    scheduler = HEFT()
    committed: dict[str, float] = {}
    path = Path(baseline_path)
    if path.exists():
        for row in json.loads(path.read_text()).get("construction", []):
            if row["testbed"] == "lu-20" and row["heuristic"] == "heft":
                committed[row["backend"]] = row["flat_ms"]

    rows = []
    for be in backends:
        with use_backend(be):
            run = lambda: scheduler.run(graph, plat, "one-port")  # noqa: E731
            # interleaved off/on rounds, same discipline as bench_cell
            off_s = on_s = float("inf")
            for _ in range(rounds):
                off_s = min(off_s, best_of(run, 1, repeats))
                with collect():
                    on_s = min(on_s, best_of(run, 1, repeats))
        row = {
            "testbed": "lu-20",
            "heuristic": "heft",
            "backend": be,
            "off_ms": round(off_s * 1e3, 4),
            "on_ms": round(on_s * 1e3, 4),
            "overhead": round(on_s / off_s, 3),
        }
        if be in committed:
            row["committed_ms"] = committed[be]
        rows.append(row)
        print(
            f"obs-overhead lu-20 heft {be:<7} "
            f"off {row['off_ms']:8.3f} ms  on {row['on_ms']:8.3f} ms  "
            f"x{row['overhead']:.3f}"
        )
        limit = OBS_OVERHEAD_LIMIT[be]
        if row["overhead"] > limit:
            print(
                f"WARNING: stats-on overhead x{row['overhead']} on {be} "
                f"exceeds the x{limit} limit"
            )
        if be in committed and row["off_ms"] > 1.5 * committed[be]:
            print(
                f"WARNING: stats-off lu-20 heft on {be} "
                f"({row['off_ms']} ms) regressed vs the committed "
                f"{committed[be]} ms (>1.5x)"
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer rounds, smaller testbeds")
    parser.add_argument("--backend", default="all",
                        choices=["python", "cext", "all"],
                        help="kernel backend(s) to measure: all = python, plus "
                             "cext when built (default: all)")
    parser.add_argument("--stages", action="store_true",
                        help="per-stage breakdown (always on for full runs)")
    parser.add_argument("--baseline", default=None, metavar="JSON",
                        help="committed BENCH_SCHED.json to guard against; "
                             "shared rows below --min-ratio fail the run")
    parser.add_argument("--min-ratio", type=float, default=0.7,
                        help="minimum schedules/s vs baseline (default: 0.7)")
    parser.add_argument("--out", default="BENCH_SCHED.json",
                        help="output JSON path (default: BENCH_SCHED.json)")
    args = parser.parse_args(argv)

    if args.backend == "all":
        backends = ["python"]
        if cext_available():
            backends.append("cext")
        else:
            print("note: cext extension not built; measuring python only "
                  "(build with: python setup.py build_ext --inplace)")
    else:
        backends = [args.backend]
    if "cext" in backends and not cext_available():
        print("error: --backend cext requested but the compiled extension "
              "is not importable; build it with "
              "'python setup.py build_ext --inplace'", file=sys.stderr)
        return 2

    plat = paper_platform()
    ring = ("ring-irregular-100", irregular_testbed(100, seed=0), 4, {"heft"},
            ring_platform(), "routed")
    # (label, graph, repeats, heuristic filter, platform, model)
    if args.quick:
        rounds = 3
        beds = [
            ("lu-20", lu_graph(20), 10, None, plat, "one-port"),
            ("irregular-300", irregular_testbed(300, seed=0), 4, None, plat, "one-port"),
            ("irregular-10000", irregular_testbed(10000, seed=0), 1,
             {"heft"}, plat, "one-port"),
            ring,
        ]
    else:
        rounds = 6
        beds = [
            ("lu-20", lu_graph(20), 12, None, plat, "one-port"),
            ("lu-40", lu_graph(40), 4, None, plat, "one-port"),
            ("layered-big", layered_testbed(160, seed=0, width=10, density=0.25),
             4, None, plat, "one-port"),
            ("irregular-1000", irregular_testbed(1000, seed=0), 4, None, plat, "one-port"),
            ("irregular-10000", irregular_testbed(10000, seed=0), 2,
             {"heft"}, plat, "one-port"),
            ring,
        ]

    rows = [
        row
        for label, graph, repeats, only, bed_plat, model in beds
        for hname, factory in HEURISTICS
        if only is None or hname in only
        for row in bench_cell(label, hname, factory(), graph, bed_plat, model,
                              rounds, repeats, backends)
    ]

    stage_rows = []
    if args.stages or not args.quick:
        print()
        stage_rows = bench_stages(
            [bed for bed in beds if bed[0] != "irregular-10000" and bed[5] == "one-port"],
            plat, backends, max(2, rounds // 2),
        )

    print()
    overhead_rows = bench_obs_overhead(
        plat, backends, rounds, 10 if args.quick else 12, args.out
    )

    result = {
        "benchmark": "sched-construction",
        "quick": args.quick,
        "backends": backends,
        "construction": rows,
        "stages": stage_rows,
        "obs_overhead": overhead_rows,
    }
    write_result(args.out, result)
    print(f"\nwrote {args.out}")

    if args.baseline is not None and check_baseline(
        rows, args.baseline, args.min_ratio
    ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
