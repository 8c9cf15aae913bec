"""Steadiness and comparison tooling for the benchmark.

``repeat`` runs ``run.py`` several times per workload, one process at a
time with seeds 1, 2, ... and BENCHMARK.json's ``run_seconds``, stores every final JSON line and
prints each workload x end-to-end metric's median, quartiles and
spread (inter-quartile distance / median) against its bound::

    python3 perfbench/stability.py repeat --workloads construct dynamic \\
        --runs 10 --out .bench_build/perfbench/parent.json

``diff`` compares two such files, one row per workload x metric, with
a verdict: *improved* (the change wins at least nine tenths of the
seed-paired runs and the medians differ by more than the base's own
spread), *regressed* (the median is worse by more than the bound),
*unresolved* (a spread is wider than the bound and not every changed
run beats every base run) or *unchanged*.  A metric that repeats
exactly for a seed (``metrics.DETERMINISTIC``) is compared seed by
seed instead: any seed on which it is worse is a regression, else any
seed on which it is better an improvement::

    python3 perfbench/stability.py diff parent.json change.json

Exit status: ``repeat`` 1 if a run failed or a spread exceeds its
bound, ``diff`` 1 if anything regressed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.metrics import CONFIG, DETERMINISTIC, END_TO_END, quartiles, spread  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = CONFIG["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {
        "seed": seed,
        "exit": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(runs: list[dict]) -> tuple[dict, list[str], bool]:
    """Per-metric quartiles and spread of one workload's runs, as data and
    table rows; False if a spread is over its bound."""
    ok = True
    stats, rows = {}, []
    for name in END_TO_END:
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if not values:
            rows.append(f"  {name:<16} no values")
            ok = False
            continue
        q1, med, q3 = quartiles(values)
        sp = spread(values)
        bound = END_TO_END[name]["bound"]
        status = "steady" if sp <= bound / 3 else ("within" if sp <= bound else "UNSTEADY")
        if sp > bound:
            ok = False
        stats[name] = {"q1": q1, "median": med, "q3": q3, "spread": sp, "bound": bound}
        rows.append(
            f"  {name:<16} median {med:>12.6g}  q1 {q1:>12.6g}  q3 {q3:>12.6g}"
            f"  spread {sp:>7.2%}  bound {bound:>5.0%}  {status}"
        )
    return stats, rows, ok


def cmd_repeat(args) -> int:
    seconds = CONFIG["run_seconds"]
    out = Path(args.out) if args.out else None
    data = json.loads(out.read_text()) if out and out.exists() else {"runs": {}, "spreads": {}}
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            r = run_once(workload, seed, seconds)
            runs.append(r)
            print(f"{workload} seed {seed}: exit {r['exit']} correct {r['correct']} "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)
            if r["exit"] != 0 or not r["correct"]:
                status = 1
        stats, rows, ok = summarize(runs)
        data["runs"][workload] = runs
        data.setdefault("spreads", {})[workload] = stats
        if out:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(data, indent=1) + "\n")
        print(f"{workload}: {len(runs)} runs of {seconds} s")
        print("\n".join(rows), flush=True)
        if not ok:
            status = 1
    return status


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Choosing-metrics verdict for one workload x metric."""
    sign = 1.0 if better == "higher" else -1.0
    _, base_med, _ = quartiles(base)
    _, new_med, _ = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    base_iqr = spread(base) * abs(base_med)
    if pairs and wins >= 0.9 * len(pairs) and sign * (new_med - base_med) > base_iqr:
        return "improved"
    worse = -sign * (new_med - base_med) / abs(base_med) if base_med else 0.0
    if worse > bound:
        return "regressed"
    if max(spread(base), spread(new)) > bound and not all(
        sign * (n - b) > 0 for b in base for n in new
    ):
        return "unresolved"
    return "unchanged"


def exact_verdict(base: dict[int, float], new: dict[int, float], better: str) -> str:
    """Seed-paired verdict for a metric that repeats exactly for a seed."""
    sign = 1.0 if better == "higher" else -1.0
    changes = [sign * (new[s] - base[s]) for s in base.keys() & new.keys()]
    if any(c < 0 for c in changes):
        return "regressed"
    return "improved" if any(c > 0 for c in changes) else "unchanged"


def cmd_diff(args) -> int:
    base = json.loads(Path(args.base).read_text())["runs"]
    new = json.loads(Path(args.new).read_text())["runs"]
    status = 0
    for workload in sorted(set(base) & set(new)):
        b_runs = sorted(base[workload], key=lambda r: r["seed"])
        n_runs = sorted(new[workload], key=lambda r: r["seed"])
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for name, m in END_TO_END.items():
            unit = m["unit"]
            b = [r["metrics"][name] for r in b_runs if name in r["metrics"]]
            n = [r["metrics"][name] for r in n_runs if name in r["metrics"]]
            if not b or not n:
                continue
            if name in DETERMINISTIC:
                v = exact_verdict(
                    {r["seed"]: r["metrics"][name] for r in b_runs if name in r["metrics"]},
                    {r["seed"]: r["metrics"][name] for r in n_runs if name in r["metrics"]},
                    m["better"],
                )
            else:
                v = verdict(b, n, m["better"], m["bound"])
            if v == "regressed":
                status = 1
            _, bm, _ = quartiles(b)
            _, nm, _ = quartiles(n)
            print(f"  {name:<16} base {bm:>12.6g}  new {nm:>12.6g} {unit:<6}"
                  f" change {(nm - bm) / bm:>+8.2%}  base spread {spread(b):>6.2%}  {v}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("repeat", help="run workloads repeatedly and report spreads")
    rp.add_argument("--workloads", nargs="+", default=[w["name"] for w in CONFIG["workloads"]])
    rp.add_argument("--runs", type=int, default=10)
    rp.add_argument("--out", default=None, help="JSON file the runs are added to")
    dp = sub.add_parser("diff", help="compare two repeat files")
    dp.add_argument("base")
    dp.add_argument("new")
    args = ap.parse_args(argv)
    return cmd_repeat(args) if args.cmd == "repeat" else cmd_diff(args)


if __name__ == "__main__":
    sys.exit(main())
