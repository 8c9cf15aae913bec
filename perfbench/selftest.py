"""Tests of the benchmark itself.

Run from the repository root (the file name keeps it out of the
package's own test collection)::

    python3 -m pytest perfbench/selftest.py -q

The session fixture compiles the C engine into a temporary directory
and loads it, so this module must run in its own pytest process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import engine, run  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    CONFIG,
    DIRECTIONS,
    END_TO_END,
    LAYER_NOTES,
    MEANING,
    NAME_RE,
    PER_LAYER,
    UNIT_RE,
    percentile,
)
from perfbench.stability import exact_verdict, summarize  # noqa: E402
from perfbench.tracing import LayerPatches, Tracer  # noqa: E402
from perfbench.workloads import Construct, Dynamic, Online, Routed, Search  # noqa: E402


def small(cls, seed: int = 3):
    """A workload instance with inputs small enough for a unit test."""
    if cls is Dynamic:
        return Dynamic(seed, parts=[small(part, seed) for part in (Online, Search, Routed)])
    sizes = {
        Construct: {"tasks": 40},
        Online: {"jobs": 2, "size": 5},
        Search: {"tasks": 40, "budget": 12},
        Routed: {"tasks": 30},
    }
    return cls(seed, **sizes[cls])


WORKLOAD_CLASSES = [Construct, Dynamic, Online, Search, Routed]
#: The workloads BENCHMARK.json lists; the other three are parts of dynamic.
LISTED = [Construct, Dynamic]


@pytest.fixture(scope="session")
def cext(tmp_path_factory):
    engine.check_tree()
    engine.load_cext(engine.build_cext(tmp_path_factory.mktemp("cext")))


@pytest.mark.parametrize("cls", WORKLOAD_CLASSES, ids=lambda c: c.name)
def test_same_seed_same_input_digest(cext, cls):
    assert small(cls, 3).digest(2) == small(cls, 3).digest(2)
    assert small(cls, 3).digest(2) != small(cls, 4).digest(2)


def test_metric_names_units_and_directions():
    assert [w["name"] for w in CONFIG["workloads"]] == [c.name for c in LISTED]
    for name, m in {**END_TO_END, **PER_LAYER}.items():
        assert NAME_RE.fullmatch(name), name
        assert UNIT_RE.fullmatch(m["unit"]), (name, m["unit"])
        assert m["better"] in DIRECTIONS, (name, m["better"])
    bounds = {name: m["bound"] for name, m in END_TO_END.items()}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_metric_says_what_it_means_and_moves():
    assert set(MEANING) == set(END_TO_END)
    assert set(LAYER_NOTES) == set(PER_LAYER)
    for name, (moves, on, _) in LAYER_NOTES.items():
        assert moves in END_TO_END or moves == "none", name
        # "dynamic (search part)" names the part of dynamic that the layer is in
        assert {w.split("(")[0].strip() for w in on.split(",")} <= {c.name for c in LISTED}, name


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(100), 0.9) == 89
    with pytest.raises(ValueError):
        percentile(range(99), 0.9)
    assert percentile(range(20), 0.5) == 9
    with pytest.raises(ValueError):
        percentile(range(19), 0.5)


def test_repeat_gates_setup_s_like_every_metric():
    runs = [{"metrics": {name: 1.0 for name in END_TO_END}} for _ in range(10)]
    assert summarize(runs)[2]
    for k, r in enumerate(runs):
        r["metrics"]["setup_s"] = 1.0 + k
    assert not summarize(runs)[2]


def test_diff_reports_any_seed_paired_change_of_a_deterministic_metric():
    base = {1: 2.0, 2: 3.0}
    assert exact_verdict(base, {1: 2.0, 2: 3.0}, "lower") == "unchanged"
    assert exact_verdict(base, {1: 2.0, 2: 3.0001}, "lower") == "regressed"
    assert exact_verdict(base, {1: 1.99, 2: 3.0}, "lower") == "improved"
    assert exact_verdict(base, {1: 1.5, 2: 3.01}, "lower") == "regressed"


@pytest.mark.parametrize("cls", WORKLOAD_CLASSES, ids=lambda c: c.name)
def test_traced_self_times_sum_to_operation_wall(cext, cls):
    wl = small(cls)
    tracer = Tracer()
    for i in range(2):
        item = wl.make_item(i)
        with LayerPatches(tracer):
            for _, call in wl.ops(item):
                with tracer.op(i):
                    call()
    assert tracer.ops == 2 * len(wl.ops(wl.make_item(0)))
    assert len(tracer.self_s) > 3
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.op_wall_s, rel=1e-9)
    assert 0 < tracer.residual_s <= tracer.op_wall_s


@pytest.mark.parametrize("cls", WORKLOAD_CLASSES, ids=lambda c: c.name)
def test_quick_smoke(cext, cls):
    wl = small(cls)
    wl.min_ops = 110
    result = run.measure(wl, 0.0)
    assert result.failed == 0, result.errors
    metrics = run.end_to_end(wl, result, 1.0)
    assert list(metrics) == list(END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())

    wl.min_ops = 8
    traced_run, layer, trace, table = run.traced(wl, 0.0)
    assert traced_run.failed == 0, traced_run.errors
    assert list(layer) == list(PER_LAYER)
    assert layer["trace.op_ms"]["value"] > 0
    assert "residual" in table


def test_cli_prints_the_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routed", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
