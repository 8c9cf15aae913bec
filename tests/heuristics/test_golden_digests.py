"""Golden digests: every construction engine reproduces the object engine.

The retired object-level engine (one ``Timeline`` per resource, one
overlay trial per candidate) was the reference the flat engines were
asserted bit-identical against.  Its verdicts survive as one SHA-256 per
case in ``golden_digests.json``, recorded at commit ``8e34f94`` (the
last commit that had the engine): placements in task order and the
sorted communication events, every float as ``float.hex`` — the same
strictness as the old flat-vs-object comparison.  The active backend
(``REPRO_BACKEND``) must reproduce every digest.

The cases cover the former flat-vs-object sweep (every heuristic x
testbed x one-hop model), the fixed-allocation, heterogeneous-link,
zero-data and ILHA-reschedule cases, the slow 1000-task fuzz, and the
routed model: every swept heuristic on the paper's processors wired as a
ring and on a five-processor line, over LU, irregular and zero-data
graphs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro import HEFT, ILHA, Platform
from repro.graphs import (
    fork_join_graph,
    irregular_testbed,
    layered_testbed,
    lu_graph,
    toy_graph,
)
from repro.heuristics import available_schedulers, get_scheduler
from repro.models import make_model

DIGESTS = Path(__file__).with_name("golden_digests.json")

SCHEDULER_KWARGS = {
    "fixed": None,
    "ils": None,
    "ilha": {"b": 4, "single_comm_scan": True, "reschedule": True},
}
SWEEP = [n for n in available_schedulers() if SCHEDULER_KWARGS.get(n, {}) is not None]
MODELS = ["one-port", "macro-dataflow", "uni-port", "no-overlap"]
TESTBEDS = {
    "lu": lambda: lu_graph(8),
    "layered": lambda: layered_testbed(5, seed=7),
    "irregular": lambda: irregular_testbed(40, seed=3),
}


def paper_platform() -> Platform:
    return Platform.from_groups([(5, 6), (3, 10), (2, 15)])


def ring_platform() -> Platform:
    """The paper's ten processors on a bidirectional unit ring."""
    base = paper_platform()
    p = base.num_processors
    links = [
        [0.0 if q == r else (1.0 if (q - r) % p in (1, p - 1) else math.inf)
         for r in range(p)]
        for q in range(p)
    ]
    return Platform(base.cycle_times, links)


def line_platform(p: int = 5) -> Platform:
    """P0 - P1 - ... - P(p-1) with unit links and unit speeds."""
    links = [
        [0.0 if q == r else (1.0 if abs(q - r) == 1 else math.inf) for r in range(p)]
        for q in range(p)
    ]
    return Platform([1.0] * p, links)


def hetero_platform() -> Platform:
    return Platform(
        [1.0, 2.0, 3.0],
        [[0.0, 1.0, 2.5], [1.5, 0.0, 0.5], [2.0, 1.0, 0.0]],
    )


def zero_data_toy():
    graph = toy_graph()
    for u, v in list(graph.edges())[:2]:
        graph.set_data(u, v, 0.0)
    return graph


def zero_data_lu():
    """LU-8 with every other edge empty: zero-length hops between real ones."""
    graph = lu_graph(8)
    for i, (u, v) in enumerate(list(graph.edges())):
        if i % 2 == 0:
            graph.set_data(u, v, 0.0)
    return graph


def _fixed(graph):
    return get_scheduler("fixed", alloc={v: i % 3 for i, v in enumerate(graph.tasks())})


def _sweep(name):
    return lambda graph: get_scheduler(name, **SCHEDULER_KWARGS.get(name, {}))


ROUTED_PLATFORMS = {"ring": ring_platform, "line": line_platform}
ROUTED_GRAPHS = {
    "lu-8": lambda: lu_graph(8),
    "irregular-60": lambda: irregular_testbed(60, seed=4),
    "zero-data": zero_data_lu,
}


def _cases() -> dict:
    """case id -> (scheduler factory, graph factory, platform factory, model)."""
    cases = {}
    for name in SWEEP:
        for testbed, graph in TESTBEDS.items():
            for model in MODELS:
                cases[f"sweep/{name}/{testbed}/{model}"] = (
                    _sweep(name), graph, paper_platform, model)
    for model in MODELS:
        cases[f"fixed/{model}"] = (_fixed, lambda: lu_graph(6), paper_platform, model)
        cases[f"hetero-links/{model}"] = (
            lambda g: HEFT(), lambda: layered_testbed(4, seed=11), hetero_platform, model)
    cases["zero-data/one-port"] = (lambda g: HEFT(), zero_data_toy, paper_platform, "one-port")
    cases["ilha-reschedule/one-port"] = (
        lambda g: ILHA(b=4, reschedule=True), lambda: lu_graph(8), paper_platform, "one-port")
    cases["toy/heft/one-port"] = (
        lambda g: HEFT(), toy_graph, lambda: Platform.homogeneous(2, cycle_time=1.0, link=1.0),
        "one-port")
    cases["fork-join/ilha/one-port"] = (
        lambda g: ILHA(b=4), lambda: fork_join_graph(16), paper_platform, "one-port")
    for name in SWEEP:
        for plat, platform in ROUTED_PLATFORMS.items():
            for gname, graph in ROUTED_GRAPHS.items():
                cases[f"routed/{name}/{plat}/{gname}"] = (
                    _sweep(name), graph, platform, "routed")
    return cases


def _slow_cases() -> dict:
    cases = {}
    for seed in range(5):
        for label, make in (("heft", HEFT), ("ilha:b=8", lambda: ILHA(b=8))):
            for model in ("one-port", "macro-dataflow"):
                cases[f"fuzz-1000/{seed}/{label}/{model}"] = (
                    lambda g, make=make: make(),
                    lambda seed=seed: irregular_testbed(1000, seed=seed),
                    paper_platform, model)
    return cases


CASES = _cases()
SLOW_CASES = _slow_cases()


def digest(schedule) -> str:
    """SHA-256 of placements (task order) and sorted events, floats as hex."""
    h = hashlib.sha256()
    for task in schedule.graph.tasks():
        p = schedule.placements[task]
        h.update(f"P|{task!r}|{p.proc}|{float(p.start).hex()}|{float(p.finish).hex()}\n".encode())
    for ev in sorted(schedule.comm_events):
        h.update(
            f"E|{ev.src_task!r}|{ev.dst_task!r}|{ev.src_proc}|{ev.dst_proc}|"
            f"{float(ev.start).hex()}|{float(ev.finish).hex()}|{float(ev.data).hex()}|"
            f"{ev.hop}\n".encode()
        )
    return h.hexdigest()


def run_case(case) -> object:
    make_scheduler, make_graph, make_platform, model = case
    graph = make_graph()
    platform = make_platform()
    return make_scheduler(graph).run(graph, platform, make_model(platform, model))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_case_has_a_digest(golden):
    assert set(golden) == set(CASES) | set(SLOW_CASES)


@pytest.mark.parametrize("cid", sorted(CASES))
def test_matches_object_engine(cid, golden):
    assert digest(run_case(CASES[cid])) == golden[cid]


@pytest.mark.slow
@pytest.mark.parametrize("cid", sorted(SLOW_CASES))
def test_large_fuzz_matches_object_engine(cid, golden):
    assert digest(run_case(SLOW_CASES[cid])) == golden[cid]
