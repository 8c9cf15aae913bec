"""Decision neutrality: instrumentation must never change a schedule.

The observability layer's hard constraint — every counter site is a
pure observer.  For every registered heuristic x flat-capable model x
kernel backend, running under an active :func:`repro.obs.collect`
scope must produce a schedule *bit-identical* (placements, starts,
finishes, comm events, exact float equality) to the stats-off run.
Also covered: the search engine, the online engine, and the campaign
runner, whose event streams and aggregates must match with stats on.
"""

from __future__ import annotations

import pytest

from repro.graphs import irregular_testbed, layered_testbed, lu_graph
from repro.heuristics import available_schedulers, get_scheduler
from repro.heuristics.base import make_model
from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available
from repro.obs import collect, stage_detail_scope

#: Constructor overrides; ``None`` excludes a scheduler from the sweep
#: (``fixed`` needs a per-graph allocation, ``ils`` goes through replay
#: and is exercised separately below).
SCHEDULER_KWARGS = {
    "fixed": None,
    "ils": None,
    "ilha": {"b": 4},
}

#: Every model with a flat booker (the instrumented construction path).
MODELS = ["one-port", "macro-dataflow", "uni-port", "no-overlap"]

BACKENDS = ["python"] + (["cext"] if cext_available() else [])

SWEEP = [n for n in available_schedulers() if SCHEDULER_KWARGS.get(n, {}) is not None]


def assert_identical(a, b):
    assert a.placements.keys() == b.placements.keys()
    for task, placement in a.placements.items():
        other = b.placements[task]
        assert placement.proc == other.proc, f"proc drift on {task!r}"
        assert placement.start == other.start, f"start drift on {task!r}"
        assert placement.finish == other.finish, f"finish drift on {task!r}"
    assert sorted(a.comm_events) == sorted(b.comm_events)
    assert a.makespan() == b.makespan()


def assert_construction_neutral(name, model_name, backend, graph, platform):
    factory = lambda: get_scheduler(name, **SCHEDULER_KWARGS.get(name, {}))  # noqa: E731
    with use_backend(backend):
        off = factory().run(graph, platform, make_model(platform, model_name))
        with collect() as stats:
            on = factory().run(graph, platform, make_model(platform, model_name))
    assert_identical(off, on)
    # the run must also have *observed* something on the flat path
    # (rescheduling heuristics commit trial placements too, so commits
    # is a lower bound, not an equality)
    assert on.state_impl in ("flat-python", "flat-cext")
    assert stats.counters.get("builder.commits", 0) >= len(on.placements)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("name", SWEEP)
def test_construction_identical_with_stats(name, model_name, backend, paper_platform):
    assert_construction_neutral(name, model_name, backend, lu_graph(6), paper_platform)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("name", SWEEP)
def test_irregular_construction_identical_with_stats(
    name, model_name, backend, paper_platform
):
    """The same on an irregular DAG: several entry and exit tasks and
    edges that skip levels, unlike the LU graph's regular waves."""
    graph = irregular_testbed(30, seed=5)
    assert_construction_neutral(name, model_name, backend, graph, paper_platform)


@pytest.mark.skipif(not cext_available(), reason="cext extension not built")
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("name", SWEEP)
def test_cext_reports_what_python_reports(name, model_name, paper_platform):
    """The compiled engine (``run_list`` included) drains exactly the
    python path's counters, and every heuristic opens the same spans."""
    graph = layered_testbed(5, seed=2)
    seen = {}
    for backend in ("python", "cext"):
        with use_backend(backend), collect() as stats, stage_detail_scope():
            get_scheduler(name, **SCHEDULER_KWARGS.get(name, {})).run(
                graph, paper_platform, make_model(paper_platform, model_name)
            )
        seen[backend] = (
            stats.counters,
            sorted({span[0] for span in stats.spans}),
            {n: stats.timers[n][0] for n in ("stage.sweep", "stage.commit") if n in stats.timers},
        )
    assert seen["python"] == seen["cext"]
    if name in ("heft", "pct", "ilha"):
        assert seen["cext"][1] == ["phase.construct", "phase.rank", "phase.statics"]
        assert seen["cext"][2]["stage.commit"] >= graph.num_tasks


@pytest.mark.parametrize("backend", BACKENDS)
def test_stage_timers_are_opt_in(backend, paper_platform):
    """The per-stage breakdown timers (``stage.*``) only record inside
    :func:`stage_detail_scope` — and must stay decision-neutral there."""
    graph = lu_graph(6)
    with use_backend(backend):
        with collect() as plain_stats:
            off = get_scheduler("heft").run(graph, paper_platform, "one-port")
        with collect() as stats, stage_detail_scope():
            on = get_scheduler("heft").run(graph, paper_platform, "one-port")
    assert not any(n.startswith("stage.") for n in plain_stats.timers)
    staged = {n for n in stats.timers if n.startswith("stage.")}
    assert "stage.sweep" in staged and "stage.commit" in staged
    assert stats.timers["stage.sweep"][1] > 0.0
    assert_identical(off, on)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ils_search_identical_with_stats(backend, paper_platform):
    graph = layered_testbed(4, seed=7)
    factory = lambda: get_scheduler(  # noqa: E731
        "ils", base="heft", budget=120, seed=3
    )
    with use_backend(backend):
        off = factory().run(graph, paper_platform, "one-port")
        with collect() as stats:
            on = factory().run(graph, paper_platform, "one-port")
    assert_identical(off, on)
    assert off.search_stats == on.search_stats
    assert stats.counters["search.previews"] == on.search_stats["evals"]
    assert stats.counters["search.commits"] >= on.search_stats["accepted"]


def test_online_engine_identical_with_stats():
    from repro.experiments import paper_platform
    from repro.online import make_workload, simulate_online

    def run():
        workload = make_workload("lu", 8, 4, arrival="poisson:rate=0.002", seed=0)
        return simulate_online(
            workload,
            paper_platform(),
            policy="periodic:period=500",
            noise="lognormal:sigma=0.3",
            seed=0,
            log_events=True,
        )

    off = run()
    with collect() as stats:
        on = run()
    assert off.placements == on.placements
    assert off.transfers == on.transfers
    assert off.event_log == on.event_log
    assert off.aggregate() == on.aggregate()
    assert stats.counters["online.events.arrival"] == 4
    assert stats.counters["online.activities"] > 0


def test_campaign_cells_identical_with_stats():
    from repro.campaign import CampaignSpec, HeuristicSpec, run_campaign

    spec = CampaignSpec(
        name="neutrality",
        testbeds=["lu"],
        sizes=[6],
        heuristics=[HeuristicSpec.of("heft"), HeuristicSpec.of("ilha", {"b": 4})],
        models=["one-port"],
    )

    def rows(result):
        return [
            {k: v for k, v in o.result.as_dict().items() if k != "runtime_s"}
            for o in result.outcomes
        ]

    off = run_campaign(spec, workers=1, cache=None)
    with collect():
        on = run_campaign(spec, workers=1, cache=None)
    assert rows(off) == rows(on)
    assert off.stats is None
    assert on.stats is not None
    assert on.stats["counters"]["campaign.cells"] == 2
