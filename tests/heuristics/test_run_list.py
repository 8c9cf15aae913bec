"""The list-scheduling loop: ``SchedulerState.run_list`` across engines.

HEFT, PCT and the paper's ILHA hand their whole loop to ``run_list``
(ILHA in chunks with Step-1 budgets): the pure-Python flat state runs
it task by task, the compiled engine in one C call.
The two must agree exactly — placements *in commit order* and transfer
events *in booking order* — for every flat model, with and without
insertion, under the default bottom-level rank and under a
``priority_key`` override; and a platform with a missing link must
fail the same way on both, from inside the compiled loop.
"""

import math

import pytest

from repro import Platform
from repro.core import TaskGraph
from repro.core.exceptions import PlatformError
from repro.graphs import irregular_testbed, layered_testbed, lu_graph, toy_graph, toy_priority_key
from repro.heuristics import HEFT, ILHA, PCT
from repro.heuristics.base import SchedulerState, make_model
from repro.kernel.backends import use_backend
from repro.kernel.cext_backend import cext_available

pytestmark = pytest.mark.skipif(not cext_available(), reason="cext extension not built")

MODELS = ["one-port", "macro-dataflow", "uni-port", "no-overlap"]

TESTBEDS = {
    "lu": lambda: lu_graph(7),
    "layered": lambda: layered_testbed(6, seed=4),
    "irregular": lambda: irregular_testbed(80, seed=9),
}


def scrambled_key(task):
    """A priority override unrelated to bottom levels (many ties)."""
    return (sum(map(ord, repr(task))) % 7,)


SCHEDULERS = {
    "heft": lambda: HEFT(),
    "heft-append": lambda: HEFT(insertion=False),
    "heft-key": lambda: HEFT(priority_key=scrambled_key),
    "pct": lambda: PCT(),
    "pct-insertion": lambda: PCT(insertion=True),
    "ilha": lambda: ILHA(),
    "ilha-b4-append": lambda: ILHA(b=4, insertion=False),
    "ilha-b8-key": lambda: ILHA(b=8, priority_key=scrambled_key),
}


def run(factory, graph, platform, model, backend):
    with use_backend(backend):
        return factory().run(graph, platform, make_model(platform, model))


def assert_same_in_order(ref, got):
    assert list(ref.placements.items()) == list(got.placements.items())
    assert ref.comm_events == got.comm_events


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_run_list_cext_matches_python_flat(name, testbed, model, paper_platform):
    graph = TESTBEDS[testbed]()
    ref = run(SCHEDULERS[name], graph, paper_platform, model, "python")
    got = run(SCHEDULERS[name], graph, paper_platform, model, "cext")
    assert (ref.state_impl, got.state_impl) == ("flat-python", "flat-cext")
    assert_same_in_order(ref, got)


@pytest.mark.parametrize("insertion", [True, False])
def test_toy_priority_key(insertion, two_identical):
    factory = lambda: HEFT(insertion=insertion, priority_key=toy_priority_key)  # noqa: E731
    ref = run(factory, toy_graph(), two_identical, "one-port", "python")
    got = run(factory, toy_graph(), two_identical, "one-port", "cext")
    assert_same_in_order(ref, got)


def test_state_run_list_direct(paper_platform):
    graph = irregular_testbed(60, seed=1)
    model = make_model(paper_platform, "one-port")
    out = {}
    for backend in ("python", "cext"):
        with use_backend(backend):
            state = SchedulerState(graph, paper_platform, model)
            out[backend] = state.run_list(state.priority_rank())
            # the schedule read mid-run and at the end is one object
            assert state.schedule is out[backend]
    assert_same_in_order(out["python"], out["cext"])


def test_rank_must_be_a_permutation(paper_platform):
    graph = lu_graph(4)
    with use_backend("cext"):
        state = SchedulerState(graph, paper_platform, make_model(paper_platform, "one-port"))
        with pytest.raises(ValueError, match="permutation"):
            state.run_list([0] * graph.num_tasks)


def test_missing_link_raises_same_platform_error():
    inf = math.inf
    platform = Platform(
        [1.0, 1.0, 100.0],
        [[0.0, 1.0, 1.0], [1.0, 0.0, inf], [1.0, inf, 0.0]],
    )
    graph = TaskGraph.from_specs(
        [("p", 1.0), ("q", 1.0), ("x", 1.0)], [("p", "x", 1.0), ("q", "x", 1.0)]
    )
    errors = {}
    for backend in ("python", "cext"):
        with use_backend(backend), pytest.raises(PlatformError) as info:
            HEFT().run(graph, platform, "one-port")
        errors[backend] = str(info.value)
    assert errors["python"] == errors["cext"]
    assert "no direct link" in errors["cext"]
