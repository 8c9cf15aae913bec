"""Cross-backend equivalence: the cext backend vs pure Python.

The acceptance property of the backend registry: for every registered
heuristic x flat-capable model x testbed, the compiled backend
``cext`` (``CextSchedulerState``: the C booking engine) produces
*bit-identical* schedules to the pure-Python default: placements,
starts, finishes, and communication events, exact float equality and
the same commit order.  The same holds on degenerate inputs (1e9 time
magnitudes, zero weights and volumes, all-equal costs) for every
heuristic x model, where both schedules must also validate; for the
routed model on a ring and a line; and on a 200-hop chain past 1e9.

Also here: the backend registry surface (selection precedence, unknown
names, the ``REPRO_BACKEND`` environment channel) and the
engine-visibility regressions — every registered model, routed
included, runs on the engine of the selected backend without a warning,
a model without a C booker (a user subclass) gets the pure-Python
state, a ``cext`` selection without the compiled extension must degrade
to the pure-Python state with one ``repro.kernel`` warning, and
``Schedule.state_impl`` must record the engine that actually ran.
"""

import logging
import math

import pytest
from test_golden_digests import ROUTED_PLATFORMS

from repro import Platform
from repro.core import TaskGraph, validate_schedule
from repro.core.exceptions import ConfigurationError
from repro.graphs import irregular_testbed, layered_testbed, lu_graph
from repro.heuristics import available_schedulers, get_scheduler
from repro.kernel import backends, cext_backend
from repro.kernel.backends import (
    available_backends,
    current_backend_name,
    get_backend,
    set_backend,
    use_backend,
)
from repro.kernel.cext_backend import cext_available
from repro.models import (
    OnePortModel,
    RoutedOnePortModel,
    available_models,
    make_model,
    validate_no_overlap,
    validate_uni_port,
)

#: The accelerated backends under test, each compared against the
#: pure-Python reference; cext rows skip when the extension isn't built.
needs_cext = pytest.mark.skipif(
    not cext_available(), reason="cext extension not built"
)
ACCEL_BACKENDS = [
    pytest.param("cext", marks=needs_cext),
]

TESTBEDS = {
    "lu": lambda: lu_graph(8),
    "layered": lambda: layered_testbed(5, seed=7),
    "irregular": lambda: irregular_testbed(40, seed=3),
}

#: Constructor overrides for schedulers that need arguments; ``None``
#: marks schedulers excluded from the sweep (fixed needs a per-graph
#: allocation and is exercised separately below; ils improves through
#: replay, not through SchedulerState, and multiplies runtime).
SCHEDULER_KWARGS = {
    "fixed": None,
    "ils": None,
    "ilha": {"b": 4, "single_comm_scan": True, "reschedule": True},
}

MODELS = ["one-port", "macro-dataflow", "uni-port", "no-overlap"]


def assert_identical(a, b):
    """Exact equality of two schedules, field by field, in commit order."""
    assert list(a.placements) == list(b.placements)
    for task, placement in a.placements.items():
        other = b.placements[task]
        assert placement.proc == other.proc, f"proc drift on {task!r}"
        assert placement.start == other.start, f"start drift on {task!r}"
        assert placement.finish == other.finish, f"finish drift on {task!r}"
    assert a.comm_events == b.comm_events
    assert a.makespan() == b.makespan()


def run_on_backend(scheduler, graph, platform, model_name, backend):
    with use_backend(backend):
        return scheduler.run(graph, platform, make_model(platform, model_name))


SWEEP = [n for n in available_schedulers() if SCHEDULER_KWARGS.get(n, {}) is not None]


def _magnitude_1e9():
    """Weights and volumes scaled by 1e7: makespans land past 1e9, where
    absolute epsilons break."""
    graph = irregular_testbed(30, seed=5)
    for task in graph:
        graph.set_weight(task, graph.weight(task) * 1e7)
    return graph.scale_data(1e7)


def _zero_costs():
    """Every third task weightless and every other edge empty: zero-length
    windows and instantaneous messages, which conflict with nothing."""
    graph = layered_testbed(5, seed=7)
    for i, task in enumerate(graph.topological_order()):
        if i % 3 == 0:
            graph.set_weight(task, 0.0)
    for i, (src, dst) in enumerate(list(graph.edges())):
        if i % 2 == 0:
            graph.set_data(src, dst, 0.0)
    return graph


def _ties():
    """Unit weights and volumes everywhere: estimates tie across
    processors of a speed group, so only the tie-breaks decide."""
    graph = layered_testbed(5, seed=7)
    for task in graph:
        graph.set_weight(task, 1.0)
    for src, dst in list(graph.edges()):
        graph.set_data(src, dst, 1.0)
    return graph


#: Degenerate and adversarial instances for the differential.
ADVERSARIAL = {
    "magnitude-1e9": _magnitude_1e9,
    "zero-costs": _zero_costs,
    "ties": _ties,
}

#: The model-specific checker of each model's extra rules.
VALIDATORS = {"uni-port": validate_uni_port, "no-overlap": validate_no_overlap}


ROUTED_GRAPHS = {
    "irregular": lambda: irregular_testbed(40, seed=3),
    "magnitude-1e9": _magnitude_1e9,
    "zero-costs": _zero_costs,
}


@pytest.mark.parametrize("backend", ACCEL_BACKENDS)
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
@pytest.mark.parametrize("name", SWEEP)
def test_accel_matches_python_for_every_heuristic(
    name, testbed, model_name, backend, paper_platform
):
    scheduler = get_scheduler(name, **SCHEDULER_KWARGS.get(name, {}))
    graph = TESTBEDS[testbed]()
    ref = run_on_backend(scheduler, graph, paper_platform, model_name, "python")
    acc = run_on_backend(scheduler, graph, paper_platform, model_name, backend)
    assert_identical(ref, acc)


@needs_cext
@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
@pytest.mark.parametrize("name", SWEEP)
def test_adversarial_inputs_match_python(name, case, model_name, paper_platform):
    """The differential on degenerate inputs: the compiled engine runs
    and agrees with the reference bit for bit."""
    scheduler = get_scheduler(name, **SCHEDULER_KWARGS.get(name, {}))
    graph = ADVERSARIAL[case]()
    ref = run_on_backend(scheduler, graph, paper_platform, model_name, "python")
    acc = run_on_backend(scheduler, graph, paper_platform, model_name, "cext")
    assert acc.state_impl == "flat-cext"
    assert_identical(ref, acc)
    validate = VALIDATORS.get(model_name, validate_schedule)
    validate(ref)
    validate(acc)


@needs_cext
@pytest.mark.parametrize("graph_name", sorted(ROUTED_GRAPHS))
@pytest.mark.parametrize("kind", ["ring", "line"])
@pytest.mark.parametrize("name", SWEEP)
def test_routed_matches_python(name, kind, graph_name):
    """The routed differential: multi-hop bookings agree bit for bit and
    in commit order, past 1e9 and with zero-length hops, and both
    schedules validate (hop chains plus the one-port rules)."""
    scheduler = get_scheduler(name, **SCHEDULER_KWARGS.get(name, {}))
    graph = ROUTED_GRAPHS[graph_name]()
    platform = ROUTED_PLATFORMS[kind]()
    ref = run_on_backend(scheduler, graph, platform, "routed", "python")
    acc = run_on_backend(scheduler, graph, platform, "routed", "cext")
    assert (ref.state_impl, acc.state_impl) == ("flat-python", "flat-cext")
    assert_identical(ref, acc)
    validate_schedule(ref)
    validate_schedule(acc)


@needs_cext
@pytest.mark.parametrize("name", ["heft", "ilha"])
@pytest.mark.parametrize("seed", [0, 11, 23])
def test_large_irregular_fuzz(name, seed, paper_platform):
    """1000-task instances grow the C engine's rows past their initial
    capacity and exercise its journal and seed memo over long rows;
    none of it may move a single float."""
    graph = irregular_testbed(1000, seed=seed)
    scheduler = get_scheduler(name)
    ref = run_on_backend(scheduler, graph, paper_platform, "one-port", "python")
    acc = run_on_backend(scheduler, graph, paper_platform, "one-port", "cext")
    assert_identical(ref, acc)


@needs_cext
def test_200_hop_chain_at_1e9_identical():
    """The long-chain tolerance regression (200 hops, makespan past
    1e9) on a fixed alternating allocation: the compiled engine keeps
    the scale-aware semantics, so both schedules validate with the
    shared ``time_tol`` and agree bit for bit."""
    platform = Platform.homogeneous(2, cycle_time=1.0, link=1.0)
    hops, scale = 200, 1e7
    tasks = [(f"t{i}", scale) for i in range(hops + 1)]
    edges = [(f"t{i}", f"t{i + 1}", scale / 2) for i in range(hops)]
    graph = TaskGraph.from_specs(tasks, edges, name="chain-200")
    alloc = {f"t{i}": i % 2 for i in range(hops + 1)}
    scheduler = get_scheduler("fixed", alloc=alloc)
    ref = run_on_backend(scheduler, graph, platform, "one-port", "python")
    acc = run_on_backend(scheduler, graph, platform, "one-port", "cext")
    validate_schedule(ref)
    validate_schedule(acc)
    assert ref.makespan() > 1e9
    assert acc.state_impl == "flat-cext"
    assert_identical(ref, acc)


@pytest.mark.parametrize("backend", ACCEL_BACKENDS)
def test_fixed_allocation_equivalence(backend, paper_platform):
    graph = lu_graph(6)
    alloc = {t: i % paper_platform.num_processors for i, t in enumerate(graph)}
    scheduler = get_scheduler("fixed", alloc=alloc)
    ref = run_on_backend(scheduler, graph, paper_platform, "one-port", "python")
    acc = run_on_backend(scheduler, graph, paper_platform, "one-port", backend)
    assert_identical(ref, acc)


def test_state_impl_recorded_per_backend(paper_platform):
    graph = lu_graph(4)
    with use_backend("python"):
        sched = get_scheduler("heft").run(graph, paper_platform, "one-port")
    assert sched.state_impl == "flat-python"
    assert sched.summary()["state_impl"] == "flat-python"


@needs_cext
def test_state_impl_recorded_for_cext(paper_platform):
    with use_backend("cext"):
        sched = get_scheduler("heft").run(lu_graph(4), paper_platform, "one-port")
    assert sched.state_impl == "flat-cext"
    assert sched.summary()["state_impl"] == "flat-cext"


# ----------------------------------------------------------------------
# registry surface
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_backends_registered(self):
        assert available_backends() == ["cext", "python"]

    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(backends.BACKEND_ENV, raising=False)
        monkeypatch.setattr(backends, "_ACTIVE", None)
        assert current_backend_name() == "python"

    def test_environment_channel(self, monkeypatch):
        """cext is selectable through REPRO_BACKEND regardless of
        whether the extension is built — degradation happens at state
        construction, not at registry lookup."""
        monkeypatch.setenv(backends.BACKEND_ENV, "cext")
        monkeypatch.setattr(backends, "_ACTIVE", None)
        assert current_backend_name() == "cext"

    def test_explicit_python_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "cext")
        with use_backend("python"):
            assert current_backend_name() == "python"

    def test_unknown_environment_value_falls_back(self, monkeypatch):
        monkeypatch.setattr(backends, "_ACTIVE", None)
        for name in ("fortran", "numpy"):  # numpy: a retired engine
            monkeypatch.setenv(backends.BACKEND_ENV, name)
            assert current_backend_name() == "python"

    def test_explicit_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv(backends.BACKEND_ENV, "python")
        with use_backend("cext"):
            assert current_backend_name() == "cext"

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            set_backend("fortran")
        with pytest.raises(ConfigurationError):
            get_backend("fortran")

    def test_use_backend_restores(self):
        before = current_backend_name()
        with use_backend("cext"):
            assert current_backend_name() == "cext"
        assert current_backend_name() == before


# ----------------------------------------------------------------------
# engine visibility (regression: the routed model used to fall back to
# a third, object-level engine with a warning)
# ----------------------------------------------------------------------
class TestEngineVisibility:
    def _routed_run(self):
        inf = math.inf
        line = Platform(
            [1.0, 1.0, 1.0],
            [[0.0, 1.0, inf], [1.0, 0.0, 1.0], [inf, 1.0, 0.0]],
        )
        graph = TaskGraph.from_specs(
            [("u", 2.0), ("v", 3.0), ("w", 1.0)],
            [("u", "v", 4.0), ("v", "w", 2.0)],
        )
        alloc = {"u": 0, "v": 2, "w": 0}
        return get_scheduler("fixed", alloc=alloc), graph, line

    @pytest.mark.parametrize("backend, impl", [
        ("python", "flat-python"),
        pytest.param("cext", "flat-cext", marks=needs_cext),
    ])
    def test_routed_runs_on_the_selected_engine_silently(self, backend, impl, caplog):
        scheduler, graph, line = self._routed_run()
        with use_backend(backend):
            with caplog.at_level(logging.WARNING):
                sched = scheduler.run(graph, line, RoutedOnePortModel(line))
        assert not caplog.records
        assert sched.state_impl == impl
        assert [e.hop for e in sched.comm_events] == [0, 1, 0, 1]
        validate_schedule(sched)

    @needs_cext
    def test_every_registered_model_has_a_c_booker(self, paper_platform):
        from repro.heuristics.state_cext import _model_code

        for name in available_models():
            assert _model_code(make_model(paper_platform, name)) is not None, name

    @needs_cext
    def test_model_subclass_runs_on_python_state(self, paper_platform):
        """Exact-type dispatch: a subclass may override a booking hook,
        so the compiled booker of its base class must not run it."""

        class CustomOnePort(OnePortModel):
            pass

        with use_backend("cext"):
            sched = get_scheduler("heft").run(
                lu_graph(4), paper_platform, CustomOnePort(paper_platform)
            )
        assert sched.state_impl == "flat-python"


# ----------------------------------------------------------------------
# graceful degradation without a compiler: simulate the extension being
# absent (the state every user without a C toolchain is in)
# ----------------------------------------------------------------------
class TestCextGracefulDegradation:
    @pytest.fixture()
    def no_extension(self, monkeypatch):
        monkeypatch.setattr(cext_backend, "_cext", None)
        monkeypatch.setattr(
            cext_backend, "_IMPORT_ERROR",
            "No module named 'repro.kernel._cext'",
        )
        monkeypatch.setattr(cext_backend, "_WARNED", False)

    def test_availability_probes(self, no_extension):
        assert not cext_backend.cext_available()
        assert "repro.kernel._cext" in cext_backend.cext_import_error()
        assert cext_backend.cext_build_info() is None

    def test_backend_still_registered(self, no_extension):
        assert "cext" in available_backends()
        model = OnePortModel(Platform.homogeneous(2))
        assert get_backend("cext").state_class(model) is None

    def test_falls_back_to_python_state_with_one_warning(
        self, no_extension, paper_platform, caplog
    ):
        graph = lu_graph(6)
        with caplog.at_level(logging.WARNING, logger="repro.kernel"):
            with use_backend("cext"):
                sched = get_scheduler("heft").run(graph, paper_platform, "one-port")
                again = get_scheduler("heft").run(graph, paper_platform, "one-port")
        # ran, on the pure-Python state, and recorded what actually ran
        assert sched.state_impl == "flat-python"
        assert again.state_impl == "flat-python"
        warnings = [
            r for r in caplog.records
            if "compiled extension is not available" in r.getMessage()
        ]
        assert len(warnings) == 1, "expected exactly one fallback warning"
        assert warnings[0].name == "repro.kernel"
        assert "build_ext" in warnings[0].getMessage()

    def test_fallback_schedule_matches_python(self, no_extension, paper_platform):
        graph = irregular_testbed(40, seed=3)
        scheduler = get_scheduler("ilha", b=4)
        ref = run_on_backend(scheduler, graph, paper_platform, "one-port", "python")
        fb = run_on_backend(scheduler, graph, paper_platform, "one-port", "cext")
        assert_identical(ref, fb)
