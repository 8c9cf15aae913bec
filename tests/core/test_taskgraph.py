"""Unit tests for the TaskGraph substrate."""

import networkx as nx
import pytest

from repro.core import GraphError, TaskGraph


def diamond() -> TaskGraph:
    g = TaskGraph(name="diamond")
    for v, w in [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]:
        g.add_task(v, w)
    g.add_dependency("a", "b", 10.0)
    g.add_dependency("a", "c", 20.0)
    g.add_dependency("b", "d", 30.0)
    g.add_dependency("c", "d", 40.0)
    return g


class TestConstruction:
    def test_add_task_and_weight(self):
        g = TaskGraph()
        g.add_task("x", 2.5)
        assert g.weight("x") == 2.5
        assert "x" in g
        assert len(g) == 1

    def test_default_weight_is_one(self):
        g = TaskGraph()
        g.add_task("x")
        assert g.weight("x") == 1.0

    def test_zero_weight_allowed(self):
        g = TaskGraph()
        g.add_task("x", 0.0)
        assert g.weight("x") == 0.0

    def test_negative_weight_rejected(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_task("x", -1.0)

    def test_nan_and_inf_weight_rejected(self):
        g = TaskGraph()
        with pytest.raises(GraphError):
            g.add_task("x", float("nan"))
        with pytest.raises(GraphError):
            g.add_task("y", float("inf"))

    def test_duplicate_task_rejected(self):
        g = TaskGraph()
        g.add_task("x")
        with pytest.raises(GraphError):
            g.add_task("x")

    def test_edge_requires_known_tasks(self):
        g = TaskGraph()
        g.add_task("x")
        with pytest.raises(GraphError):
            g.add_dependency("x", "ghost", 1.0)

    def test_self_loop_rejected(self):
        g = TaskGraph()
        g.add_task("x")
        with pytest.raises(GraphError):
            g.add_dependency("x", "x")

    def test_duplicate_edge_rejected(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.add_dependency("a", "b", 5.0)

    def test_negative_data_rejected(self):
        g = TaskGraph()
        g.add_task("x")
        g.add_task("y")
        with pytest.raises(GraphError):
            g.add_dependency("x", "y", -1.0)

    def test_from_specs_roundtrip(self):
        g = TaskGraph.from_specs(
            [("a", 1.0), ("b", 2.0)], [("a", "b", 3.0)], name="spec"
        )
        assert g.name == "spec"
        assert g.data("a", "b") == 3.0

    def test_from_networkx(self):
        nxg = nx.DiGraph()
        nxg.add_node("u", weight=5.0)
        nxg.add_node("v", weight=6.0)
        nxg.add_edge("u", "v", data=7.0)
        g = TaskGraph(nxg)
        assert g.weight("u") == 5.0
        assert g.data("u", "v") == 7.0


class TestQueries:
    def test_counts(self):
        g = diamond()
        assert g.num_tasks == 4
        assert g.num_edges == 4

    def test_entry_exit(self):
        g = diamond()
        assert g.entry_tasks() == ["a"]
        assert g.exit_tasks() == ["d"]

    def test_neighbours(self):
        g = diamond()
        assert sorted(g.successors("a")) == ["b", "c"]
        assert sorted(g.predecessors("d")) == ["b", "c"]
        assert g.in_degree("d") == 2
        assert g.out_degree("a") == 2

    def test_totals(self):
        g = diamond()
        assert g.total_weight() == 10.0
        assert g.total_data() == 100.0

    def test_unknown_task_raises(self):
        g = diamond()
        with pytest.raises(GraphError):
            g.weight("ghost")
        with pytest.raises(GraphError):
            g.predecessors("ghost")
        with pytest.raises(GraphError):
            g.data("a", "d")

    def test_set_weight_and_data(self):
        g = diamond()
        g.set_weight("a", 9.0)
        g.set_data("a", "b", 99.0)
        assert g.weight("a") == 9.0
        assert g.data("a", "b") == 99.0

    def test_scale_data(self):
        g = diamond()
        g.scale_data(0.5)
        assert g.data("a", "b") == 5.0
        assert g.total_data() == 50.0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_setters_reject_what_constructors_reject(self, bad):
        g = diamond()
        with pytest.raises(GraphError, match="finite and >= 0"):
            g.add_task("z", bad)
        with pytest.raises(GraphError, match="finite and >= 0"):
            g.add_dependency("a", "d", bad)
        with pytest.raises(GraphError, match="finite and >= 0"):
            g.set_weight("a", bad)
        with pytest.raises(GraphError, match="finite and >= 0"):
            g.set_data("a", "b", bad)
        with pytest.raises(GraphError, match="finite and >= 0"):
            g.scale_data(bad)
        # a rejected update leaves the graph untouched
        assert g.to_dict() == diamond().to_dict()


class TestTraversal:
    def test_topological_order_is_topological(self):
        g = diamond()
        order = g.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for u, v in g.edges():
            assert pos[u] < pos[v]

    def test_topological_order_deterministic(self):
        assert diamond().topological_order() == diamond().topological_order()

    def test_cycle_detected(self):
        g = TaskGraph()
        g.add_task("x")
        g.add_task("y")
        g.add_dependency("x", "y")
        g.add_dependency("y", "x")
        with pytest.raises(GraphError):
            g.validate()
        with pytest.raises(GraphError):
            g.topological_order()

    def test_cycle_message_names_the_cycle(self):
        g = diamond()
        g.add_dependency("d", "a")
        with pytest.raises(GraphError, match="contains a cycle: .*'d', 'a'"):
            g.validate()

    @pytest.mark.parametrize("seed", range(6))
    def test_topological_order_matches_networkx_lexicographic(self, seed):
        from repro.graphs import make_testbed

        g = make_testbed("irregular", 120, seed=seed) if seed % 2 else make_testbed(
            "layered", 25, seed=seed
        )
        nxg = g.to_networkx()
        index = {v: i for i, v in enumerate(nxg.nodes)}
        want = tuple(nx.lexicographical_topological_sort(nxg, key=index.__getitem__))
        assert g.topological_order() == want

    def test_validate_is_the_cached_topological_order(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("networkx cycle search on a valid graph")

        for name in ("is_directed_acyclic_graph", "find_cycle", "lexicographical_topological_sort"):
            monkeypatch.setattr(nx, name, unused)
        g = diamond()
        g.validate()
        assert g._topo == g.topological_order()
        g.validate()

    def test_levels(self):
        g = diamond()
        assert g.levels() == [["a"], ["b", "c"], ["d"]]

    def test_levels_empty_graph(self):
        assert TaskGraph().levels() == []

    def test_as_maps_consistent(self):
        g = diamond()
        maps = g.as_maps()
        assert maps.weight == {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
        assert maps.preds["d"] == ("b", "c")
        assert maps.succs["a"] == ("b", "c")
        assert maps.data[("c", "d")] == 40.0

    def test_as_maps_invalidated_on_mutation(self):
        g = diamond()
        _ = g.as_maps()
        g.add_task("e", 5.0)
        assert "e" in g.as_maps().weight


class TestSerialization:
    def test_to_dict(self):
        d = diamond().to_dict()
        assert d["name"] == "diamond"
        assert len(d["tasks"]) == 4
        assert len(d["edges"]) == 4

    def test_to_networkx_is_copy(self):
        g = diamond()
        nxg = g.to_networkx()
        nxg.add_node("zzz")
        assert "zzz" not in g


class TestCacheInvalidation:
    """Every mutator clears the validation / order / statics / rank caches."""

    MUTATORS = {
        "add_task": lambda g: g.add_task("e", 5.0),
        "add_dependency": lambda g: g.add_dependency("b", "c", 7.0),
        "set_weight": lambda g: g.set_weight("d", 40.0),
        "set_data": lambda g: g.set_data("c", "d", 1.0),
        "scale_data": lambda g: g.scale_data(3.0),
    }

    @staticmethod
    def warm(g, platform):
        from repro.kernel import compile_statics

        g.validate()
        kernel = compile_statics(g, platform)
        kernel.priority_rank()
        return kernel

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_mutator_clears_every_cache(self, mutator, paper_platform):
        from repro.core.ranking import averaged_comms, averaged_weights, bottom_levels_from
        from repro.kernel import compile_statics

        g = diamond()
        kernel = self.warm(g, paper_platform)
        assert g._topo is not None and kernel._bl is not None and kernel._rank is not None
        self.MUTATORS[mutator](g)
        assert g._topo is None  # the cached validation *is* the order
        assert g._maps is None
        assert g._kernel_cache is None  # statics, and the ranks they hold
        fresh = compile_statics(g, paper_platform)
        assert fresh is not kernel
        assert fresh._bl is None and fresh._rank is None
        # recomputed values follow the mutation
        want = bottom_levels_from(
            g, averaged_weights(g, paper_platform), averaged_comms(g, paper_platform)
        )
        assert dict(zip(fresh.tasks, fresh.bottom_levels())) == want

    @pytest.mark.parametrize("backend", ["python", "cext"])
    def test_cycle_closed_after_a_run_fails_the_next_run(self, backend, paper_platform):
        from repro.heuristics import get_scheduler
        from repro.kernel.backends import use_backend
        from repro.kernel.cext_backend import cext_available

        if backend == "cext" and not cext_available():
            pytest.skip("cext extension not built")
        g = diamond()
        with use_backend(backend):
            first = get_scheduler("heft").run(g, paper_platform, "one-port")
            assert len(first.placements) == 4
            g.add_dependency("d", "a", 1.0)
            with pytest.raises(GraphError, match="cycle"):
                get_scheduler("heft").run(g, paper_platform, "one-port")
