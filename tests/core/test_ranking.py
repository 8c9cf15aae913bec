"""Unit tests for bottom/top levels and critical paths."""

import pytest

from repro.core import (
    Platform,
    TaskGraph,
    bottom_levels,
    critical_path,
    critical_path_length,
    priority_order,
    top_levels,
)
from repro.core.ranking import averaged_comms, averaged_weights


@pytest.fixture
def chain():
    g = TaskGraph()
    for v, w in [("a", 1.0), ("b", 2.0), ("c", 3.0)]:
        g.add_task(v, w)
    g.add_dependency("a", "b", 10.0)
    g.add_dependency("b", "c", 20.0)
    return g


@pytest.fixture
def unit_platform():
    return Platform.homogeneous(2, cycle_time=1.0, link=1.0)


class TestAverages:
    def test_homogeneous_weights_unchanged(self, chain, unit_platform):
        aw = averaged_weights(chain, unit_platform)
        assert aw == {"a": 1.0, "b": 2.0, "c": 3.0}

    def test_heterogeneous_harmonic_mean(self, chain):
        plat = Platform([6.0, 10.0, 10.0, 15.0])
        # harmonic mean = 4 / (1/6 + 1/10 + 1/10 + 1/15)
        hm = 4 / (1 / 6 + 1 / 10 + 1 / 10 + 1 / 15)
        aw = averaged_weights(chain, plat)
        assert aw["b"] == pytest.approx(2.0 * hm)

    def test_comm_average(self, chain, unit_platform):
        ac = averaged_comms(chain, unit_platform)
        assert ac[("a", "b")] == 10.0


class TestBottomLevels:
    def test_chain_values(self, chain, unit_platform):
        bl = bottom_levels(chain, unit_platform)
        assert bl["c"] == 3.0
        assert bl["b"] == 2.0 + 20.0 + 3.0
        assert bl["a"] == 1.0 + 10.0 + bl["b"]

    def test_communications_always_counted(self, unit_platform):
        """The paper: 'it is (conservatively) estimated that
        communications cannot be avoided'."""
        g = TaskGraph()
        g.add_task("p", 1.0)
        g.add_task("q", 1.0)
        g.add_dependency("p", "q", 100.0)
        bl = bottom_levels(g, unit_platform)
        assert bl["p"] == 102.0

    def test_fork_takes_max_child(self, unit_platform):
        g = TaskGraph()
        g.add_task("root", 1.0)
        g.add_task("small", 1.0)
        g.add_task("big", 50.0)
        g.add_dependency("root", "small", 1.0)
        g.add_dependency("root", "big", 1.0)
        bl = bottom_levels(g, unit_platform)
        assert bl["root"] == 1.0 + 1.0 + 50.0

    def test_parent_at_least_child_plus_weight(self, unit_platform):
        from repro.graphs import layered_random

        g = layered_random(5, 4, density=0.5, seed=3)
        bl = bottom_levels(g, unit_platform)
        aw = averaged_weights(g, unit_platform)
        for u, v in g.edges():
            assert bl[u] >= aw[u] + bl[v] - 1e-9


class TestTopLevels:
    def test_entry_zero(self, chain, unit_platform):
        tl = top_levels(chain, unit_platform)
        assert tl["a"] == 0.0
        assert tl["b"] == 11.0
        assert tl["c"] == 11.0 + 2.0 + 20.0

    def test_tl_plus_bl_constant_on_chain(self, chain, unit_platform):
        tl = top_levels(chain, unit_platform)
        bl = bottom_levels(chain, unit_platform)
        lengths = {v: tl[v] + bl[v] for v in chain.tasks()}
        assert len(set(lengths.values())) == 1  # a chain is one path


class TestCriticalPath:
    def test_length_matches_entry_bl(self, chain, unit_platform):
        assert critical_path_length(chain, unit_platform) == pytest.approx(36.0)

    def test_path_is_graph_path(self, unit_platform):
        from repro.graphs import lu_graph

        g = lu_graph(5)
        path = critical_path(g, unit_platform)
        for u, v in zip(path, path[1:]):
            assert g.has_edge(u, v)
        assert g.in_degree(path[0]) == 0
        assert g.out_degree(path[-1]) == 0

    def test_diamond_every_node_on_cp(self, unit_platform):
        """LAPLACE property: in the diamond DAG every node is on a
        critical path (all source->sink paths have equal length)."""
        from repro.graphs import laplace_graph

        g = laplace_graph(4, comm_ratio=1.0)
        tl = top_levels(g, unit_platform)
        bl = bottom_levels(g, unit_platform)
        lengths = {round(tl[v] + bl[v], 9) for v in g.tasks()}
        assert len(lengths) == 1

    def test_empty_graph(self, unit_platform):
        g = TaskGraph()
        assert critical_path(g, unit_platform) == []
        assert critical_path_length(g, unit_platform) == 0.0


class TestPriorityOrder:
    def test_descending_bottom_level(self, chain, unit_platform):
        assert priority_order(chain, unit_platform) == ["a", "b", "c"]

    def test_custom_key(self, chain, unit_platform):
        order = priority_order(chain, unit_platform, key=lambda v: (v,))
        assert order == sorted(chain.tasks())

    def test_ties_broken_by_insertion_index(self, unit_platform):
        g = TaskGraph()
        for v in ("z", "m", "a"):
            g.add_task(v, 1.0)
        assert priority_order(g, unit_platform) == ["z", "m", "a"]


class TestCachedRanks:
    """The statics-cached CSR ranks equal the dict-based reference exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_indexed_bottom_levels_are_float_identical(self, seed, paper_platform):
        from repro.core.ranking import bottom_levels_from
        from repro.graphs import make_testbed

        g = make_testbed("irregular", 300, seed=seed) if seed % 2 else make_testbed(
            "layered", 60, seed=seed
        )
        want = bottom_levels_from(
            g, averaged_weights(g, paper_platform), averaged_comms(g, paper_platform)
        )
        got = bottom_levels(g, paper_platform)
        assert got.keys() == want.keys()
        assert all(got[v].hex() == want[v].hex() for v in want)

    def test_priority_rank_is_the_bottom_level_order(self, paper_platform):
        from repro.graphs import make_testbed
        from repro.heuristics.base import rank_by_key
        from repro.kernel import compile_statics

        g = make_testbed("irregular", 200, seed=5)
        kernel = compile_statics(g, paper_platform)
        bl = bottom_levels(g, paper_platform)
        assert kernel.priority_rank() == rank_by_key(kernel.tasks, lambda v: (-bl[v],))
        assert priority_order(g, paper_platform) == [
            kernel.tasks[i] for i in kernel.priority_list()
        ]

    def test_bottom_levels_returns_a_fresh_dict(self, chain, unit_platform):
        first = bottom_levels(chain, unit_platform)
        first["a"] = -1.0
        assert bottom_levels(chain, unit_platform)["a"] > 0
