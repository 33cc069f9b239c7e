"""Free-relabeling solver: pick labels so the source reaches the most."""

from __future__ import annotations

import pytest

from conftest import graph_of, path
from tpshift.graph_core import (
    BasePath,
    InvalidInstanceError,
    Mode,
    TemporalKPathGraph,
    reach_set,
    validate,
)
from tpshift.instances import gen_random
from tpshift.solver_budgeted import solve_xp_by_b
from tpshift.solver_unbounded import Temporalization, best_svs_for_spt, solve_mrpt
from tpshift.switch_structures import (
    Switch,
    SwitchPathTree,
    earliest_sites,
    make_svs,
    switch_slots,
)


def relabeled(graph: TemporalKPathGraph, temp: Temporalization) -> TemporalKPathGraph:
    paths = tuple(
        BasePath(p.path_id, p.vertices, temp.labels[p.path_id]) for p in graph.paths
    )
    return TemporalKPathGraph(graph.k, paths, graph.source, graph.source_path_id)


class TestBestSvsForSpt:
    def test_picks_earliest_shared_vertex(self):
        g = graph_of(path(0, "s a b c", (0, 1, 2)), path(1, "z a b w", (0, 1, 2)))
        svs = best_svs_for_spt(g, "s", SwitchPathTree(((1, 0),)))
        assert svs == make_svs([Switch("a", 0, 1)])

    def test_unrealizable_edge_gives_none(self):
        g = graph_of(path(0, "s a", (0,)), path(1, "p q", (0,)))
        assert best_svs_for_spt(g, "s", SwitchPathTree(((1, 0),))) is None

    def test_child_vertex_must_sit_after_parent_anchor(self):
        # q precedes s on the source path, so the hop cannot be boarded
        g = graph_of(path(0, "x q s b", (0, 1, 2)), path(1, "z q w", (0, 1)), source="s")
        assert best_svs_for_spt(g, "s", SwitchPathTree(((1, 0),))) is None

    def test_root_only_tree(self, i1):
        assert best_svs_for_spt(i1, "s", SwitchPathTree(())) == make_svs(())
        # even the root-only tree needs its start on the source path
        assert best_svs_for_spt(i1, "zz", SwitchPathTree(())) is None

    @pytest.mark.parametrize(
        "parents",
        [
            ((1, 2), (2, 1)),  # a cycle off the source path
            ((1, 1),),  # a self-loop, which has no slot table entry
            ((1, 0), (1, 1)),  # a placed edge, then a self-loop
            ((2, 1),),  # an edge whose parent is not in the tree
            ((1, 0), (2, 1), (0, 2)),  # a cycle through the source path
        ],
    )
    def test_tree_not_under_the_source_path_gives_none(self, parents):
        g = gen_random(3, 5, 15, 0.6, 1)
        spt = SwitchPathTree(parents)
        assert best_svs_for_spt(g, "s", spt) is None
        assert earliest_sites(g, spt, 0, switch_slots(g)) is None


class TestSolveMrpt:
    def test_a_spanning_tree_wins_a_tie_in_reach(self):
        # {1:0} and {1:0, 2:1} both reach s a b c x: path 2 adds only c and
        # b, which path 0 and path 1 already reach; the spanning tree wins
        # although the partial one comes first in canonical order
        g = graph_of(path(0, "s a b", (0, 1)), path(1, "a c x", (0, 1)), path(2, "c b", (0,)))
        temp = solve_mrpt(g.paths, "s")
        assert temp.spt.parents == ((1, 0), (2, 1))
        assert temp.svs == make_svs([Switch("a", 0, 1), Switch("c", 1, 2)])
        assert temp.reached == frozenset("sabcx")

    def test_fixture(self, i1):
        temp = solve_mrpt(i1.paths, "s")
        assert temp.labels == ((0, 1), (5, 6))
        assert temp.reached == {"s", "a", "b", "y"}
        assert temp.spt.parents == ((1, 0),)
        assert temp.svs == make_svs([Switch("a", 0, 1)])

    def test_three_path_chain(self):
        g = graph_of(
            path(0, "s a b", (0, 5)),
            path(1, "a c d", (1, 6)),
            path(2, "c e f", (2, 7)),
        )
        temp = solve_mrpt(g.paths, "s")
        assert temp.labels == ((0, 1), (7, 8), (14, 15))
        assert temp.reached == set(g.vertices())
        assert temp.spt.parents == ((1, 0), (2, 1))

    def test_isolated_path_is_parked_in_the_past(self, i1):
        g = graph_of(*i1.paths, path(2, "p q", (0,)))
        temp = solve_mrpt(g.paths, "s")
        assert temp.labels == ((0, 1), (6, 7), (-7,))
        assert temp.reached == {"s", "a", "b", "y"}
        assert 2 not in temp.spt.members(0)

    def test_source_must_head_exactly_one_path(self):
        mid = graph_of(path(0, "x s y", (0, 1)))
        with pytest.raises(InvalidInstanceError):
            solve_mrpt(mid.paths, "s")
        twice = graph_of(path(0, "s a", (0,)), path(1, "s b", (0,)))
        with pytest.raises(InvalidInstanceError):
            solve_mrpt(twice.paths, "s")
        with pytest.raises(InvalidInstanceError):
            solve_mrpt(mid.paths, "ghost")

    def test_deterministic(self, i1):
        assert solve_mrpt(i1.paths, "s") == solve_mrpt(i1.paths, "s")

    @pytest.mark.parametrize("seed", range(12))
    def test_relabeling_is_sound(self, seed):
        g = gen_random(2 + seed % 2, 3, 9, 0.5, seed=1400 + seed)
        temp = solve_mrpt(g.paths, "s")
        out = relabeled(g, temp)
        assert validate(out) == []
        # the witness certifies exactly the true reach of the new labeling
        assert temp.reached == reach_set(out, "s")

    @pytest.mark.parametrize("seed", range(1))
    def test_matches_big_budget_search(self, seed):
        """With enough budget, shifting the given labels ties free relabeling."""
        g = gen_random(2, 3, 3, 0.6, seed=1500 + seed)
        span = max(t for p in g.paths for t in p.labels) - min(
            t for p in g.paths for t in p.labels
        )
        budget = g.k * (span + g.total_edges())
        sol = solve_xp_by_b(g, "s", budget, Mode.SHIFT)
        temp = solve_mrpt(g.paths, "s")
        assert len(temp.reached) == len(sol.reached)
