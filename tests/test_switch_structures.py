"""Switch structures: validity, temporality, trees, enumeration."""

from __future__ import annotations

from itertools import chain, combinations

import pytest

from conftest import graph_of, path
from oracles import enumerate_svss_by_filtering, slots_by_find, svs_respecting_reach
from tpshift.graph_core import ParameterError, ShiftOperation, ValidityError, apply_shift, reach_set
from tpshift.instances import gen_random
from tpshift.switch_structures import (
    EMPTY_SVS,
    Switch,
    SwitchPathTree,
    enumerate_spts,
    enumerate_svss,
    implied_spt,
    is_temporal_switch,
    is_valid_svs,
    make_svs,
    suffix_union,
    svs_reachability,
    switch_slots,
)


@pytest.fixture
def chain3():
    """Three paths hooked a -> c in sequence, everything temporal as-is."""
    return graph_of(
        path(0, "s a b", (0, 5)),
        path(1, "a c d", (1, 6)),
        path(2, "c e f", (2, 7)),
    )


class TestSwitchPathTree:
    def test_edges_are_sorted_and_deduped(self):
        t = SwitchPathTree(((2, 1), (1, 0), (2, 1)))
        assert t.parents == ((1, 0), (2, 1))

    def test_lookups(self):
        t = SwitchPathTree(((1, 0), (2, 0), (3, 2)))
        assert t.parent_of(3) == 2
        assert t.parent_of(0) is None
        assert t.children_of(0) == [1, 2]
        assert t.members(0) == {0, 1, 2, 3}

    def test_root_only_tree(self):
        t = SwitchPathTree(())
        assert t.members(0) == {0}
        assert t.children_of(0) == []


class TestSwitchValidity:
    def test_single_hop(self, i1):
        assert is_valid_svs(i1, make_svs([Switch("a", 0, 1)]))

    def test_empty_svs_is_valid(self, i1):
        assert is_valid_svs(i1, EMPTY_SVS)

    def test_self_switch_rejected(self, i1):
        assert not is_valid_svs(i1, make_svs([Switch("a", 1, 1)]))

    def test_vertex_missing_from_either_path(self, i1):
        assert not is_valid_svs(i1, make_svs([Switch("b", 0, 1)]))
        assert not is_valid_svs(i1, make_svs([Switch("ghost", 0, 1)]))

    def test_path_id_out_of_range(self, i1):
        assert not is_valid_svs(i1, make_svs([Switch("a", 0, 7)]))

    def test_needs_an_edge_into_the_vertex(self, i1):
        # x heads path 1: nothing arrives there, so it cannot hand a walk over
        assert not is_valid_svs(i1, make_svs([Switch("x", 1, 0)]))

    def test_needs_an_edge_out_on_the_target(self):
        g = graph_of(path(0, "s a b", (0, 1)), path(1, "x y b", (0, 1)))
        assert not is_valid_svs(g, make_svs([Switch("b", 0, 1)]))

    def test_switching_onto_source_path_rejected(self, i1):
        assert not is_valid_svs(i1, make_svs([Switch("a", 1, 0)]))

    def test_two_switches_onto_one_path(self):
        g = graph_of(path(0, "s a b c", (0, 1, 2)), path(1, "z a b w", (0, 1, 2)))
        one = make_svs([Switch("a", 0, 1)])
        other = make_svs([Switch("b", 0, 1)])
        both = make_svs([Switch("a", 0, 1), Switch("b", 0, 1)])
        assert is_valid_svs(g, one) and is_valid_svs(g, other)
        assert not is_valid_svs(g, both)

    def test_from_path_must_chain_to_source(self, chain3):
        assert not is_valid_svs(chain3, make_svs([Switch("c", 1, 2)]))
        assert is_valid_svs(
            chain3, make_svs([Switch("a", 0, 1), Switch("c", 1, 2)])
        )

    def test_cycle_between_paths_rejected(self):
        g = graph_of(
            path(0, "s m", (0,)),
            path(1, "p x y q", (0, 4, 8)),
            path(2, "r y x t", (1, 5, 9)),
        )
        svs = make_svs([Switch("y", 1, 2), Switch("x", 2, 1)])
        assert not is_valid_svs(g, svs)

    def test_off_switch_must_sit_after_the_on_switch(self):
        g = graph_of(
            path(0, "s a b", (0, 9)),
            path(1, "x a y", (1, 5)),
            path(2, "z a w", (2, 7)),
        )
        svs = make_svs([Switch("a", 0, 1), Switch("a", 1, 2)])
        assert not is_valid_svs(g, svs)

    def test_off_switch_strictly_later_is_fine(self):
        g = graph_of(
            path(0, "s a b", (0, 9)),
            path(1, "x a y q", (1, 5, 6)),
            path(2, "z y w", (2, 7)),
        )
        svs = make_svs([Switch("a", 0, 1), Switch("y", 1, 2)])
        assert is_valid_svs(g, svs)

    def test_off_switch_before_the_source_vertex_rejected(self):
        g = graph_of(
            path(0, "x q s b", (0, 2, 5)),
            path(1, "z q w", (0, 9)),
            source="s",
        )
        assert not is_valid_svs(g, make_svs([Switch("q", 0, 1)]))


class TestTemporalSwitch:
    def test_fixture_hop_needs_help(self, i1):
        assert not is_temporal_switch(i1, Switch("a", 0, 1))
        nudged = apply_shift(i1, ShiftOperation(1, 1, 1))
        assert is_temporal_switch(nudged, Switch("a", 0, 1))

    def test_strictness(self):
        g = graph_of(path(0, "s a b", (3, 9)), path(1, "x a y", (0, 3)))
        assert not is_temporal_switch(g, Switch("a", 0, 1))

    def test_structurally_invalid_switch_raises(self, i1):
        with pytest.raises(ValidityError):
            is_temporal_switch(i1, Switch("a", 1, 1))

    def test_chain_fixture_is_temporal(self, chain3):
        assert is_temporal_switch(chain3, Switch("a", 0, 1))
        assert is_temporal_switch(chain3, Switch("c", 1, 2))


class TestSuffixUnion:
    def test_empty_svs_is_source_suffix(self, i1):
        assert suffix_union(i1, EMPTY_SVS, "s") == {"s", "a", "b"}

    def test_mid_path_start(self, i1):
        assert suffix_union(i1, EMPTY_SVS, "a") == {"a", "b"}

    def test_chain(self, chain3):
        svs = make_svs([Switch("a", 0, 1), Switch("c", 1, 2)])
        assert suffix_union(chain3, svs, "s") == {"s", "a", "b", "c", "d", "e", "f"}

    def test_suffixes_start_at_the_switch_vertex(self, chain3):
        svs = make_svs([Switch("a", 0, 1)])
        assert suffix_union(chain3, svs, "s") == {"s", "a", "b", "c", "d"}

    def test_start_not_on_source_path(self, i1):
        with pytest.raises(ValidityError):
            suffix_union(i1, EMPTY_SVS, "x")


class TestSvsReachability:
    def test_chain_counts_everything(self, chain3):
        svs = make_svs([Switch("a", 0, 1), Switch("c", 1, 2)])
        assert svs_reachability(chain3, svs, "s") == set(chain3.vertices())

    def test_rejects_invalid(self, chain3):
        with pytest.raises(ValidityError):
            svs_reachability(chain3, make_svs([Switch("c", 1, 2)]), "s")

    def test_rejects_non_temporal(self, i1):
        with pytest.raises(ValidityError):
            svs_reachability(i1, make_svs([Switch("a", 0, 1)]), "s")

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_switch_respecting_walks(self, seed):
        g = gen_random(2 + seed % 2, 3, 9, 0.6, seed=300 + seed)
        for svs in enumerate_svss(g):
            if not all(is_temporal_switch(g, sw) for sw in svs.switches):
                continue
            assert svs_reachability(g, svs, "s") == svs_respecting_reach(g, svs, "s")

    @pytest.mark.parametrize("seed", range(12))
    def test_best_svs_attains_plain_reachability(self, seed):
        """For any fixed labeling the best switch set ties the true reach."""
        g = gen_random(2 + seed % 2, 3, 9, 0.6, seed=500 + seed)
        best = 0
        for svs in enumerate_svss(g):
            if all(is_temporal_switch(g, sw) for sw in svs.switches):
                best = max(best, len(suffix_union(g, svs, "s")))
        assert best == len(reach_set(g, "s"))


class TestImpliedSpt:
    def test_transitions_only(self, chain3):
        svs = make_svs([Switch("a", 0, 1), Switch("c", 1, 2)])
        assert implied_spt(svs).parents == ((1, 0), (2, 1))

    def test_empty(self):
        assert implied_spt(EMPTY_SVS).parents == ()


class TestEnumerateSpts:
    @pytest.mark.parametrize("k,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
    def test_spanning_counts(self, k, count):
        assert sum(1 for _ in enumerate_spts(k)) == count

    @pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 6)])
    def test_partial_counts(self, k, count):
        assert sum(1 for _ in enumerate_spts(k, include_partial=True)) == count

    def test_partial_streams_root_only_first(self):
        first = next(enumerate_spts(4, include_partial=True))
        assert first.parents == ()

    def test_all_trees_reach_root(self):
        for spt in enumerate_spts(4, include_partial=True):
            for child, _ in spt.parents:
                cur = child
                for _ in range(5):
                    if cur == 0:
                        break
                    cur = spt.parent_of(cur)
                assert cur == 0

    def test_other_root(self):
        trees = list(enumerate_spts(3, root=2))
        assert len(trees) == 3
        assert all(t.parent_of(2) is None for t in trees)

    def test_no_duplicates(self):
        trees = list(enumerate_spts(5, include_partial=True))
        assert len(trees) == len(set(trees))

    def test_deterministic(self):
        assert list(enumerate_spts(4, include_partial=True)) == list(
            enumerate_spts(4, include_partial=True)
        )

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            list(enumerate_spts(0))
        with pytest.raises(ParameterError):
            list(enumerate_spts(3, root=3))


def _powerset(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def _brute_svss(g):
    plausible = []
    for p in range(g.k):
        for q in range(g.k):
            if p == q:
                continue
            for v in g.paths[q].vertices:
                sw = Switch(v, p, q)
                from tpshift.switch_structures import _switch_edge_positions

                if _switch_edge_positions(g, sw) is not None:
                    plausible.append(sw)
    assert len(plausible) <= 14, "instance too big for the powerset check"
    return {make_svs(sub) for sub in _powerset(plausible) if is_valid_svs(g, make_svs(sub))}


class TestEnumerateSvss:
    def test_fixture_sets(self, i1):
        got = list(enumerate_svss(i1))
        assert got[0] == EMPTY_SVS
        assert set(got) == {EMPTY_SVS, make_svs([Switch("a", 0, 1)])}

    def test_chain_sets(self, chain3):
        got = set(enumerate_svss(chain3))
        assert got == {
            EMPTY_SVS,
            make_svs([Switch("a", 0, 1)]),
            make_svs([Switch("a", 0, 1), Switch("c", 1, 2)]),
        }

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_filtered_powerset(self, seed):
        g = gen_random(2 + seed % 2, 3, 9, 0.5, seed=700 + seed)
        got = list(enumerate_svss(g))
        assert len(got) == len(set(got)), "duplicate switch sets in the stream"
        assert set(got) == _brute_svss(g)

    @pytest.mark.parametrize("seed", range(12))
    def test_stream_order_matches_the_filtered_product(self, seed):
        # order decides which of two equal candidates a solver keeps
        k = 3 + seed % 3
        g = gen_random(k, 5 if k < 5 else 4, 12, 0.6 + 0.1 * (seed % 3), seed=1300 + seed)
        assert list(enumerate_svss(g)) == list(enumerate_svss_by_filtering(g))

    @pytest.mark.parametrize("seed", [*range(8), pytest.param(None, id="source-off-path")])
    def test_every_yielded_set_is_valid(self, seed):
        if seed is None:  # not even the empty set is valid here
            g = graph_of(path(0, "a b c", [1, 2]), path(1, "b d", [3]))
        else:
            g = gen_random(3, 3, 9, 0.7, seed=900 + seed)
        for svs in enumerate_svss(g):
            assert is_valid_svs(g, svs)


class TestSwitchSlots:
    def test_ends_of_paths(self):
        # a opens path 1 and ends path 0; b is last on path 1; c is first on
        # path 0: only (0 -> 1, a) and (1 -> 0, c) have an edge in and out
        g = graph_of(path(0, "c s a", (1, 2)), path(1, "a x c b", (0, 3, 4)), source="s")
        assert switch_slots(g) == {(0, 1): ((2, 0),), (1, 0): ((2, 0),)}
        assert switch_slots(g) == {key: tuple(v) for key, v in slots_by_find(g).items()}

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_per_vertex_find_scan(self, seed):
        g = gen_random(2 + seed % 4, 4 + seed % 3, 12, 0.5 + 0.1 * (seed % 4), seed=1600 + seed)
        want = slots_by_find(g)
        assert switch_slots(g) == {key: tuple(v) for key, v in want.items()}
