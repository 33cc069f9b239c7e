"""Switch structures: validity, temporality, trees, enumeration."""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODES, graph_of, path
from oracles import (
    enumerate_svss_by_filtering,
    is_valid_svs_by_switches,
    min_cost_for_svs_by_names,
    slots_by_find,
    suffix_union_by_switches,
    svs_respecting_reach,
)
from tpshift.graph_core import ParameterError, ShiftOperation, ValidityError, apply_shift, reach_set
from tpshift.instances import gen_random
from tpshift.solver_budgeted import min_cost_for_svs
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
    spt_rank,
    suffix_union,
    svs_reachability,
    switch_slots,
    _switch_edge_positions,
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

    @pytest.mark.parametrize(
        "sw",
        [
            Switch("v5", 0, -1),  # path -1: list indexing would read path 2
            Switch("v5", 0, 3),  # path 3: off this 3-path graph
            Switch("zz", 0, 1),  # a vertex on no path
        ],
    )
    def test_a_switch_that_is_not_structural_is_rejected(self, sw):
        g = gen_random(3, 4, 10, 0.8, 5)
        with pytest.raises(ValidityError):
            suffix_union(g, make_svs([sw]), "s")


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

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("partial", (False, True))
    def test_rank_orders_as_the_enumeration(self, k, partial):
        # spt_rank gives the enumeration's order for every root, so the
        # budgeted solvers' tie rule does not depend on how trees are listed
        for root in range(k):
            trees = list(enumerate_spts(k, include_partial=partial, root=root))
            assert sorted(trees, key=spt_rank) == trees
            assert len({spt_rank(spt) for spt in trees}) == len(trees)

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

    @pytest.mark.parametrize("seed", range(6))
    def test_a_mid_path_source_streams_as_the_filtered_product(self, seed):
        # trees are placed from the source's own position on its path, so
        # a later source keeps only the sets that switch off after it
        g = gen_random(3 + seed % 2, 5, 12, 0.7, seed=1400 + seed)
        mid = replace(g, source=g.paths[0].vertices[1 + seed % 3])
        got = list(enumerate_svss(mid))
        assert got == list(enumerate_svss_by_filtering(mid))
        assert set(got) <= set(enumerate_svss(g))

    def test_a_source_off_its_path_has_no_sets(self):
        # s is on path 1 only, so path 0 cannot be boarded at all
        g = graph_of(path(0, "a b c", [1, 2]), path(1, "s b d", [0, 3]))
        assert list(enumerate_svss(g)) == [] == list(enumerate_svss_by_filtering(g))


def _positions(slots):
    """The slot table without its sigmas, as slots_by_find gives it."""
    return {pair: [(pos_p, pos_c) for pos_p, pos_c, _ in at] for pair, at in slots.items()}


def _with_label_sigmas(g, slots):
    """slots with each sigma recomputed by the label formula: the label into
    the vertex on the parent, less the label out of it on the child, plus one."""
    return {
        (p, c): tuple(
            (pos_p, pos_c, g.paths[p].labels[pos_p - 1] - g.paths[c].labels[pos_c] + 1)
            for pos_p, pos_c, _ in at
        )
        for (p, c), at in slots.items()
    }


class TestSwitchSlots:
    def test_ends_of_paths(self):
        # a opens path 1 and ends path 0; b is last on path 1; c is first on
        # path 0: only (0 -> 1, a) and (1 -> 0, c) have an edge in and out;
        # a is entered at time 2 and left at 0, c at 3 and 1: sigma 3 each
        g = graph_of(path(0, "c s a", (1, 2)), path(1, "a x c b", (0, 3, 4)), source="s")
        assert switch_slots(g) == {(0, 1): ((2, 0, 3),), (1, 0): ((2, 0, 3),)}
        assert _positions(switch_slots(g)) == slots_by_find(g)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_per_vertex_find_scan(self, seed):
        g = gen_random(2 + seed % 4, 4 + seed % 3, 12, 0.5 + 0.1 * (seed % 4), seed=1600 + seed)
        slots = switch_slots(g)
        assert _positions(slots) == slots_by_find(g)
        assert slots == _with_label_sigmas(g, slots)

    @pytest.mark.parametrize("seed", range(6))
    def test_a_subset_of_pairs_is_that_part_of_the_table(self, seed):
        # fixed-spt builds only its tree's pairs
        g = gen_random(3 + seed % 3, 5, 12, 0.7, seed=1700 + seed)
        full = switch_slots(g)
        pairs = [(p, c) for p, c in full if (p + c + seed) % 3 == 0]
        assert switch_slots(g, pairs) == {pair: full[pair] for pair in pairs}
        assert switch_slots(g, []) == {}


def _outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@st.composite
def _graph_and_switch_sets(draw):
    """A gen_random graph on 2 to 4 paths, and random switch sets on it.

    A switch takes any vertex of the graph, or one it lacks, and source and
    target paths from -1 to k, so paths off the graph, the source path as
    the target and switches at a path's first or last vertex all come up.
    """
    k = draw(st.integers(2, 4))
    n = draw(st.integers(3, 4))
    g = gen_random(k, n, 10, draw(st.sampled_from((0.5, 0.8))), draw(st.integers(0, 10**6)))
    vertices = sorted({v for p in g.paths for v in p.vertices}) + ["nowhere"]
    switch = st.builds(Switch, st.sampled_from(vertices), st.integers(-1, k), st.integers(-1, k))
    return g, draw(st.lists(st.lists(switch, max_size=4).map(make_svs), max_size=6))


def _rule_breakers(g):
    """Sets that each break one rule, whatever the random switches draw."""
    src, on = g.paths[0].vertices, g.paths[1].vertices  # gen_random puts s first on path 0
    two = [on[pos_c] for _, pos_c, _ in switch_slots(g)[(0, 1)][:2]] or on[1:3]
    sets = (
        [Switch(on[1], 0, g.k)], [Switch(on[1], g.k, 1)], [Switch(on[1], -1, 1)],  # off the graph
        [Switch(src[1], 1, 0)],  # onto the source path
        [Switch(v, 0, 1) for v in two],  # two switches onto one path
        [Switch(on[0], 0, 1)], [Switch(on[-1], 0, 1)], [Switch(src[0], 0, 1)],  # path ends
    )
    return [make_svs(sws) for sws in sets]


class TestSiteRulesMatchReferences:
    """is_valid_svs, suffix_union and min_cost_for_svs read switch sets as
    sites; the references in oracles read them switch by switch."""

    @settings(max_examples=200, deadline=None)
    @given(_graph_and_switch_sets(), st.sampled_from(MODES), st.integers(0, 3))
    def test_sets_get_the_references_answers(self, drawn, mode, b):
        g, random_sets = drawn
        valid = list(enumerate_svss(g))
        joined = [make_svs(v.switches | r.switches) for v in valid for r in random_sets]
        # a switch off a path at the very vertex that boards it
        joined += [
            make_svs({*v.switches, Switch(sw.vertex, sw.to_path, q)})
            for v in valid
            for sw in v.switches
            for q in range(g.k)
        ]
        for svs in [*valid, *random_sets, *_rule_breakers(g), *joined]:
            ok = is_valid_svs(g, svs)
            assert ok == is_valid_svs_by_switches(g, svs)
            structural = all(_switch_edge_positions(g, sw) is not None for sw in svs.switches)
            for start in ("s", g.paths[0].vertices[1], "nowhere"):  # "nowhere" is off the path
                got = _outcome(suffix_union, g, svs, start)
                if structural:
                    assert got == _outcome(suffix_union_by_switches, g, svs, start)
                else:  # the reference answers these by Python's indexing rules
                    assert got is ValidityError
            if ok:
                assert min_cost_for_svs(g, svs, mode, b) == min_cost_for_svs_by_names(
                    g, svs, mode, b
                )
