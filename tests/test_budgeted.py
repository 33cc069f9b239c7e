"""Budgeted solvers measured against unit-step brute force and frozen cases."""

from __future__ import annotations

import random
from functools import partial
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODES, graph_of, path
from oracles import (
    best_by_multisets,
    best_by_unit_sequences,
    fixed_spt_pricing_every_set,
    fpt_delay_by_product,
    fpt_delay_candidates_by_product,
    fpt_general_by_scan,
    fpt_general_survivors_by_scan,
    lex_search_by_full_passes,
    min_cost_for_svs_brute,
    min_cost_for_svs_by_names,
    slots_by_gap_scan,
    svss_by_tree,
    xp_k_pricing_every_set,
)
from tpshift.graph_core import (
    AddressingError,
    InvalidInstanceError,
    Mode,
    ParameterError,
    ResourceLimitError,
    ShiftOperation,
    ValidityError,
    apply_sequence,
    edge_gap,
    normalize_source,
    reach_set,
)
from tpshift import solver_budgeted
from tpshift.instances import gen_random
from tpshift.solver_budgeted import (
    DEFAULT_STATE_LIMIT,
    _affordable_slots,
    _best_tree,
    _canonical_ops,
    _cost_floor,
    _counter,
    _delay_search,
    _general_search,
    _net_vectors,
    _price_sites,
    _replayed_labels,
    _set_search,
    _tree_lows,
    min_cost_for_svs,
    net_vector_count,
    solve_fixed_spt,
    solve_fpt_delay,
    solve_fpt_general,
    solve_xp_by_b,
    solve_xp_by_k,
)
from tpshift.solver_unbounded import best_svs_for_spt
from tpshift.switch_structures import (
    EMPTY_SVS,
    Switch,
    SwitchPathTree,
    _sites_of,
    earliest_sites,
    enumerate_spts,
    enumerate_svss,
    implied_spt,
    is_temporal_switch,
    make_svs,
    placed_trees,
    root_first,
    spt_rank,
    suffix_union,
    svs_at,
    switch_slots,
    tree_sites,
)


def _searched(search, spt, lows, b):
    """Every candidate of a per-tree search of spt at cap b, none skipped,
    lows being the tree's edges from _tree_lows: the search without
    _best_tree. A tree with no placement is searched with lows None."""
    return list(search(spt, lows, None, lambda reach: b))


def _lows_or_none(g, s, spt, slots, lows_of):
    """spt's edges from lows_of (_tree_lows), or None if it has no placement."""
    sites = earliest_sites(g, spt, g.source_path.find(s), slots)
    return None if sites is None else lows_of(sites)


def _unpruned(g, s, b, search_on, what, limit, placed_only, slots=None):
    """Every candidate of search_on(slots, tick)'s per-tree search at cap b,
    tree by tree under the source path, none skipped: the FPT solvers'
    search without _best_tree. placed_only leaves out the trees with no
    placement, which _best_tree never searches. slots defaults to every
    slot, switch_slots(g)."""
    slots = switch_slots(g) if slots is None else slots
    search, lows_of = search_on(slots, _counter(limit, what)), _tree_lows(g, slots)
    trees = enumerate_spts(g.k, include_partial=True, root=g.source_path_id)
    return [
        candidate
        for spt in trees
        if (lows := _lows_or_none(g, s, spt, slots, lows_of)) is not None or not placed_only
        for candidate in _searched(search, spt, lows, b)
    ]


def _delay_guesses(g, s, b, limit=DEFAULT_STATE_LIMIT, slots=None):
    """(ops, cost, sites) for every tree and delay split that places; a tree
    with no placement has none, and no split of it is tried."""
    search_on = partial(_delay_search, g, b, Mode.DELAY)
    return _unpruned(g, s, b, search_on, "fpt-delay guesses", limit, placed_only=True, slots=slots)


def _general_survivors(g, s, b, mode, limit=DEFAULT_STATE_LIMIT, slots=None):
    """(ops, cost, sites) for every fpt-general guess that lays out."""
    search_on = partial(_general_search, g, b, mode)
    what = "fpt-general guesses"
    return _unpruned(g, s, b, search_on, what, limit, placed_only=False, slots=slots)


@pytest.fixture
def tight_chain():
    """P0 -> P1 works untouched, P1 -> P2 misses by one time step."""
    return graph_of(
        path(0, "s a b", (0, 5)),
        path(1, "a c d", (1, 2)),
        path(2, "c e f", (1, 7)),
    )


def small_graph(seed, k=2, n_per_path=3, lifetime=7, share_prob=0.6):
    return gen_random(k, n_per_path, lifetime, share_prob, seed)


class TestCanonicalOps:
    def test_merges_and_orders(self):
        net = {(0, 1): 2, (0, 0): 1, (1, 0): -1, (0, 2): -3}
        assert _canonical_ops(net) == (
            ShiftOperation(0, 0, 1),
            ShiftOperation(0, 1, 2),
            ShiftOperation(0, 2, -3),
            ShiftOperation(1, 0, -1),
        )

    def test_drops_nothing_and_keeps_zero_free(self):
        assert _canonical_ops({}) == ()
        ops = _canonical_ops({(2, 5): -1, (0, 3): 4})
        assert ops == (ShiftOperation(0, 3, 4), ShiftOperation(2, 5, -1))

    def test_advances_go_back_to_front(self):
        ops = _canonical_ops({(0, 0): -1, (0, 2): -1, (0, 1): -1})
        assert [op.edge_index for op in ops] == [2, 1, 0]


def _by_gap(slots):
    """The slot table with each pair's slots grouped by label gap, 1 - sigma,
    each group in table order: the order fpt-general's placement scans meet
    a gap's slots in."""
    out = {}
    for pair, at in slots.items():
        groups = out[pair] = {}
        for pos_p, pos_q, sigma in at:
            groups.setdefault(1 - sigma, []).append((pos_p, pos_q))
    return out


class TestSwitchSlots:
    def test_groups_are_co_sorted(self):
        for seed in range(15):
            g = small_graph(seed, k=3, share_prob=0.7)
            for (p, q), groups in _by_gap(switch_slots(g)).items():
                for gap, pairs in groups.items():
                    for (p1, q1), (p2, q2) in zip(pairs, pairs[1:]):
                        assert p1 < p2 and q1 < q2
                    for pos_p, pos_q in pairs:
                        pp, qq = g.paths[p], g.paths[q]
                        assert pp.vertices[pos_p] == qq.vertices[pos_q]
                        assert pos_p >= 1 and pos_q <= len(qq.vertices) - 2
                        assert qq.labels[pos_q] - pp.labels[pos_p - 1] == gap

    @pytest.mark.parametrize("seed", range(10))
    def test_gap_groups_match_the_per_pair_scan(self, seed):
        # every gap the oracle finds, with its slots sorted by position, is
        # the table's slots of sigma = 1 - gap, in table order
        g = small_graph(seed, k=2 + seed % 3, n_per_path=5, lifetime=12, share_prob=0.8)
        assert _by_gap(switch_slots(g)) == slots_by_gap_scan(g)


class TestXpByB:
    def test_rejects_negative_budget(self, i1):
        with pytest.raises(ParameterError):
            solve_xp_by_b(i1, "s", -1, Mode.DELAY)

    def test_unknown_source_fails_before_the_scan(self, i1):
        # the scan never checks the source; a huge budget shows none was made
        with pytest.raises(AddressingError):
            solve_xp_by_b(i1, "nope", 10**6, Mode.SHIFT, limit_states=10**100)

    def test_zero_budget_is_the_baseline(self, i1):
        sol = solve_xp_by_b(i1, "s", 0, Mode.SHIFT)
        assert sol.ops == () and sol.cost == 0
        assert sol.reached == frozenset({"s", "a", "b"})
        assert sol.witness_svs is None

    def test_frozen_one_unit_answers(self, i1):
        delay = solve_xp_by_b(i1, "s", 1, Mode.DELAY)
        assert delay.ops == (ShiftOperation(1, 0, 1),)
        advance = solve_xp_by_b(i1, "s", 1, Mode.ADVANCE)
        assert advance.ops == (ShiftOperation(0, 0, -1),)
        shift = solve_xp_by_b(i1, "s", 1, Mode.SHIFT)
        assert shift.ops == (ShiftOperation(0, 0, -1),)
        for sol in (delay, advance, shift):
            assert sol.cost == 1
            assert sol.reached == frozenset({"s", "a", "b", "y"})

    def test_tight_chain_frozen(self, tight_chain):
        assert solve_xp_by_b(tight_chain, "s", 1, Mode.DELAY).ops == (
            ShiftOperation(2, 0, 1),
        )
        adv1 = solve_xp_by_b(tight_chain, "s", 1, Mode.ADVANCE)
        assert (len(adv1.reached), adv1.cost) == (5, 0)
        adv2 = solve_xp_by_b(tight_chain, "s", 2, Mode.ADVANCE)
        assert adv2.ops == (ShiftOperation(0, 0, -1), ShiftOperation(1, 0, -1))
        assert len(adv2.reached) == 7 and adv2.cost == 2

    def test_state_limit_trips(self, i1):
        with pytest.raises(ResourceLimitError):
            solve_xp_by_b(i1, "s", 2, Mode.SHIFT, limit_states=10)

    @pytest.mark.parametrize("mode", MODES)
    def test_vectors_come_in_the_multiset_streams_first_seen_order(self, mode):
        # units as solve_xp_by_b documents them: skip first, then +1 before -1
        for edges in range(1, 6):
            units = [None] + [
                (e, sign) for e in range(edges) for sign in (1, -1) if mode.allows(sign)
            ]
            for b in range(6):
                first_seen: dict[tuple[int, ...], None] = {}
                for combo in combinations_with_replacement(units, b):
                    net = [0] * edges
                    for unit in filter(None, combo):
                        net[unit[0]] += unit[1]
                    first_seen.setdefault(tuple(net), None)
                vectors = list(_net_vectors(edges, b, mode))
                assert vectors == list(first_seen), (edges, b)
                assert len(vectors) == net_vector_count(edges, b, mode)

    @pytest.mark.parametrize("seed", range(4))
    def test_replayed_labels_match_the_canonical_replay(self, seed):
        rng = random.Random(seed)
        g = small_graph(seed, k=3, n_per_path=4)
        for _ in range(200):
            net = {
                (p.path_id, e): rng.randint(-3, 3)
                for p in g.paths
                for e in range(p.edge_count())
                if rng.random() < 0.5
            }
            shifted, _ = apply_sequence(g, _canonical_ops(net))
            for p, q in zip(g.paths, shifted.paths):
                deltas = tuple(net.get((p.path_id, e), 0) for e in range(p.edge_count()))
                assert _replayed_labels(p.labels, deltas) == q.labels

    def test_reached_matches_replay(self, i1):
        sol = solve_xp_by_b(i1, "s", 2, Mode.SHIFT)
        shifted, cost = apply_sequence(i1, sol.ops)
        assert cost == sol.cost
        assert sol.reached == frozenset(reach_set(shifted, "s"))

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_unit_sequences(self, seed):
        g = small_graph(seed)
        for mode in MODES:
            for b in range(3):
                sol = solve_xp_by_b(g, "s", b, mode)
                size, cost = best_by_unit_sequences(g, "s", b, mode)
                assert (len(sol.reached), sol.cost) == (size, cost)

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_unit_sequences_b3(self, seed):
        g = small_graph(seed, n_per_path=4)
        for mode in MODES:
            sol = solve_xp_by_b(g, "s", 3, mode)
            size, cost = best_by_unit_sequences(g, "s", 3, mode)
            assert (len(sol.reached), sol.cost) == (size, cost)

    @pytest.mark.parametrize("seed", range(8))
    def test_same_solution_as_the_multiset_stream(self, seed):
        # the whole solution, ops included: first-seen ties must match too
        g = small_graph(seed, k=2 + seed % 2, share_prob=0.3 + 0.1 * (seed % 5))
        mid = g.paths[1].vertices[1]  # shared or not, it is mid-path
        for source in ("s", mid):
            h = normalize_source(g, source, 4)
            for mode in MODES:
                for b in range(5):
                    assert solve_xp_by_b(h, source, b, mode) == best_by_multisets(
                        h, source, b, mode
                    ), (source, mode, b)


@pytest.fixture
def vectors_taken(monkeypatch):
    """A list whose one entry counts the net vectors solve_xp_by_b takes."""
    taken = [0]
    stream = solver_budgeted._net_vectors

    def counting(*args):
        for vector in stream(*args):
            taken[0] += 1
            yield vector

    monkeypatch.setattr(solver_budgeted, "_net_vectors", counting)
    return taken


class TestXpByBStopsAtTheStaticReach:
    """xp-b stops once its best vector reaches all the source's static reach."""

    @pytest.mark.parametrize("mode", MODES)
    def test_reached_by_the_zero_vector(self, vectors_taken, mode):
        g = graph_of(path(0, "s a b", (0, 5)), path(1, "a c", (6,)))
        sol = solve_xp_by_b(g, "s", 3, mode)
        assert sol.ops == () and sol.reached == frozenset("sabc")
        assert vectors_taken == [1]

    def test_first_reached_above_cost_zero(self, vectors_taken, i1):
        # at cost 1, -1 on edge (0, 0) comes third and reaches all four
        # vertices; +1 on edge (1, 0) comes later, reaches them too, and loses
        later = apply_sequence(i1, (ShiftOperation(1, 0, 1),))[0]
        assert reach_set(later, "s") == {"s", "a", "b", "y"}
        for b in (1, 2, 3):
            vectors_taken[0] = 0
            sol = solve_xp_by_b(i1, "s", b, Mode.SHIFT)
            assert sol.ops == (ShiftOperation(0, 0, -1),)
            assert sol.reached == frozenset("saby")
            assert vectors_taken == [3]

    @pytest.mark.parametrize("mode", MODES)
    def test_never_reached_scans_every_vector(self, vectors_taken, mode):
        # s reaches a at 5 and a -> b runs at 1: moving them apart takes five units
        g = graph_of(path(0, "s a", (5,)), path(1, "a b", (1,)))
        sol = solve_xp_by_b(g, "s", 4, mode)
        assert sol.ops == () and sol.reached == frozenset("sa")
        assert vectors_taken == [net_vector_count(2, 4, mode)]
        # five units do reach it, so only the budget keeps it out of reach
        assert solve_xp_by_b(g, "s", 5, mode).reached == frozenset("sab")

    def test_saturated_budgets_take_few_vectors(self, vectors_taken):
        # test_03's instances: their full scans run to 8,361-29,961 vectors
        taken = []
        for seed in range(10):
            g = gen_random(2, 3, 3, 0.5 + 0.04 * seed, seed)
            labels = [t for p in g.paths for t in p.labels]
            budget = g.k * (max(labels) - min(labels) + g.total_edges())
            vectors_taken[0] = 0
            solve_xp_by_b(g, "s", budget, Mode.SHIFT)
            assert net_vector_count(g.total_edges(), budget, Mode.SHIFT) >= 8361
            taken.append(vectors_taken[0])
        assert taken == [105, 105, 1, 1, 17, 1, 29, 1, 17, 17]

    @pytest.mark.parametrize("seed", range(6))
    def test_stopping_changes_no_solution(self, monkeypatch, seed):
        g = small_graph(seed, k=2 + seed % 2, share_prob=0.4 + 0.1 * (seed % 4))
        budgets = range(4)
        stopped = {
            (mode, b): solve_xp_by_b(g, "s", b, mode) for mode in MODES for b in budgets
        }
        # a ceiling of 0 is never reached, so every scan is full
        monkeypatch.setattr(solver_budgeted, "static_reach", lambda paths, s: ())
        for (mode, b), sol in stopped.items():
            assert solve_xp_by_b(g, "s", b, mode) == sol, (mode, b)


class TestMinCostForSvs:
    def test_empty_svs_is_free(self, i1):
        assert min_cost_for_svs(i1, EMPTY_SVS, Mode.SHIFT, 0) == (0, ())

    def test_invalid_svs_raises(self, i1):
        bad = make_svs([Switch("b", 0, 1)])
        with pytest.raises(ValidityError):
            min_cost_for_svs(i1, bad, Mode.DELAY, 3)

    def test_frozen_single_switch(self, i1):
        svs = make_svs([Switch("a", 0, 1)])
        assert min_cost_for_svs(i1, svs, Mode.DELAY, 2) == (
            1,
            (ShiftOperation(1, 1, 1),),
        )
        assert min_cost_for_svs(i1, svs, Mode.ADVANCE, 2) == (
            1,
            (ShiftOperation(0, 0, -1),),
        )
        assert min_cost_for_svs(i1, svs, Mode.SHIFT, 2) == (
            1,
            (ShiftOperation(0, 0, -1),),
        )
        for mode in MODES:
            assert min_cost_for_svs(i1, svs, mode, 0) is None

    def test_frozen_chain(self, tight_chain):
        svs = make_svs([Switch("a", 0, 1), Switch("c", 1, 2)])
        assert min_cost_for_svs(tight_chain, svs, Mode.DELAY, 3) == (
            1,
            (ShiftOperation(2, 0, 1),),
        )
        assert min_cost_for_svs(tight_chain, svs, Mode.SHIFT, 3) == (
            1,
            (ShiftOperation(2, 0, 1),),
        )
        assert min_cost_for_svs(tight_chain, svs, Mode.ADVANCE, 3) == (
            2,
            (ShiftOperation(0, 0, -1), ShiftOperation(1, 0, -1)),
        )
        assert min_cost_for_svs(tight_chain, svs, Mode.ADVANCE, 1) is None

    def test_ops_respect_mode_and_budget(self):
        for seed in range(8):
            g = small_graph(seed, share_prob=0.8)
            for svs in enumerate_svss(g):
                for mode in MODES:
                    priced = min_cost_for_svs(g, svs, mode, 3)
                    if priced is None:
                        continue
                    cost, ops = priced
                    assert cost <= 3
                    assert cost == sum(abs(op.delta) for op in ops)
                    assert all(mode.allows(op.delta) for op in ops)
                    shifted, _ = apply_sequence(g, ops)
                    assert all(
                        is_temporal_switch(shifted, sw) for sw in svs.switches
                    )

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_brute_force_k2(self, seed):
        g = small_graph(seed, share_prob=0.8)
        for svs in enumerate_svss(g):
            for mode in MODES:
                for b in range(4):
                    priced = min_cost_for_svs(g, svs, mode, b)
                    got = None if priced is None else priced[0]
                    assert got == min_cost_for_svs_brute(g, svs, mode, b)

    @pytest.mark.parametrize("seed", range(2))
    def test_agrees_with_brute_force_k2_b4(self, seed):
        g = small_graph(seed, share_prob=0.8)
        for svs in enumerate_svss(g):
            for mode in MODES:
                priced = min_cost_for_svs(g, svs, mode, 4)
                got = None if priced is None else priced[0]
                assert got == min_cost_for_svs_brute(g, svs, mode, 4)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_brute_force_k3(self, seed):
        g = small_graph(seed, k=3, share_prob=0.8)
        for svs in enumerate_svss(g):
            for mode in MODES:
                for b in range(3):
                    priced = min_cost_for_svs(g, svs, mode, b)
                    got = None if priced is None else priced[0]
                    assert got == min_cost_for_svs_brute(g, svs, mode, b)

    def test_agrees_with_brute_force_k3_b4_shift(self, tight_chain):
        svs = make_svs([Switch("a", 0, 1), Switch("c", 1, 2)])
        priced = min_cost_for_svs(tight_chain, svs, Mode.SHIFT, 4)
        assert priced is not None
        assert priced[0] == min_cost_for_svs_brute(tight_chain, svs, Mode.SHIFT, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_cheapest_ops_do_not_depend_on_the_budget(self, seed):
        # xp-k and fixed-spt price a set within less than b when only a
        # cheaper one can win, and report those ops as they are
        g = gen_random(2 + seed % 3, 4, 10, 0.7, seed=2200 + seed)
        for mode in MODES:
            for svs in enumerate_svss(g):
                at_b = min_cost_for_svs(g, svs, mode, 5)
                if at_b is not None:
                    for c in range(at_b[0], 5):
                        assert min_cost_for_svs(g, svs, mode, c) == at_b, (mode, svs, c)
                    if at_b[0]:
                        assert min_cost_for_svs(g, svs, mode, at_b[0] - 1) is None


class TestPricingMatchesTheNamedModel:
    """min_cost_for_svs and the unchecked _price_sites that xp-k and
    fixed-spt call build one integer program on variable indices. For every
    valid set, mode and budget it must give the (cost, ops) of the model
    built by name in tests/oracles.py: same rows, same declaration order,
    so the same lex-smallest optimum."""

    @pytest.mark.parametrize("seed", range(8))
    def test_every_valid_set_prices_as_the_named_model(self, seed):
        k = 2 + seed % 4
        g = gen_random(k, 4 if k <= 3 else 3, 10, 0.8, seed=5200 + seed)
        cases = [g]
        if k < 5:  # a mid-path source adds a path
            cases.append(normalize_source(g, g.paths[1].vertices[1], 5))
        for g in cases:
            start = g.source_path.find(g.source)
            slots = switch_slots(g)
            for spt in enumerate_spts(g.k, include_partial=True, root=g.source_path_id):
                for sites in tree_sites(g, spt, slots):
                    svs = svs_at(g, sites)
                    for mode in MODES:
                        for b in range(6):
                            want = min_cost_for_svs_by_names(g, svs, mode, b)
                            assert min_cost_for_svs(g, svs, mode, b) == want, (svs, mode, b)
                            got = _price_sites(g, sites, start, mode, b)
                            assert got == want, (svs, mode, b)


class TestXpByK:
    def test_requires_normalized_source(self, i1):
        with pytest.raises(InvalidInstanceError):
            solve_xp_by_k(i1, "a", 1, Mode.DELAY)
        shared = graph_of(path(0, "s a b", (1, 2)), path(1, "x s y", (0, 3)))
        with pytest.raises(InvalidInstanceError):
            solve_xp_by_k(shared, "s", 1, Mode.DELAY)

    def test_frozen_delay(self, i1):
        sol = solve_xp_by_k(i1, "s", 1, Mode.DELAY)
        assert sol.ops == (ShiftOperation(1, 1, 1),)
        assert sol.cost == 1
        assert sol.reached == frozenset({"s", "a", "b", "y"})
        assert sol.witness_svs == make_svs([Switch("a", 0, 1)])

    def test_zero_budget_keeps_empty_witness(self, i1):
        sol = solve_xp_by_k(i1, "s", 0, Mode.DELAY)
        assert sol.witness_svs == EMPTY_SVS
        assert sol.ops == () and sol.cost == 0

    def test_svs_limit_trips(self, tight_chain):
        # tree 1:0, 2:1 has the best bound, all 7 vertices, and its one set
        # reaches it at cost 1, so no other tree is searched
        assert solve_xp_by_k(tight_chain, "s", 1, Mode.DELAY, limit_svss=1).cost == 1
        with pytest.raises(ResourceLimitError, match="more than 0 switch-vertex-sets"):
            solve_xp_by_k(tight_chain, "s", 1, Mode.DELAY, limit_svss=0)

    def test_witness_replay_is_sound(self):
        for seed in range(6):
            g = small_graph(seed, share_prob=0.7)
            for mode in MODES:
                sol = solve_xp_by_k(g, "s", 2, mode)
                shifted, cost = apply_sequence(g, sol.ops)
                assert cost == sol.cost <= 2
                assert all(
                    is_temporal_switch(shifted, sw)
                    for sw in sol.witness_svs.switches
                )
                assert sol.reached == frozenset(reach_set(shifted, "s"))
                assert suffix_union(g, sol.witness_svs, "s") <= sol.reached

    @pytest.mark.parametrize("case", range(12))
    def test_agrees_with_budget_search(self, case):
        g = small_graph(7000 + case, k=2 + case % 2, share_prob=0.6)
        mode = MODES[case % 3]
        b = case % 4
        by_k = solve_xp_by_k(g, "s", b, mode)
        by_b = solve_xp_by_b(g, "s", b, mode)
        assert (len(by_k.reached), by_k.cost) == (len(by_b.reached), by_b.cost)

    @pytest.mark.parametrize("seed, reach, cost", [(0, 21, 34), (1, 16, 4), (2, 22, 14)])
    def test_shift_answer_holds_at_large_budgets(self, seed, reach, cost):
        # a set's program stops at its first point that costs the set's
        # floor, so budgets 10 and 1,000 times as wide still solve in
        # well under a second
        g = gen_random(4, 8, 24, 0.6, seed)
        sols = [solve_xp_by_k(g, g.source, b, Mode.SHIFT) for b in (100, 1_000, 100_000)]
        assert all(sol == sols[0] for sol in sols)
        assert (len(sols[0].reached), sols[0].cost) == (reach, cost)


class TestFixedSpt:
    def test_rejects_broken_trees(self, i1):
        for parents in (((0, 1),), ((1, 5),), ((5, 0),)):
            with pytest.raises(ParameterError):
                solve_fixed_spt(i1, "s", 1, Mode.DELAY, SwitchPathTree(parents))
        loop = SwitchPathTree(((1, 2), (2, 1)))
        g3 = graph_of(
            path(0, "s a b", (0, 5)),
            path(1, "a c d", (1, 6)),
            path(2, "c e f", (2, 7)),
        )
        with pytest.raises(ParameterError):
            solve_fixed_spt(g3, "s", 1, Mode.DELAY, loop)

    def test_frozen_single_edge_tree(self, i1):
        spt = SwitchPathTree(((1, 0),))
        sol = solve_fixed_spt(i1, "s", 1, Mode.SHIFT, spt)
        assert sol.ops == (ShiftOperation(0, 0, -1),)
        assert sol.cost == 1
        assert sol.reached == frozenset({"s", "a", "b", "y"})
        assert sol.witness_svs == make_svs([Switch("a", 0, 1)])

    def test_unaffordable_tree_falls_back(self, i1):
        spt = SwitchPathTree(((1, 0),))
        sol = solve_fixed_spt(i1, "s", 0, Mode.DELAY, spt)
        assert sol.ops == () and sol.witness_svs == EMPTY_SVS
        assert sol.reached == frozenset({"s", "a", "b"})

    def test_root_only_tree_is_the_baseline(self, i1):
        sol = solve_fixed_spt(i1, "s", 3, Mode.SHIFT, SwitchPathTree(()))
        assert sol.ops == () and sol.cost == 0
        assert sol.reached == frozenset({"s", "a", "b"})

    def test_reached_is_what_the_witness_guarantees(self):
        for seed in range(5):
            g = small_graph(seed, share_prob=0.7)
            for spt in enumerate_spts(g.k, include_partial=True, root=g.source_path_id):
                sol = solve_fixed_spt(g, "s", 2, Mode.SHIFT, spt)
                assert sol.reached == frozenset(
                    suffix_union(g, sol.witness_svs, "s")
                )
                if sol.witness_svs.switches:
                    assert implied_spt(sol.witness_svs) == spt

    @pytest.mark.parametrize("case", range(6))
    def test_best_tree_matches_global_optimum(self, case):
        g = small_graph(8000 + case, k=2 + case % 2, share_prob=0.7)
        mode = MODES[case % 3]
        b = 1 + case % 3
        best = max(
            (
                (len(sol.reached), -sol.cost)
                for spt in enumerate_spts(g.k, include_partial=True, root=g.source_path_id)
                for sol in (solve_fixed_spt(g, "s", b, mode, spt),)
            ),
        )
        opt = solve_xp_by_k(g, "s", b, mode)
        assert best == (len(opt.reached), -opt.cost)


class TestFptDelay:
    def test_rejects_negative_budget(self, i1):
        with pytest.raises(ParameterError):
            solve_fpt_delay(i1, "s", -2)

    def test_requires_normalized_source(self, i1):
        with pytest.raises(InvalidInstanceError):
            solve_fpt_delay(i1, "x", 1)

    def test_frozen(self, i1):
        sol = solve_fpt_delay(i1, "s", 1)
        assert sol.ops == (ShiftOperation(1, 1, 1),)
        assert sol.cost == 1
        assert sol.reached == frozenset({"s", "a", "b", "y"})
        assert sol.witness_svs == make_svs([Switch("a", 0, 1)])

    def test_zero_budget(self, i1):
        sol = solve_fpt_delay(i1, "s", 0)
        assert sol.ops == () and sol.reached == frozenset({"s", "a", "b"})

    def test_never_delays_the_source_path(self):
        for seed in range(8):
            g = small_graph(seed, share_prob=0.7)
            sol = solve_fpt_delay(g, "s", 3)
            assert all(op.path_id != g.source_path_id for op in sol.ops)
            assert all(op.delta > 0 for op in sol.ops)

    def test_scans_stop_growing_with_the_budget(self, monkeypatch):
        # the search reads each slot's tight delay with one edge_gap call;
        # tight delays come from the labels, so a larger budget adds no
        # branches and no scans
        g = gen_random(3, 5, 15, 0.6, 1)
        scans = [0]
        real = solver_budgeted.edge_gap

        def counting(*args):
            scans[0] += 1
            return real(*args)

        monkeypatch.setattr(solver_budgeted, "edge_gap", counting)
        seen = {}
        for b in (50, 300):
            scans[0] = 0
            sol = solve_fpt_delay(g, "s", b)
            seen[b] = (sol.cost, len(sol.reached), scans[0])
        assert seen[50] == seen[300]
        assert seen[50][:2] == (12, 8)

    @pytest.mark.parametrize("case", range(10))
    def test_agrees_with_budget_search(self, case):
        g = small_graph(8500 + case, k=2 + case % 2, share_prob=0.6)
        b = case % 4
        fpt = solve_fpt_delay(g, "s", b)
        ref = solve_xp_by_b(g, "s", b, Mode.DELAY)
        assert (len(fpt.reached), fpt.cost) == (len(ref.reached), ref.cost)


class TestFptGeneral:
    def test_rejects_negative_budget(self, i1):
        with pytest.raises(ParameterError):
            solve_fpt_general(i1, "s", -1, Mode.SHIFT)

    def test_frozen_all_modes(self, i1):
        for mode in MODES:
            sol = solve_fpt_general(i1, "s", 1, mode)
            assert sol.cost == 1
            assert sol.reached == frozenset({"s", "a", "b", "y"})
            assert sol.witness_svs == make_svs([Switch("a", 0, 1)])

    def test_tight_chain_frozen(self, tight_chain):
        delay = solve_fpt_general(tight_chain, "s", 1, Mode.DELAY)
        assert len(delay.reached) == 7 and delay.cost == 1
        assert delay.ops == (ShiftOperation(2, 0, 1),)
        adv1 = solve_fpt_general(tight_chain, "s", 1, Mode.ADVANCE)
        assert len(adv1.reached) == 5 and adv1.cost == 0 and adv1.ops == ()
        adv2 = solve_fpt_general(tight_chain, "s", 2, Mode.ADVANCE)
        assert len(adv2.reached) == 7 and adv2.cost == 2
        assert adv2.ops == (ShiftOperation(0, 0, -1), ShiftOperation(1, 0, -1))
        shift = solve_fpt_general(tight_chain, "s", 1, Mode.SHIFT)
        assert len(shift.reached) == 7 and shift.cost == 1
        assert shift.ops == (ShiftOperation(2, 0, 1),)

    def test_disjoint_paths_stay_at_baseline(self):
        g = gen_random(3, 3, 9, 0.0, seed=4)
        for mode in MODES:
            sol = solve_fpt_general(g, "s", 3, mode)
            assert sol.ops == () and sol.cost == 0
            assert sol.reached == frozenset(g.source_path.vertices)

    def test_ops_respect_mode(self):
        for seed in range(6):
            g = small_graph(seed, share_prob=0.7)
            for mode in MODES:
                sol = solve_fpt_general(g, "s", 2, mode)
                assert all(mode.allows(op.delta) for op in sol.ops)
                shifted, cost = apply_sequence(g, sol.ops)
                assert cost == sol.cost <= 2
                assert sol.reached == frozenset(reach_set(shifted, "s"))

    @pytest.mark.parametrize("case", range(12))
    def test_agrees_with_budget_search_k2(self, case):
        g = small_graph(9000 + case, share_prob=0.6)
        mode = MODES[case % 3]
        b = case % 4
        fpt = solve_fpt_general(g, "s", b, mode)
        ref = solve_xp_by_b(g, "s", b, mode)
        assert (len(fpt.reached), fpt.cost) == (len(ref.reached), ref.cost)

    @pytest.mark.parametrize("case", range(4))
    def test_agrees_with_budget_search_k3(self, case):
        g = small_graph(9100 + case, k=3, share_prob=0.7)
        mode = MODES[case % 3]
        b = 1 + case % 2
        fpt = solve_fpt_general(g, "s", b, mode)
        ref = solve_xp_by_b(g, "s", b, mode)
        assert (len(fpt.reached), fpt.cost) == (len(ref.reached), ref.cost)


class TestDeterminism:
    def test_each_solver_repeats_itself(self, tight_chain):
        runs = [
            (
                solve_xp_by_b(tight_chain, "s", 2, Mode.SHIFT),
                solve_xp_by_k(tight_chain, "s", 2, Mode.SHIFT),
                solve_fpt_delay(tight_chain, "s", 2),
                solve_fpt_general(tight_chain, "s", 2, Mode.SHIFT),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def _pruning_case(seed):
    """A gen_random instance for the pruning checks and its sources.

    k runs 2..5; below 5 a mid-path source adds a path through
    normalize_source, so every case has at most five paths.
    """
    k = 2 + seed % 4
    g = gen_random(k, 4 if k <= 3 else 3, 10, 0.5, 4100 + seed)
    sources = ("s", g.paths[1].vertices[1]) if k < 5 else ("s",)
    return [(normalize_source(g, source, 4), source) for source in sources]


PRUNING_SEEDS = range(8)


class TestPruningChangesNoSolution:
    """The solvers skip work that cannot change the answer; each must still
    return exactly its reference's solution from tests/oracles.py."""

    @pytest.mark.parametrize("seed", PRUNING_SEEDS)
    def test_xp_k_matches_pricing_every_set(self, seed):
        for g, source in _pruning_case(seed):
            for mode in MODES:
                for b in range(5):
                    assert solve_xp_by_k(g, source, b, mode) == xp_k_pricing_every_set(
                        g, source, b, mode
                    ), (source, mode, b)

    @pytest.mark.parametrize("seed", PRUNING_SEEDS)
    def test_fixed_spt_matches_pricing_every_set_on_every_tree(self, seed):
        for g, source in _pruning_case(seed):
            by_tree = svss_by_tree(g)
            for spt in enumerate_spts(g.k, include_partial=True, root=g.source_path_id):
                for mode in MODES:
                    for b in range(5):
                        got = solve_fixed_spt(g, source, b, mode, spt)
                        ref = fixed_spt_pricing_every_set(
                            g, source, b, mode, by_tree.get(spt, [])
                        )
                        assert got == ref, (source, spt, mode, b)

    @pytest.mark.parametrize("seed", PRUNING_SEEDS)
    def test_fpt_delay_matches_the_product_scan(self, seed):
        for g, source in _pruning_case(seed):
            for b in range(5):
                assert solve_fpt_delay(g, source, b) == fpt_delay_by_product(
                    g, source, b
                ), (source, b)

    @pytest.mark.parametrize("seed", PRUNING_SEEDS)
    def test_fpt_general_matches_the_gap_scan(self, seed):
        for g, source in _pruning_case(seed):
            for mode in MODES:
                for b in range(5):
                    assert solve_fpt_general(g, source, b, mode) == fpt_general_by_scan(
                        g, source, b, mode
                    ), (source, mode, b)

    @pytest.mark.parametrize("seed", PRUNING_SEEDS)
    def test_fpt_delay_yields_the_product_scans_candidates(self, seed):
        # the product scan's tight splits, each delay the least that fits
        # its slot: only those can win (_delay_search), and fpt-delay tries
        # no other
        for g, source in _pruning_case(seed):
            for b in range(5):
                got = [
                    (ops, cost, svs_at(g, sites))
                    for ops, cost, sites in _delay_guesses(g, source, b)
                ]
                want = fpt_delay_candidates_by_product(g, source, b, tight_only=True)
                assert got == list(want), (source, b)

    @pytest.mark.parametrize("seed", PRUNING_SEEDS)
    def test_fpt_general_yields_the_gap_scans_survivors(self, seed):
        # the whole stream, not only the winner: same survivors, same order.
        # The scan's tight guesses, each delay the least that makes its
        # switch temporal: only those can win (_general_search), and
        # fpt-general tries no other
        for g, source in _pruning_case(seed):
            for mode in MODES:
                for b in range(5):
                    got = [
                        (ops, cost, svs_at(g, sites))
                        for ops, cost, sites in _general_survivors(g, source, b, mode)
                    ]
                    want = fpt_general_survivors_by_scan(g, source, b, mode, tight_only=True)
                    assert got == list(want), (source, mode, b)

    def test_fpt_general_tries_tight_delays_in_ascending_order(self):
        # a child's tight delay falls as its label gap rises, so the search
        # holds back the guesses with a delay and sorts them. Here path 1
        # joins path 0 at v0 (gap -3, delay 4) or at v1 (gap -2, delay 3),
        # and the delay-3 guess must come first; no PRUNING_SEEDS case at
        # b <= 4 has two such guesses that lay out
        g = gen_random(2, 4, 10, 0.8, 8)
        for mode in (Mode.DELAY, Mode.SHIFT):
            survivors = _general_survivors(g, "s", 5, mode)
            got = [(ops, cost, svs_at(g, sites)) for ops, cost, sites in survivors]
            want = fpt_general_survivors_by_scan(g, "s", 5, mode, tight_only=True)
            assert got == list(want), mode


@pytest.fixture
def boarded_twice():
    """Every path holds a, the only vertex paths 1 and 2 share.

    Under the tree 1:0, 2:1, path 0 boards path 1 at a, so the one label
    gap of (1, 2) has its only slot at path 1's anchor and fpt-general must
    not guess it; the same holds with paths 1 and 2 swapped.
    """
    return graph_of(
        path(0, "s a b", (1, 5)),
        path(1, "x a c d", (0, 3, 4)),
        path(2, "y a e", (2, 6)),
    )


class TestGeneralGuessLimit:
    # the guesses the unpruned search makes on boarded_twice at b=2; a guess
    # at the anchor-only gap, or a delay that is not tight, would raise them
    SURVIVOR_COUNTS = {Mode.DELAY: 8, Mode.ADVANCE: 55, Mode.SHIFT: 55}
    # the guesses solve_fpt_general makes there: it searches tree 1:0, 2:0
    # first, the best bound, finds a guess reaching it at no cost, and
    # searches no other tree
    COUNTS = {Mode.DELAY: 2, Mode.ADVANCE: 9, Mode.SHIFT: 9}

    @pytest.mark.parametrize("mode", MODES)
    def test_limit_counts_guesses(self, boarded_twice, mode):
        count = self.COUNTS[mode]
        sol = solve_fpt_general(boarded_twice, "s", 2, mode, limit_states=count)
        assert (sol.cost, len(sol.reached)) == (0, 6)
        with pytest.raises(ResourceLimitError, match=f"more than {count - 1} fpt-general"):
            solve_fpt_general(boarded_twice, "s", 2, mode, limit_states=count - 1)

    @pytest.mark.parametrize("mode", MODES)
    def test_the_unpruned_search_counts_every_guess(self, boarded_twice, mode):
        count = self.SURVIVOR_COUNTS[mode]
        assert _general_survivors(boarded_twice, "s", 2, mode, count)
        with pytest.raises(ResourceLimitError, match=f"more than {count - 1} fpt-general"):
            _general_survivors(boarded_twice, "s", 2, mode, count - 1)


def _tight_prefixes(g, sites, b):
    """The tight delay prefixes within b of the tree placed at sites (its
    edges, parents first), found by a scan of the full product of splits:
    each child takes the first vertex of its path, found on the parent
    after the parent's anchor, where its delay works out, and its delay is
    the least that works out there."""
    src = g.source_path_id
    found = set()
    for split in product(range(b + 1), repeat=len(sites)):
        if sum(split) > b:
            continue
        delay, anchor = {src: 0}, {src: 0}
        for i, ((p, _, c, _), d) in enumerate(zip(sites, split)):
            ppath, cpath = g.paths[p], g.paths[c]
            for pos_c, v in enumerate(cpath.vertices[:-1]):
                pos_p = ppath.find(v)
                if pos_p is None or pos_p <= anchor[p]:
                    continue
                carried = max(0, delay[p] - edge_gap(ppath, anchor[p], pos_p - 1))
                least = max(0, ppath.labels[pos_p - 1] + carried - cpath.labels[pos_c] + 1)
                if least <= d:
                    break
            else:
                break
            if least != d:
                break
            delay[c], anchor[c] = d, pos_c
            found.add(split[: i + 1])
    return found


class TestDelayGuessLimit:
    @pytest.mark.parametrize("b", range(5))
    def test_the_unpruned_search_counts_every_split(self, tight_chain, boarded_twice, b):
        # with no tree skipped, fpt-delay takes one branch per tight prefix
        # within b of each tree that places, its children parents first:
        # each delay the least that fits the slot it places at
        for g in (tight_chain, boarded_twice, gen_random(4, 4, 10, 0.8, 5)):
            slots = switch_slots(g)
            count = 0
            for spt in enumerate_spts(g.k, include_partial=True, root=g.source_path_id):
                sites = earliest_sites(g, spt, 0, slots)
                if sites is not None:
                    count += len(_tight_prefixes(g, sites, b))
            _delay_guesses(g, "s", b, count)
            with pytest.raises(ResourceLimitError, match=f"more than {count - 1} fpt-delay"):
                _delay_guesses(g, "s", b, count - 1)


@pytest.fixture
def equal_pair():
    """Switch sets 4 and 5 both reach 8 vertices at delay cost 2 (b=2).

    Stream: {} (4, 0), {v0:0->1} (5, 0), {v1:0->1} (5, 0), {v1:0->2} (7, 2),
    {v0:0->1, v1:0->2} (8, 2), {v1:0->1, v1:0->2} (8, 2), then
    {v0:0->1, v1:1->2} (8) at no cost within 2.
    """
    return graph_of(
        path(0, "s v0 v1 v2", (1, 2, 7)),
        path(1, "v3 v0 v1 v4", (3, 5, 9)),
        path(2, "v1 v5 v6 v7", (1, 3, 4)),
    )


@pytest.fixture
def one_cheaper():
    """Switch sets 1 and 2 both reach 7 vertices, at delay cost 3 and 2."""
    return graph_of(
        path(0, "s v0 v1 v2", (2, 6, 9)),
        path(1, "v2 v3 v4 v5", (7, 9, 10)),
        path(2, "v0 v6 v7 v5", (1, 6, 7)),
    )


class TestIncumbentBoundTies:
    def _keys(self, g, b):
        """(reach, cost at b) of every set in stream order; cost None if unaffordable."""
        out = []
        for svs in enumerate_svss(g):
            priced = min_cost_for_svs(g, svs, Mode.DELAY, b)
            out.append((len(suffix_union(g, svs, "s")), None if priced is None else priced[0]))
        return out

    def test_a_later_set_of_equal_reach_and_cost_loses(self, equal_pair):
        assert self._keys(equal_pair, 2)[4:] == [(8, 2), (8, 2), (8, None)]
        want = make_svs([Switch("v0", 0, 1), Switch("v1", 0, 2)])
        sol = solve_xp_by_k(equal_pair, "s", 2, Mode.DELAY)
        assert (sol.witness_svs, sol.cost) == (want, 2)
        assert sol.ops == (ShiftOperation(2, 0, 2),)
        assert sol == xp_k_pricing_every_set(equal_pair, "s", 2, Mode.DELAY)
        tree = SwitchPathTree(((1, 0), (2, 0)))
        fixed = solve_fixed_spt(equal_pair, "s", 2, Mode.DELAY, tree)
        assert (fixed.witness_svs, fixed.cost) == (want, 2)

    def test_a_later_set_of_equal_reach_and_cost_one_lower_wins(self, one_cheaper):
        assert self._keys(one_cheaper, 3) == [(4, 0), (7, 3), (7, 2), (9, None)]
        sol = solve_xp_by_k(one_cheaper, "s", 3, Mode.DELAY)
        assert (sol.witness_svs, sol.cost) == (make_svs([Switch("v0", 0, 2)]), 2)
        assert sol.ops == (ShiftOperation(2, 0, 2),)
        assert sol == xp_k_pricing_every_set(one_cheaper, "s", 3, Mode.DELAY)


class TestDelaySplits:
    @pytest.mark.parametrize("parts", range(4))
    def test_splits_come_in_the_filtered_products_order(
        self, tight_chain, boarded_twice, parts
    ):
        # the search of a tree of `parts` edges yields the product of splits
        # within b, filtered to the tight ones that place, in product order
        # (one delay per child, children in spt.parents order), each at a
        # cost of its delays' sum; the empty split of a tree with no edges
        # is tight
        graphs = [tight_chain, boarded_twice, *(gen_random(4, 4, 10, 0.8, i) for i in range(6))]
        seen = 0
        for g in graphs:
            slots = switch_slots(g)
            tick = _counter(DEFAULT_STATE_LIMIT, "fpt-delay")
            search = _delay_search(g, 4, Mode.DELAY, slots, tick)
            lows_of = _tree_lows(g, slots)
            for spt in enumerate_spts(g.k, include_partial=True, root=g.source_path_id):
                if len(spt.parents) != parts:
                    continue
                lows = _lows_or_none(g, "s", spt, slots, lows_of)
                if lows is None:
                    continue
                sites = earliest_sites(g, spt, 0, slots)
                children = [child for child, _ in spt.parents]
                for b in range(5):
                    tight = [
                        dict(zip((c for _, _, c, _ in sites), split))
                        for split in {(), *_tight_prefixes(g, sites, b)}
                        if len(split) == parts
                    ]
                    want = sorted(tuple(d[c] for c in children) for d in tight)
                    got = []
                    for ops, cost, _ in _searched(search, spt, lows, b):
                        delay = {op.path_id: op.delta for op in ops}
                        got.append(tuple(delay.get(c, 0) for c in children))
                        assert cost == sum(got[-1]), (spt, b)
                    assert got == want, (spt, b)
                    seen += len(want)
        assert seen, parts

    def test_guess_limit_trips(self, tight_chain):
        # the branches taken at b=2: tree 1:0, 2:1 first, the best bound,
        # path 1 at a with no delay, then path 2 at c with a delay of 1, the
        # least that fits there; that split reaches all 7 vertices at cost
        # 1, and every other tree is bounded lower
        assert solve_fpt_delay(tight_chain, "s", 2, limit_states=2).cost == 1
        with pytest.raises(ResourceLimitError, match="more than 1 fpt-delay guesses"):
            solve_fpt_delay(tight_chain, "s", 2, limit_states=1)


@st.composite
def _small_case(draw, max_b=2):
    """A gen_random graph on 2 to 4 paths, normalized for a source that is
    path 0's first or second vertex, with that source, a budget and a mode.

    fpt-general's references slow down fast above b=2 on mid-path sources,
    so with a max_b above 2 the graph has 2 or 3 paths before normalizing.
    """
    k, n = draw(st.integers(2, 4 if max_b <= 2 else 3)), draw(st.integers(3, 4))
    lifetime, share_prob = draw(st.integers(8, 10)), draw(st.sampled_from((0.5, 0.8)))
    g = gen_random(k, n, lifetime, share_prob, draw(st.integers(0, 10**6)))
    source = g.paths[0].vertices[draw(st.integers(0, 1))]
    b = draw(st.integers(0, max_b))
    return normalize_source(g, source, b), source, b, draw(st.sampled_from(MODES))


class TestSolversAgreeWithXpB:
    """Every exact solver reaches as much as xp-b, at xp-b's cost."""

    @settings(max_examples=40, deadline=None)
    @given(_small_case())
    def test_reach_and_cost_match_xp_b(self, case):
        g, s, b, mode = case
        want = solve_xp_by_b(g, s, b, mode)
        xpk = solve_xp_by_k(g, s, b, mode)
        answers = {
            "xp-k": xpk,
            "fpt-general": solve_fpt_general(g, s, b, mode),
            "fixed-spt": solve_fixed_spt(g, s, b, mode, implied_spt(xpk.witness_svs)),
        }
        if mode is Mode.DELAY:
            answers["fpt-delay"] = solve_fpt_delay(g, s, b)
        for algo, sol in answers.items():
            assert (len(sol.reached), sol.cost) == (len(want.reached), want.cost), algo


class TestFptSolversSkipWhatCannotWin:
    """fpt-delay and fpt-general skip trees whose bound, the suffix union of
    their earliest placement, cannot beat the best so far, and cut guesses
    that cost too much to beat it; the answer is that of the full search."""

    @settings(max_examples=60, deadline=None)
    @given(_small_case(max_b=3))
    def test_solutions_equal_the_unpruned_references(self, case):
        g, s, b, mode = case
        assert solve_fpt_general(g, s, b, mode) == fpt_general_by_scan(g, s, b, mode)
        assert solve_fpt_delay(g, s, b) == fpt_delay_by_product(g, s, b)

    @settings(max_examples=40, deadline=None)
    @given(_small_case(max_b=3))
    def test_no_candidate_covers_more_than_its_trees_bound(self, case):
        g, s, b, mode = case
        slots = switch_slots(g)
        lows_of = _tree_lows(g, slots)
        tick = _counter(DEFAULT_STATE_LIMIT, "guesses")
        delay = _delay_search(g, b, Mode.DELAY, slots, tick)
        general = _general_search(g, b, mode, slots, tick)
        for spt in enumerate_spts(g.k, include_partial=True, root=g.source_path_id):
            earliest, got = best_svs_for_spt(g, s, spt), _lows_or_none(g, s, spt, slots, lows_of)
            assert (earliest is None) == (got is None), spt
            # fpt-delay is never asked about a tree with no placement
            for search in (delay, general) if got is not None else (general,):
                candidates = _searched(search, spt, got, b)
                if earliest is None:
                    assert candidates == [], spt
                    continue
                bound = suffix_union(g, earliest, s)
                for _, _, sites in candidates:
                    assert suffix_union(g, svs_at(g, sites), s) <= bound, spt

    def test_fpt_delay_answer_holds_at_large_budgets(self):
        # the answer stops changing at b=50, and so does the work: only
        # tight splits are tried, whose delays come from the labels, not the
        # budget, so every b takes the 6 branches b=50 takes. Trying every
        # split would take C(E + b, b) per tree, past the default limit
        # from b = 2,580 on
        g = gen_random(3, 5, 15, 0.6, 1)
        sols = [
            solve_fpt_delay(normalize_source(g, g.source, b), g.source, b, limit_states=6)
            for b in (50, 100, 200, 2_580, 10**4, 10**5)
        ]
        assert all(sol == sols[0] for sol in sols)
        assert (sols[0].cost, len(sols[0].reached)) == (12, 8)
        with pytest.raises(ResourceLimitError, match="more than 5 fpt-delay guesses"):
            solve_fpt_delay(g, g.source, 50, limit_states=5)

    def test_fpt_general_answer_holds_at_large_budgets(self):
        # fpt-general tries only tight delays, so delay mode takes the 9
        # guesses b=50 takes at every b; trying every delay within the budget
        # left took 2,729 at b=50. Shift mode at b=25 took 251,257 guesses
        # with arriving advances and backwashes down to -b, not -left
        g = gen_random(3, 5, 15, 0.6, 1)
        sols = [
            solve_fpt_general(
                normalize_source(g, g.source, b), g.source, b, Mode.DELAY, limit_states=9
            )
            for b in (50, 100, 200, 2_580, 10**4, 10**5)
        ]
        assert all(sol == sols[0] for sol in sols)
        assert (sols[0].cost, len(sols[0].reached)) == (12, 8)
        with pytest.raises(ResourceLimitError, match="more than 8 fpt-general guesses"):
            solve_fpt_general(g, g.source, 50, Mode.DELAY, limit_states=8)
        shift = solve_fpt_general(g, g.source, 25, Mode.SHIFT, limit_states=8_757)
        assert (shift.cost, len(shift.reached)) == (12, 8)


@pytest.fixture
def one_advance_serves_two():
    """Paths 1 and 2 leave path 0 at a and at b, each switch short by 1.

    One advance on path 0's edge into b drags its edge into a back along,
    so cost 1 buys both switches without delays; delays need one each.
    """
    return graph_of(path(0, "s a b", (5, 6)), path(1, "a c", (5,)), path(2, "b d", (6,)))


def _floor_of(g, svs, mode):
    """svs's _cost_floor, each switch's sigma read off the labels."""
    labels = [p.labels for p in g.paths]
    sigmas = [(p, c, labels[p][pp - 1] - labels[c][pc] + 1) for p, pp, c, pc in _sites_of(g, svs)]
    return _cost_floor(mode, sigmas)


class TestCostFloors:
    """A switch set or tree whose cost floor exceeds the cap it would be
    searched at is skipped; every skip must rest on a true lower bound."""

    BOTH = make_svs([Switch("a", 0, 1), Switch("b", 0, 2)])

    @pytest.mark.parametrize("mode", (Mode.ADVANCE, Mode.SHIFT))
    def test_one_advance_on_a_parent_counts_once(self, one_advance_serves_two, mode):
        # a floor summing each switch's shortfall would be 2 > 1 and skip the
        # set and the tree that reach all five vertices at cost 1
        g = one_advance_serves_two
        assert _floor_of(g, self.BOTH, mode) == 1
        assert min_cost_for_svs(g, self.BOTH, mode, 1) == (1, (ShiftOperation(0, 1, -1),))
        want = solve_xp_by_b(g, "s", 1, mode)
        assert (want.cost, want.reached) == (1, frozenset("sabcd"))
        tree = SwitchPathTree(((1, 0), (2, 0)))
        for sol in (
            solve_xp_by_k(g, "s", 1, mode),
            solve_fpt_general(g, "s", 1, mode),
            solve_fixed_spt(g, "s", 1, mode, tree),
        ):
            assert (sol.cost, sol.reached, sol.witness_svs) == (1, want.reached, self.BOTH)

    def test_delays_count_per_child(self, one_advance_serves_two, monkeypatch):
        # in delay mode each child pays its own shortfall: the set costs 2,
        # its floor, so at b=1 it is skipped with no program built
        g = one_advance_serves_two
        assert _floor_of(g, self.BOTH, Mode.DELAY) == 2
        assert min_cost_for_svs(g, self.BOTH, Mode.DELAY, 2)[0] == 2
        assert min_cost_for_svs(g, self.BOTH, Mode.DELAY, 1) is None
        priced, programs = [], []
        real_price, real_search = solver_budgeted._price_sites, solver_budgeted._lex_search

        def recording(graph, sites, *args):
            built = len(programs)
            got = real_price(graph, sites, *args)
            if len(programs) > built:
                priced.append(len(sites))
            return got

        def building(*args):
            programs.append(args)
            return real_search(*args)

        monkeypatch.setattr(solver_budgeted, "_price_sites", recording)
        monkeypatch.setattr(solver_budgeted, "_lex_search", building)
        sol = solve_xp_by_k(g, "s", 1, Mode.DELAY)
        assert (sol.cost, len(sol.reached)) == (1, 4)
        assert 2 not in priced
        assert solve_fpt_delay(g, "s", 2).cost == 2

    @settings(max_examples=30, deadline=None)
    @given(_small_case())
    def test_nothing_costs_less_than_its_floor(self, case):
        g, s, b, mode = case
        for svs in enumerate_svss(g):
            floor = _floor_of(g, svs, mode)
            priced = min_cost_for_svs(g, svs, mode, b)
            assert priced is None or priced[0] >= floor, svs
            # no unit sequence below the floor makes the set temporal
            if floor > 0:
                assert min_cost_for_svs_brute(g, svs, mode, min(b, floor - 1)) is None, svs
        slots = switch_slots(g)
        lows_of = _tree_lows(g, slots)
        tick = _counter(DEFAULT_STATE_LIMIT, "guesses")
        searches = (
            (_delay_search(g, b, Mode.DELAY, slots, tick), Mode.DELAY),
            (_general_search(g, b, mode, slots, tick), mode),
        )
        lows = {}
        for spt in enumerate_spts(g.k, include_partial=True, root=g.source_path_id):
            got = _lows_or_none(g, s, spt, slots, lows_of)
            # fpt-delay is never asked about a tree with no placement
            for search, search_mode in searches if got is not None else searches[1:]:
                candidates = _searched(search, spt, got, b)
                if got is None:
                    assert candidates == [], spt
                else:
                    floor = _cost_floor(search_mode, got)
                    assert all(cost >= floor for _, cost, _ in candidates), spt
            if got is not None:
                lows[spt] = {c: low for _, c, low in got}
        # the full product of delay splits: none with a delay below its
        # edge's low places
        for ops, _, svs in fpt_delay_candidates_by_product(g, s, b):
            delays = {op.path_id: op.delta for op in ops}
            for child, low in lows[implied_spt(svs)].items():
                assert delays.get(child, 0) >= low, svs


@pytest.fixture
def short_then_affordable():
    """Path 1 leaves path 0 at a, short by 2, or at c, temporal as it is."""
    return graph_of(path(0, "s a c z", (5, 6, 7)), path(1, "x a y c w", (0, 4, 5, 9)))


class TestAffordableSlots:
    """Every solver but xp-b searches only the slots whose switch is short by
    at most b; the others cannot be made temporal within b."""

    TREE = SwitchPathTree(((1, 0),))

    def test_only_slots_short_by_at_most_b_stay(self, short_then_affordable):
        g = short_then_affordable
        assert switch_slots(g)[(0, 1)] == ((1, 1, 2), (2, 3, -2))
        assert _affordable_slots(g, 1)[(0, 1)] == ((2, 3, -2),)
        assert _affordable_slots(g, 2) == switch_slots(g)
        assert _affordable_slots(g, 1, [(0, 1)]) == {(0, 1): ((2, 3, -2),)}

    @pytest.mark.parametrize("b, board, bound", [(1, "c", 5), (2, "a", 6)])
    def test_the_trees_bound_is_its_affordable_suffix(
        self, short_then_affordable, b, board, bound
    ):
        # at b=1 the switch at a, short by 2, is dropped, so the tree's
        # earliest placement boards path 1 at c; at b=2 it boards at a
        g = short_then_affordable
        sites = earliest_sites(g, self.TREE, 0, _affordable_slots(g, b))
        assert [g.paths[c].vertices[pos_c] for _, _, c, pos_c in sites] == [board]
        assert len(suffix_union(g, svs_at(g, sites), "s")) == bound
        for mode in MODES:
            want = solve_xp_by_b(g, "s", b, mode)
            assert (len(want.reached), want.cost) == (bound, 0 if b == 1 else 2)
            answers = [
                solve_xp_by_k(g, "s", b, mode),
                solve_fpt_general(g, "s", b, mode),
                solve_fixed_spt(g, "s", b, mode, self.TREE),
            ]
            if mode is Mode.DELAY:
                answers.append(solve_fpt_delay(g, "s", b))
            for sol in answers:
                assert (len(sol.reached), sol.cost) == (bound, want.cost), mode
                assert sol.witness_svs == make_svs([Switch(board, 0, 1)]), mode

    @settings(max_examples=60, deadline=None)
    @given(_small_case(max_b=3))
    def test_the_unpruned_streams_are_unchanged(self, case):
        # no candidate within b uses a dropped slot: the same candidates, in
        # the same order, over the affordable table as over every slot
        g, s, b, mode = case
        affordable = _affordable_slots(g, b)
        assert _general_survivors(g, s, b, mode, slots=affordable) == _general_survivors(
            g, s, b, mode
        )
        assert _delay_guesses(g, s, b, slots=affordable) == _delay_guesses(g, s, b)


def _earliest_by_walk(g, spt, start, slots):
    """spt's earliest placement walked root first, the reference for
    placed_trees: each child at the first slot after its parent's anchor."""
    anchor, sites = {g.source_path_id: start}, []
    for parent, kids in root_first(g.source_path_id, spt.children_of):
        for child in kids:
            slot = next((sl for sl in slots[(parent, child)] if sl[0] > anchor[parent]), None)
            if slot is None:
                return None
            anchor[child] = slot[1]
            sites.append((parent, slot[0], child, slot[1]))
    return sites


class TestPlacedTrees:
    """The solvers take their trees from placed_trees, which grows only the
    trees that place instead of placing every tree under the source path."""

    @settings(max_examples=60, deadline=None)
    @given(_small_case(max_b=3))
    def test_it_grows_exactly_the_trees_that_place(self, case):
        # on every slot and on the affordable ones, each tree once, with its
        # earliest sites, parents before children
        g, s, b, _ = case
        start, src = g.source_path.find(s), g.source_path_id
        for slots in (switch_slots(g), _affordable_slots(g, b)):
            grown = list(placed_trees(g, start, slots))
            assert len({spt for spt, _ in grown}) == len(grown)
            for spt, sites in grown:
                assert sorted((c, p) for p, _, c, _ in sites) == list(spt.parents)
                placed = {src}
                for p, _, c, _ in sites:
                    assert p in placed, spt  # parents before children
                    placed.add(c)
            want = {}
            for spt in enumerate_spts(g.k, include_partial=True, root=src):
                sites = _earliest_by_walk(g, spt, start, slots)
                got = earliest_sites(g, spt, start, slots)
                assert (got is None) == (sites is None), spt
                if sites is not None:
                    assert set(got) == set(sites), spt
                    want[spt] = set(sites)
            assert {spt: set(sites) for spt, sites in grown} == want


@pytest.fixture
def tie_across_trees():
    """At b=2, {v1:0->1} of tree 1:0 and {v0:0->1, v4:1->2} of tree 1:0, 2:1
    both reach 6 vertices at cost 2; the bounds are 6 and 7."""
    return graph_of(
        path(0, "s v0 v1 v2", (2, 4, 10)),
        path(1, "v1 v3 v0 v4", (3, 4, 7)),
        path(2, "v0 v1 v4 v5", (0, 2, 6)),
    )


class TestBestBoundFirst:
    """_best_tree searches trees best bound first and, at equal reach and
    cost, lets the tree of lower canonical rank win, so its answer does not
    depend on the order of the trees it is given."""

    def test_a_tie_goes_to_the_tree_ranked_first(self, tie_across_trees):
        # tree 1:0, 2:1 is searched first, for its higher bound, and its set
        # ties with tree 1:0's, found later; tree 1:0 comes first in
        # canonical order, so its set wins, as in the full scans
        g = tie_across_trees
        want = make_svs([Switch("v1", 0, 1)])
        for mode in MODES:
            answers = [
                (solve_xp_by_k(g, "s", 2, mode), xp_k_pricing_every_set(g, "s", 2, mode)),
                (solve_fpt_general(g, "s", 2, mode), fpt_general_by_scan(g, "s", 2, mode)),
            ]
            if mode is Mode.DELAY:
                answers.append((solve_fpt_delay(g, "s", 2), fpt_delay_by_product(g, "s", 2)))
            for sol, ref in answers:
                assert sol == ref, mode
                assert (sol.witness_svs, sol.cost) == (want, 2), mode

    @settings(max_examples=100, deadline=None)
    @given(_small_case(max_b=3), st.randoms(use_true_random=False))
    def test_the_winner_does_not_depend_on_the_tree_order(self, case, rnd):
        # the tree source, placed_trees, patched to hand _best_tree the same
        # trees in canonical, reversed and shuffled order
        g, s, b, mode = case
        slots = _affordable_slots(g, b)
        trees = sorted(placed_trees(g, 0, slots), key=lambda tree: spt_rank(tree[0]))
        shuffled = trees[:]
        rnd.shuffle(shuffled)

        def fed(order):
            def tree_source(graph, start, got_slots):
                assert (graph, start, got_slots) == (g, 0, slots)
                return iter(order)

            return tree_source

        searches = {
            "xp-k": (mode, _set_search),
            "fpt-general": (mode, _general_search),
            "fpt-delay": (Mode.DELAY, _delay_search),
        }
        for algo, (search_mode, search_of) in searches.items():
            got = []
            for order in (trees, trees[::-1], shuffled):
                tick = _counter(DEFAULT_STATE_LIMIT, "steps")
                with pytest.MonkeyPatch.context() as patched:
                    patched.setattr(solver_budgeted, "placed_trees", fed(order))
                    got.append(_best_tree(g, s, b, search_mode, search_of, tick))
            assert got[1] == got[0] and got[2] == got[0], algo


class TestEveryCandidateIsChecked:
    """_best_tree checks that every candidate a search yields replays
    temporal, whichever solver's search made it."""

    def test_a_set_priced_without_its_shifts_fails_the_check(self, tight_chain, monkeypatch):
        # every set priced at no cost and no ops: the first set searched,
        # a:0->1 c:1->2 on tree 1:0, 2:1 (the best bound), keeps c:1->2
        # short by one, so its ops do not make it temporal
        monkeypatch.setattr(solver_budgeted, "_price_sites", lambda *args: (0, ()))
        tree = SwitchPathTree(((1, 0), (2, 1)))
        for mode in MODES:
            with pytest.raises(AssertionError):
                solve_xp_by_k(tight_chain, "s", 1, mode)
            with pytest.raises(AssertionError):
                solve_fixed_spt(tight_chain, "s", 1, mode, tree)


def _xp_k_then_fixed_spt(g, s, b, mode):
    """xp-k's solution, then fixed-spt's on the tree of its witness."""
    xpk = solve_xp_by_k(g, s, b, mode)
    return xpk, solve_fixed_spt(g, s, b, mode, implied_spt(xpk.witness_svs))


class TestPricingShortcuts:
    """_price_sites builds no program for a set already temporal, and
    _lex_search rescans only the rows whose variables moved and stops at
    the set's floor: xp-k and fixed-spt answer as they do with full-pass
    propagation searching every leaf (tests/oracles.py)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_solutions_equal_those_priced_by_full_passes(self, seed, monkeypatch):
        g = gen_random(4, 8, 24, 0.6, seed)
        for b in (0, 2, 4, 25):
            for mode in MODES:
                got = _xp_k_then_fixed_spt(g, g.source, b, mode)
                with monkeypatch.context() as patched:
                    patched.setattr(solver_budgeted, "_lex_search", lex_search_by_full_passes)
                    assert _xp_k_then_fixed_spt(g, g.source, b, mode) == got, (b, mode)

    @settings(max_examples=40, deadline=None)
    @given(_small_case(max_b=3))
    def test_small_cases_equal_those_priced_by_full_passes(self, case):
        g, s, b, mode = case
        got = _xp_k_then_fixed_spt(g, s, b, mode)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(solver_budgeted, "_lex_search", lex_search_by_full_passes)
            assert _xp_k_then_fixed_spt(g, s, b, mode) == got

    def test_a_set_already_temporal_builds_no_program(self, short_then_affordable, monkeypatch):
        # path 1 boards at c as the labels stand, floor 0: (0, ()) unpriced.
        # At b=1 the slot at a, short by 2, is dropped, so xp-k builds none
        g = short_then_affordable
        at_c, at_a = make_svs([Switch("c", 0, 1)]), make_svs([Switch("a", 0, 1)])
        programs = []
        real = solver_budgeted._lex_search

        def recording(n, *args):
            programs.append(n)
            return real(n, *args)

        monkeypatch.setattr(solver_budgeted, "_lex_search", recording)
        for mode in MODES:
            assert _floor_of(g, at_c, mode) == 0
            assert min_cost_for_svs(g, at_c, mode, 3) == (0, ())
            sol = solve_xp_by_k(g, "s", 1, mode)
            assert (sol.cost, sol.witness_svs) == (0, at_c), mode
        assert programs == []
        assert min_cost_for_svs(g, at_a, Mode.DELAY, 3)[0] == 2
        assert len(programs) == 1
