"""Budgeted solvers measured against unit-step brute force and frozen cases."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product

import pytest

from conftest import MODES, graph_of, path
from oracles import (
    best_by_multisets,
    best_by_unit_sequences,
    fixed_spt_pricing_every_set,
    fpt_delay_by_product,
    fpt_general_by_scan,
    min_cost_for_svs_brute,
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
    normalize_source,
    reach_set,
)
from tpshift.instances import gen_random
from tpshift.solver_budgeted import (
    _canonical_ops,
    _net_vectors,
    _replayed_labels,
    _slots_by_gap,
    _splits,
    delay_guess_count,
    min_cost_for_svs,
    net_vector_count,
    solve_fixed_spt,
    solve_fpt_delay,
    solve_fpt_general,
    solve_xp_by_b,
    solve_xp_by_k,
)
from tpshift.switch_structures import (
    EMPTY_SVS,
    Switch,
    SwitchPathTree,
    enumerate_spts,
    enumerate_svss,
    implied_spt,
    is_temporal_switch,
    make_svs,
    suffix_union,
    switch_slots,
)


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


class TestSwitchSlots:
    def test_groups_are_co_sorted(self):
        for seed in range(15):
            g = small_graph(seed, k=3, share_prob=0.7)
            for (p, q), groups in _slots_by_gap(g, switch_slots(g)).items():
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
        g = small_graph(seed, k=2 + seed % 3, n_per_path=5, lifetime=12, share_prob=0.8)
        assert _slots_by_gap(g, switch_slots(g)) == slots_by_gap_scan(g)


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
        with pytest.raises(ResourceLimitError):
            solve_xp_by_k(tight_chain, "s", 1, Mode.DELAY, limit_svss=2)

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
        assert solve_fixed_spt(i1, "s", 0, Mode.DELAY, spt, empty_fallback=False) is None

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
    def test_splits_come_in_the_filtered_products_order(self, parts):
        for b in range(7):
            want = [t for t in product(range(b + 1), repeat=parts) if sum(t) <= b]
            assert list(_splits(parts, b)) == want, b

    def test_guess_count_is_the_number_of_splits(self):
        for k in (1, 2, 3, 4):
            trees = list(enumerate_spts(k, include_partial=True))
            for b in range(5):
                want = sum(len(list(_splits(len(t.parents), b))) for t in trees)
                assert delay_guess_count(trees, b) == want

    def test_guess_limit_trips(self, tight_chain):
        # trees on 3 paths: 1 root-only, 2 with one edge, 3 with two edges;
        # at b=2 that is 1 + 2 * C(3, 2) + 3 * C(4, 2) = 25 guesses
        assert solve_fpt_delay(tight_chain, "s", 2, limit_states=25).cost == 1
        with pytest.raises(ResourceLimitError, match="25 delay guesses"):
            solve_fpt_delay(tight_chain, "s", 2, limit_states=24)
