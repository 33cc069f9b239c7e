"""Acceptance suite: one test per shipped guarantee, bounds included.

Each test prints as a single pass/fail line under pytest -v. Time limits
are asserted inside the tests that advertise one.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from conftest import MODES, graph_of, path, solver_matrix
from oracles import min_cost_for_svs_brute
from tpshift.cli import main
from tpshift.graph_core import (
    Mode,
    ShiftOperation,
    apply_sequence,
    apply_shift,
    parse_instance,
    reach_set,
    write_instance,
)
from tpshift.instances import (
    McisInstance,
    gen_mcis_delay_gadget,
    gen_random,
    ops_from_mcis_witness,
)
from tpshift.solver_budgeted import (
    min_cost_for_svs,
    solve_fpt_delay,
    solve_fpt_general,
    solve_xp_by_b,
    solve_xp_by_k,
)
from tpshift.solver_unbounded import solve_mrpt
from tpshift.switch_structures import (
    Switch,
    enumerate_spts,
    enumerate_svss,
    is_temporal_switch,
    make_svs,
    svs_reachability,
)


def test_01_spanning_tree_counts_match_cayley():
    t0 = time.perf_counter()
    counts = {k: sum(1 for _ in enumerate_spts(k)) for k in range(2, 7)}
    elapsed = time.perf_counter() - t0
    assert counts == {2: 1, 3: 3, 4: 16, 5: 125, 6: 1296}
    assert elapsed < 1.0, f"counting took {elapsed:.2f}s"


def test_02_budgeted_solvers_agree_with_exhaustive_search():
    t0 = time.perf_counter()
    for i in range(200):
        p = solver_matrix(i)
        g = gen_random(p["k"], p["n_per_path"], p["lifetime"], p["share_prob"], p["seed"])
        mode, b = p["mode"], p["b"]
        ref = solve_xp_by_b(g, "s", b, mode)
        target = len(ref.reached)
        assert len(solve_xp_by_k(g, "s", b, mode).reached) == target, (i, "xp-k")
        assert len(solve_fpt_general(g, "s", b, mode).reached) == target, (i, "fpt-general")
        if mode is Mode.DELAY:
            assert len(solve_fpt_delay(g, "s", b).reached) == target, (i, "fpt-delay")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"matrix took {elapsed:.1f}s"


def test_03_unbounded_relabeling_matches_saturated_budget():
    for seed in range(10):
        g = gen_random(2, 3, 3, 0.5 + 0.04 * seed, seed)
        labels = [t for p in g.paths for t in p.labels]
        budget = g.k * (max(labels) - min(labels) + g.total_edges())
        temp = solve_mrpt(g.paths, "s")
        ref = solve_xp_by_b(g, "s", budget, Mode.SHIFT)
        assert len(temp.reached) == len(ref.reached), (seed, budget)


@pytest.mark.parametrize("mode", [Mode.SHIFT, Mode.DELAY])
def test_xp_k_at_a_huge_budget_reaches_what_relabeling_reaches(mode):
    # pricing halves integer domains, so b = 10**6 costs ~20 levels, not 10**6 values
    for seed in range(10):
        g = gen_random(2, 3, 3, 0.5 + 0.04 * seed, seed)
        sol = solve_xp_by_k(g, "s", 10**6, mode)
        assert sol.reached == solve_mrpt(g.paths, "s").reached, seed


def test_04_shift_semantics_hold_on_random_sequences():
    rng = random.Random(424242)
    for _ in range(10_000):
        k = rng.randint(1, 3)
        n = rng.randint(2, 4)
        g = gen_random(k, n, rng.randint(n, 9), rng.random(), rng.randrange(1 << 30))
        ops = tuple(
            ShiftOperation(rng.randrange(k), rng.randrange(n - 1), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4))
        )
        shifted, cost = apply_sequence(g, ops)
        assert cost == sum(abs(op.delta) for op in ops)
        for p in shifted.paths:
            assert all(a < b for a, b in zip(p.labels, p.labels[1:]))
        op = ops[0]
        one = apply_shift(g, op)
        for before, after in zip(g.paths, one.paths):
            assert before.vertices == after.vertices
            if before.path_id != op.path_id:
                assert before.labels == after.labels
        assert apply_shift(g, ShiftOperation(op.path_id, op.edge_index, 0)) == g


def _two_color_instances():
    """Every MCIS instance on colors A and B with at most three nodes each."""
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            a_nodes = tuple(f"a{i}" for i in range(1, n1 + 1))
            b_nodes = tuple(f"b{i}" for i in range(1, n2 + 1))
            pairs = [frozenset(p) for p in itertools.product(a_nodes, b_nodes)]
            for r in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, r):
                    yield McisInstance(
                        (("A", a_nodes), ("B", b_nodes)), frozenset(chosen)
                    )


def test_05_independent_set_witnesses_cover_their_gadgets():
    t0 = time.perf_counter()
    total = with_is = 0
    for mcis in _two_color_instances():
        total += 1
        a_nodes = mcis.colors[0][1]
        b_nodes = mcis.colors[1][1]
        sets = [
            (a, b)
            for a, b in itertools.product(a_nodes, b_nodes)
            if frozenset({a, b}) not in mcis.edges
        ]
        if not sets:
            continue
        with_is += 1
        gadget = gen_mcis_delay_gadget(mcis)
        assert gadget.omega == mcis.node_count() ** 4
        everything = gadget.graph.vertices()
        for a, b in sets:
            ops = ops_from_mcis_witness(gadget, {"A": a, "B": b})
            shifted, cost = apply_sequence(gadget.graph, ops)
            assert cost <= gadget.budget, (mcis, a, b)
            assert reach_set(shifted, gadget.source) == everything, (mcis, a, b)
    elapsed = time.perf_counter() - t0
    assert (total, with_is) == (682, 673)
    assert elapsed < 60.0, f"gadget sweep took {elapsed:.1f}s"


def test_06_switch_pricing_matches_brute_force():
    cases = [(gen_random(2, 3, 7, 0.8, seed), range(4)) for seed in range(6)]
    cases += [(gen_random(2, 3, 7, 0.8, 50 + seed), (4,)) for seed in range(2)]
    cases += [(gen_random(3, 3, 8, 0.8, seed), range(3)) for seed in range(3)]
    for g, budgets in cases:
        for svs in enumerate_svss(g):
            for mode in MODES:
                for b in budgets:
                    priced = min_cost_for_svs(g, svs, mode, b)
                    got = None if priced is None else priced[0]
                    assert got == min_cost_for_svs_brute(g, svs, mode, b)
    chain = graph_of(
        path(0, "s a b", (0, 5)),
        path(1, "a c d", (1, 2)),
        path(2, "c e f", (1, 7)),
    )
    svs = make_svs([Switch("a", 0, 1), Switch("c", 1, 2)])
    deep = min_cost_for_svs(chain, svs, Mode.SHIFT, 4)
    assert deep is not None
    assert deep[0] == min_cost_for_svs_brute(chain, svs, Mode.SHIFT, 4)


def test_07_best_temporal_switch_set_attains_plain_reachability():
    for i in range(200):
        p = solver_matrix(i)
        g = gen_random(p["k"], p["n_per_path"], p["lifetime"], p["share_prob"], p["seed"])
        best = 0
        for svs in enumerate_svss(g):
            if all(is_temporal_switch(g, sw) for sw in svs.switches):
                best = max(best, len(svs_reachability(g, svs, "s")))
        assert best == len(reach_set(g, "s")), i


def test_08_every_solver_document_verifies(tmp_path, capsys):
    instances = [
        gen_random(2, 3, 9, 0.5, 0),
        gen_random(2, 4, 9, 0.5, 1),
        gen_random(3, 3, 10, 0.6, 5),
        graph_of(path(0, "a m b", (0, 1)), path(1, "m c d", (5, 6)), source="m"),
    ]
    gadget_graph = gen_mcis_delay_gadget(
        McisInstance(
            (("A", ("a1", "a2")), ("B", ("b1",))),
            frozenset({frozenset({"a1", "b1"})}),
        )
    ).graph
    for i, g in enumerate(instances + [gadget_graph]):
        f = tmp_path / f"round{i}.kpg"
        f.write_text(write_instance(g))
        assert parse_instance(f.read_text()) == g

    checked = 0
    for i, g in enumerate(instances):
        inst = tmp_path / f"inst{i}.kpg"
        inst.write_text(write_instance(g))
        normalized = g.paths[0].vertices[0] == "s"
        runs = [
            ("xp-b", ["--budget", "2"]),
            ("xp-k", ["--budget", "2"]),
            ("fpt-delay", ["--mode", "delay", "--budget", "2"]),
            ("fpt-general", ["--mode", "advance", "--budget", "1"]),
            ("fpt-general", ["--budget", "2"]),
            ("unbounded", []),
        ]
        if normalized:
            runs.append(("fixed-spt", ["--spt", "1:0", "--budget", "2"]))
        for algo, extra in runs:
            sol = tmp_path / f"sol{i}-{algo}-{len(extra)}.json"
            rc = main(
                ["solve", str(inst), "--algo", algo, *extra, "--output", str(sol)]
            )
            assert rc == 0, (i, algo)
            doc = json.loads(sol.read_text())
            assert doc["algo"] == algo
            capsys.readouterr()
            rc = main(["verify", str(inst), str(sol)])
            lines = capsys.readouterr().out.strip().splitlines()
            assert rc == 0, (i, algo, lines)
            assert lines and all(ln.startswith("PASS ") for ln in lines)
            checked += 1
    assert checked == len(instances) * 6 + 3


def test_09_delay_solvers_decide_small_two_color_gadgets():
    # the reduction as an oracle for the delay solvers: at its own budget a
    # gadget is covered iff its instance has a colorful independent set,
    # and xp-k and fpt-delay agree on (reach, cost). So does fpt-general on
    # the 11 gadgets with a one-node color or no edge. It takes 0.3-1 s on
    # each of the other 15, and the one with all four edges passes 10**6
    # guesses, from its sibling orders (ROADMAP item 3)
    checked = general = 0
    for mcis in _two_color_instances():
        (_, a_nodes), (_, b_nodes) = mcis.colors
        if len(a_nodes) > 2 or len(b_nodes) > 2:
            continue
        gadget = gen_mcis_delay_gadget(mcis)
        g, s, b = gadget.graph, gadget.source, gadget.budget
        xpk = solve_xp_by_k(g, s, b, Mode.DELAY)
        fpt = solve_fpt_delay(g, s, b)
        assert (len(fpt.reached), fpt.cost) == (len(xpk.reached), xpk.cost), mcis
        if 1 in (len(a_nodes), len(b_nodes)) or not mcis.edges:
            fpt = solve_fpt_general(g, s, b, Mode.DELAY, limit_states=300_000)
            assert (len(fpt.reached), fpt.cost) == (len(xpk.reached), xpk.cost), mcis
            general += 1
        independent = any(
            frozenset(pair) not in mcis.edges for pair in itertools.product(a_nodes, b_nodes)
        )
        assert (xpk.reached == g.vertices()) == independent, mcis
        checked += 1
    assert (checked, general) == (26, 11)
