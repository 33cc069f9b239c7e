"""Random instance generator and the independent-set delay gadget."""

from __future__ import annotations

import itertools

import pytest

from tpshift.graph_core import (
    InvalidInstanceError,
    Mode,
    ParameterError,
    ParseError,
    apply_sequence,
    is_normalized,
    parse_instance,
    reach_set,
    validate,
    write_instance,
)
from tpshift.instances import (
    McisInstance,
    gen_mcis_delay_gadget,
    gen_random,
    ops_from_mcis_witness,
    parse_mcis,
)
from tpshift.solver_budgeted import solve_xp_by_k

ONE_EDGE = """\
# two colors, one conflict
color C: c1 c2
color D: d1 d2

edge c1 d1
"""


class TestParseMcis:
    def test_frozen(self):
        mcis = parse_mcis(ONE_EDGE)
        assert mcis.colors == (("C", ("c1", "c2")), ("D", ("d1", "d2")))
        assert mcis.edges == frozenset({frozenset({"c1", "d1"})})
        assert mcis.node_count() == 4

    def test_edge_order_and_duplicates_collapse(self):
        a = parse_mcis("color x: u\ncolor y: v\nedge u v\nedge v u\n")
        assert len(a.edges) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "color x u v\n",
            "color : u\n",
            "color two words: u\n",
            "edge u\n",
            "edge u u\n",
            "frobnicate u v\n",
        ],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_mcis(text)

    @pytest.mark.parametrize(
        "text",
        [
            "color x: u\ncolor x: v\n",
            "color x: u u\n",
            "color x: u\ncolor y: u\n",
            "color x:\n",
            "color x: u\nedge u ghost\n",
            "color x: u v\nedge u v\n",
            "color x: a:b\n",
        ],
    )
    def test_semantic_errors(self, text):
        with pytest.raises(InvalidInstanceError):
            parse_mcis(text)

    def test_direct_construction_is_checked_too(self):
        bad = McisInstance(
            (("x", ("u", "v")),), frozenset({frozenset({"u", "v"})})
        )
        with pytest.raises(InvalidInstanceError):
            gen_mcis_delay_gadget(bad)


class TestGenRandom:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"n_per_path": 1},
            {"lifetime": 2},
            {"share_prob": -0.1},
            {"share_prob": 1.5},
        ],
    )
    def test_parameter_bounds(self, kwargs):
        args = {"k": 2, "n_per_path": 3, "lifetime": 9, "share_prob": 0.5, "seed": 0}
        args.update(kwargs)
        with pytest.raises(ParameterError):
            gen_random(**args)

    @pytest.mark.parametrize("seed", range(10))
    def test_valid_and_normalized(self, seed):
        g = gen_random(3, 4, 11, 0.5, seed)
        assert validate(g) == []
        assert is_normalized(g, "s")
        assert g.paths[0].vertices[0] == "s"
        assert all("s" not in p.vertices for p in g.paths[1:])

    @pytest.mark.parametrize("seed", range(5))
    def test_seed_determinism(self, seed):
        a = gen_random(3, 4, 10, 0.4, seed)
        b = gen_random(3, 4, 10, 0.4, seed)
        assert a == b
        assert write_instance(a) == write_instance(b)
        assert gen_random(3, 4, 10, 0.4, seed + 100) != a

    def test_share_prob_zero_keeps_paths_disjoint(self):
        g = gen_random(4, 3, 9, 0.0, seed=2)
        assert len(g.vertices()) == 4 * 3

    @pytest.mark.parametrize("seed", range(5))
    def test_share_prob_one_shares(self, seed):
        g = gen_random(2, 3, 9, 1.0, seed)
        assert len(g.vertices()) < 2 * 3

    def test_round_trips_through_text(self):
        g = gen_random(3, 4, 12, 0.6, seed=7)
        assert parse_instance(write_instance(g)) == g


class TestDelayGadget:
    def test_frozen_one_edge_instance(self):
        gadget = gen_mcis_delay_gadget(parse_mcis(ONE_EDGE))
        g = gadget.graph
        assert gadget.omega == 4**4 == 256
        assert gadget.budget == 256 + 256 + 255 == 767
        assert gadget.source == "s"
        assert g.k == 5
        assert g.paths[0].vertices == (
            "s", "C:t0", "C:t1", "C:t2", "D:t0", "D:t1", "D:t2",
        )
        assert g.paths[0].labels == (0, 1, 2, 3, 4, 5)
        assert g.paths[1].vertices == ("C:t1", "C:b1", "C:t2", "C:b2")
        assert g.paths[1].labels == (-256, -255, 0)
        assert g.paths[2].vertices == ("C:t1", "C:b1", "e:c1:d1", "C:t0", "C:b0")
        assert g.paths[2].labels == (-256, -255, -254, 0)
        assert g.paths[3].vertices == ("D:t1", "D:b1", "D:t2", "D:b2")
        assert g.paths[3].labels == (-256, -255, 0)
        assert g.paths[4].vertices == ("D:t1", "D:b1", "e:c1:d1", "D:t0", "D:b0")
        assert g.paths[4].labels == (-256, -255, -254, 0)
        assert validate(g) == []
        assert is_normalized(g, "s")
        assert len(g.vertices()) == 14

    def test_untouched_gadget_reaches_only_the_spine(self):
        gadget = gen_mcis_delay_gadget(parse_mcis(ONE_EDGE))
        assert reach_set(gadget.graph, "s") == set(gadget.graph.paths[0].vertices)

    def test_explicit_omega_scales_budget(self):
        gadget = gen_mcis_delay_gadget(parse_mcis(ONE_EDGE), omega=32)
        assert gadget.omega == 32 and gadget.budget == 95
        assert gadget.graph.paths[1].labels == (-32, -31, 0)

    def test_too_small_omega_raises(self):
        # the least omega is 1 + (3 + 2) + (6 + 5), the spine positions of
        # C:t2, C:t1, D:t2 and D:t1; at omega=3 xp-k reached 11 of 14
        with pytest.raises(ParameterError, match="need >= 17"):
            gen_mcis_delay_gadget(parse_mcis(ONE_EDGE), omega=16)
        gen_mcis_delay_gadget(parse_mcis(ONE_EDGE), omega=17)

    def test_least_omega_covers_a_yes_instance(self):
        # no edge: a1, b1 is a colorful independent set, and boarding it
        # costs (2 + 1) + (4 + 3) = 10, which budget omega - 1 must cover
        mcis = parse_mcis("color A: a1\ncolor B: b1\n")
        with pytest.raises(ParameterError, match="need >= 11"):
            gen_mcis_delay_gadget(mcis, omega=10)
        gadget = gen_mcis_delay_gadget(mcis, omega=11)
        g = gadget.graph
        sol = solve_xp_by_k(g, gadget.source, gadget.budget, Mode.DELAY)
        assert (gadget.budget, sol.cost, sol.reached) == (10, 10, g.vertices())

    def test_default_omega_is_at_least_the_bound(self):
        # N**4 = 1 would give budget 0, under which s reaches 3 of 5
        gadget = gen_mcis_delay_gadget(parse_mcis("color A: a1\n"))
        assert (gadget.omega, gadget.budget) == (4, 3)
        g = gadget.graph
        sol = solve_xp_by_k(g, gadget.source, gadget.budget, Mode.DELAY)
        assert sol.reached == g.vertices() and len(sol.reached) == 5

    def test_gadget_text_round_trip(self):
        g = gen_mcis_delay_gadget(parse_mcis(ONE_EDGE)).graph
        assert parse_instance(write_instance(g)) == g

    @pytest.mark.parametrize(
        "mcis",
        [
            McisInstance((("C:x", ("c1",)), ("D", ("d1",))), frozenset()),
            McisInstance((("C", ("c1",)), ("D", ("d1",))), frozenset([frozenset(["c1"])])),
        ],
        ids=["colon-in-color-name", "one-node-edge"],
    )
    def test_an_invalid_mcis_instance_raises(self, mcis):
        # built directly, past parse_mcis's own checks
        with pytest.raises(InvalidInstanceError):
            gen_mcis_delay_gadget(mcis)


class TestWitnessOps:
    def test_assignment_must_cover_the_colors(self):
        gadget = gen_mcis_delay_gadget(parse_mcis(ONE_EDGE))
        for assignment in ({}, {"C": "c1"}, {"C": "c1", "D": "d1", "E": "x"}):
            with pytest.raises(InvalidInstanceError):
                ops_from_mcis_witness(gadget, assignment)
        with pytest.raises(InvalidInstanceError):
            ops_from_mcis_witness(gadget, {"C": "d1", "D": "c1"})

    def test_coverage_tracks_independence(self):
        gadget = gen_mcis_delay_gadget(parse_mcis(ONE_EDGE))
        g = gadget.graph
        everything = g.vertices()
        for c, d in itertools.product(("c1", "c2"), ("d1", "d2")):
            ops = ops_from_mcis_witness(gadget, {"C": c, "D": d})
            shifted, cost = apply_sequence(g, ops)
            assert all(op.delta > 0 for op in ops)
            assert cost <= gadget.budget
            reached = reach_set(shifted, "s")
            if (c, d) == ("c1", "d1"):
                assert everything - reached == {"e:c1:d1"}
            else:
                assert reached == everything

    def test_three_colors_with_conflicts(self):
        text = (
            "color A: a1 a2 a3\n"
            "color B: b1 b2\n"
            "color R: r1\n"
            "edge a1 b1\nedge a2 b2\nedge a3 r1\nedge b1 r1\n"
        )
        mcis = parse_mcis(text)
        gadget = gen_mcis_delay_gadget(mcis)
        g = gadget.graph
        everything = g.vertices()
        winners = 0
        for combo in itertools.product(("a1", "a2", "a3"), ("b1", "b2"), ("r1",)):
            chosen = set(combo)
            independent = not any(
                frozenset(pair) in mcis.edges
                for pair in itertools.combinations(chosen, 2)
            )
            ops = ops_from_mcis_witness(
                gadget, {"A": combo[0], "B": combo[1], "R": combo[2]}
            )
            shifted, cost = apply_sequence(g, ops)
            assert cost <= gadget.budget
            reached = reach_set(shifted, "s")
            assert (reached == everything) == independent
            expected_missing = {
                "e:%s:%s" % tuple(sorted(e))
                for e in mcis.edges
                if e <= chosen
            }
            assert everything - reached == expected_missing
            winners += independent
        assert winners == 1  # only a1/b2/r1 avoids every edge

    def test_one_node_colors_joined_by_an_edge(self):
        # the only choice fails independence, and neither color's spines
        # have a gap for the edge vertex: it heads a path of its own, which
        # no edge enters, so it stays unreached
        gadget = gen_mcis_delay_gadget(parse_mcis("color A: a1\ncolor B: b1\nedge a1 b1\n"))
        g = gadget.graph
        assert (g.k, gadget.budget, len(g.vertices())) == (6, 15, 11)
        assert g.paths[5].vertices == ("e:a1:b1", "e:a1:b1:tail")
        assert validate(g) == [] and is_normalized(g, "s")
        shifted, cost = apply_sequence(g, ops_from_mcis_witness(gadget, {"A": "a1", "B": "b1"}))
        assert cost <= gadget.budget
        assert g.vertices() - reach_set(shifted, "s") == {"e:a1:b1", "e:a1:b1:tail"}

    def test_one_node_colors_and_no_edges(self):
        gadget = gen_mcis_delay_gadget(
            parse_mcis("color A: a1\ncolor B: b1\n")
        )
        g = gadget.graph
        ops = ops_from_mcis_witness(gadget, {"A": "a1", "B": "b1"})
        shifted, cost = apply_sequence(g, ops)
        assert cost <= gadget.budget
        assert reach_set(shifted, "s") == g.vertices()
