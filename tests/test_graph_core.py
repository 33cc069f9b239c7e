"""Core model: paths, shifts, slack, reachability, normalization, text format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_of, path
from oracles import apply_sequence_by_shifts, brute_reach
from tpshift.graph_core import (
    NEG_INF,
    AddressingError,
    BasePath,
    Mode,
    OrderingError,
    ParameterError,
    ParseError,
    ShiftOperation,
    apply_sequence,
    apply_shift,
    edge_gap,
    is_normalized,
    normalize_source,
    parse_instance,
    reach_set,
    slack,
    static_reach,
    validate,
    write_instance,
)
from tpshift.instances import gen_random


def labels_of(g, pid):
    return g.paths[pid].labels


@st.composite
def base_paths(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    labels = draw(
        st.lists(
            st.integers(min_value=-30, max_value=30),
            min_size=n - 1,
            max_size=n - 1,
            unique=True,
        )
    )
    return BasePath(0, tuple(f"v{i}" for i in range(n)), tuple(sorted(labels)))


class TestBasePath:
    def test_find(self):
        p = path(0, "s a b", (1, 2))
        assert p.find("a") == 1
        assert p.find("zz") is None

    def test_edge_count(self):
        assert path(3, "a b c d", (0, 1, 2)).edge_count() == 3


class TestValidate:
    def test_clean(self, i1):
        assert validate(i1) == []

    def test_k_mismatch(self):
        g = graph_of(path(0, "s a", (0,)))
        g = g.__class__(2, g.paths, "s", 0)
        assert any("2" in m for m in validate(g))

    def test_nonincreasing_labels(self):
        g = graph_of(path(0, "s a b", (5, 5)))
        assert any("non-increasing" in m for m in validate(g))

    def test_repeated_vertex(self):
        g = graph_of(path(0, "s a s", (0, 1)))
        assert any("repeated" in m for m in validate(g))

    def test_label_count(self):
        g = graph_of(BasePath(0, ("s", "a", "b"), (1,)))
        assert any("labels" in m for m in validate(g))

    def test_source_off_path(self):
        g = graph_of(path(0, "x a", (0,)))
        assert any("source" in m for m in validate(g))

    def test_misindexed_path(self):
        g = graph_of(path(1, "s a", (0,)))
        assert any("stored at index" in m for m in validate(g))


class TestApplyShift:
    def test_delay_floods_forward(self):
        g = graph_of(path(0, "s a b c", (0, 1, 5)))
        out = apply_shift(g, ShiftOperation(0, 0, 3))
        assert labels_of(out, 0) == (3, 4, 5)

    def test_advance_floods_backward(self):
        g = graph_of(path(0, "s a b c", (0, 1, 5)))
        out = apply_shift(g, ShiftOperation(0, 2, -4))
        assert labels_of(out, 0) == (-1, 0, 1)

    def test_mid_edge_delay(self):
        g = graph_of(path(0, "s a b c d", (0, 4, 5, 9)))
        out = apply_shift(g, ShiftOperation(0, 1, 4))
        assert labels_of(out, 0) == (0, 8, 9, 10)

    def test_zero_delta_is_identity(self, i1):
        for pid in range(2):
            for ei in range(2):
                out = apply_shift(i1, ShiftOperation(pid, ei, 0))
                assert out == i1

    def test_locality(self, i1):
        out = apply_shift(i1, ShiftOperation(1, 0, 7))
        assert labels_of(out, 0) == labels_of(i1, 0)
        assert labels_of(out, 1) != labels_of(i1, 1)

    def test_unknown_path(self, i1):
        with pytest.raises(AddressingError):
            apply_shift(i1, ShiftOperation(9, 0, 1))

    def test_unknown_edge(self, i1):
        with pytest.raises(AddressingError):
            apply_shift(i1, ShiftOperation(0, 2, 1))

    @settings(max_examples=200, deadline=None)
    @given(
        base_paths(),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-10, max_value=10),
    )
    def test_labels_stay_strictly_increasing(self, p, ei, delta):
        g = graph_of(p)
        out = apply_shift(g, ShiftOperation(0, ei % p.edge_count(), delta))
        got = labels_of(out, 0)
        assert all(got[i] < got[i + 1] for i in range(len(got) - 1))

    @settings(max_examples=100, deadline=None)
    @given(
        base_paths(),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-6, max_value=6),
    )
    def test_target_edge_lands_exactly(self, p, ei, delta):
        ei %= p.edge_count()
        out = apply_shift(graph_of(p), ShiftOperation(0, ei, delta))
        assert labels_of(out, 0)[ei] == p.labels[ei] + delta


class TestApplySequence:
    def test_cost_adds_up(self, i1):
        ops = (ShiftOperation(0, 0, 2), ShiftOperation(1, 1, -3), ShiftOperation(0, 1, 0))
        _, cost = apply_sequence(i1, ops)
        assert cost == 5

    def test_empty_sequence(self, i1):
        out, cost = apply_sequence(i1, ())
        assert out is i1 and cost == 0

    def test_only_the_shifted_paths_are_rebuilt(self, i1):
        out, _ = apply_sequence(i1, (ShiftOperation(1, 0, 2), ShiftOperation(1, 1, -1)))
        assert out.paths[0] is i1.paths[0]
        assert out.paths[1].labels == (1, 2)


@st.composite
def graphs_and_ops(draw):
    """A gen_random graph and up to five ops with deltas from -6 to 6, about
    three in four on one of the graph's edges, the rest on a path in
    range(-1, k + 1) and an edge in range(-1, 5), which may be missing."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    g = gen_random(k, n, 12, 0.5, draw(st.integers(0, 10**6)))
    delta = st.integers(-6, 6)
    valid = st.builds(ShiftOperation, st.integers(0, k - 1), st.integers(0, n - 2), delta)
    anywhere = st.builds(ShiftOperation, st.integers(-1, k), st.integers(-1, 4), delta)
    return g, draw(st.lists(st.one_of(valid, valid, valid, anywhere), max_size=5))


class TestApplySequenceMatchesTheShiftFold:
    """apply_sequence builds one graph per replay; the reference folds one
    apply_shift per op (tests/oracles.py). They must agree op for op."""

    @settings(max_examples=200, deadline=None)
    @given(graphs_and_ops())
    def test_same_graph_and_cost_or_the_same_error_at_the_same_op(self, case):
        g, ops = case
        try:
            want = apply_sequence_by_shifts(g, ops)
        except AddressingError as exc:
            # the first op the reference cannot replay
            bad = next(i for i in range(len(ops)) if _fails(g, ops[: i + 1]))
            with pytest.raises(AddressingError) as got:
                apply_sequence(g, ops)
            assert str(got.value) == str(exc)
            assert apply_sequence(g, ops[:bad]) == apply_sequence_by_shifts(g, ops[:bad])
            with pytest.raises(AddressingError) as got:
                apply_sequence(g, ops[: bad + 1])
            assert str(got.value) == str(exc)
        else:
            assert apply_sequence(g, ops) == want
            if len(ops) == 1:
                assert apply_shift(g, ops[0]) == want[0]


def _fails(g, ops):
    try:
        apply_sequence_by_shifts(g, ops)
    except AddressingError:
        return True
    return False


class TestSlackAndGap:
    def test_slack_across_whole_path(self):
        p = path(0, "a b c d e", (1, 4, 5, 9))
        assert slack(p, "a", "e") == 5

    def test_slack_single_edge_is_zero(self):
        p = path(0, "a b c d e", (1, 4, 5, 9))
        assert slack(p, "a", "b") == 0
        assert slack(p, "b", "d") == 0

    def test_slack_tail(self):
        p = path(0, "a b c d e", (1, 4, 5, 9))
        assert slack(p, "c", "e") == 3

    def test_slack_reflexive(self):
        p = path(0, "a b c", (0, 7))
        assert slack(p, "b", "b") == 0

    def test_slack_errors(self):
        p = path(0, "a b c", (0, 7))
        with pytest.raises(OrderingError):
            slack(p, "z", "b")
        with pytest.raises(OrderingError):
            slack(p, "a", "z")
        with pytest.raises(OrderingError):
            slack(p, "c", "a")

    def test_edge_gap_matches_definition(self):
        p = path(0, "a b c d e", (1, 4, 5, 9))
        assert edge_gap(p, 0, 3) == 5
        assert edge_gap(p, 1, 2) == 0
        assert edge_gap(p, 2, 2) == 0

    @settings(max_examples=100, deadline=None)
    @given(base_paths())
    def test_slack_is_edge_gap_between_boundary_edges(self, p):
        n = len(p.vertices)
        for i in range(n - 1):
            for j in range(i + 1, n):
                u, v = p.vertices[i], p.vertices[j]
                assert slack(p, u, v) == edge_gap(p, i, j - 1)


class TestReachSet:
    def test_fixture_baseline(self, i1):
        assert reach_set(i1, "s") == {"s", "a", "b"}

    def test_equal_labels_do_not_chain(self):
        g = graph_of(path(0, "s a", (3,)), path(1, "a b", (3,)))
        assert reach_set(g, "s") == {"s", "a"}

    def test_strictly_later_labels_chain(self):
        g = graph_of(path(0, "s a", (3,)), path(1, "a b", (4,)))
        assert reach_set(g, "s") == {"s", "a", "b"}

    def test_source_starts_before_time(self):
        g = graph_of(path(0, "s a b", (-5, -4)))
        assert reach_set(g, "s") == {"s", "a", "b"}

    def test_mid_path_source(self, i1):
        assert reach_set(i1, "a") == {"a", "b", "y"}

    def test_unknown_source(self, i1):
        with pytest.raises(AddressingError):
            reach_set(i1, "nope")

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_walk_search(self, seed):
        k = 2 + seed % 2
        g = gen_random(k, 3 + seed % 2, 9, 0.5, seed=seed)
        assert reach_set(g, "s") == brute_reach(g, "s")

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_walk_search_after_shifts(self, seed):
        import random

        rng = random.Random(seed)
        g = gen_random(2, 4, 10, 0.6, seed=100 + seed)
        for _ in range(4):
            pid = rng.randrange(g.k)
            ei = rng.randrange(g.paths[pid].edge_count())
            g = apply_shift(g, ShiftOperation(pid, ei, rng.randint(-4, 4)))
        assert reach_set(g, "s") == brute_reach(g, "s")


class TestStaticReach:
    def test_follows_edges_forward_only(self, i1):
        # x -> a is an edge, but only into a; labels would stop s at a
        assert static_reach(i1.paths, "s") == {"s", "a", "b", "y"}
        assert static_reach(i1.paths, "x") == {"x", "a", "b", "y"}
        assert static_reach(i1.paths, "y") == {"y"}

    def test_ignores_labels(self):
        g = graph_of(path(0, "s a", (9,)), path(1, "a b", (1,)))
        assert reach_set(g, "s") == {"s", "a"}
        assert static_reach(g.paths, "s") == {"s", "a", "b"}

    @pytest.mark.parametrize("seed", range(20))
    def test_holds_every_shifted_reach(self, seed):
        import random

        rng = random.Random(seed)
        g = gen_random(2 + seed % 3, 4, 10, 0.6, seed=200 + seed)
        ceiling = static_reach(g.paths, "s")
        for _ in range(20):
            pid = rng.randrange(g.k)
            ei = rng.randrange(g.paths[pid].edge_count())
            g = apply_shift(g, ShiftOperation(pid, ei, rng.randint(-6, 6)))
            assert reach_set(g, "s") <= ceiling


class TestNormalization:
    def test_already_normalized_is_untouched(self, i1):
        assert normalize_source(i1, "s", 3) is i1

    def test_head_of_other_path_just_redeclares(self):
        g = graph_of(path(0, "a b", (0,)), path(1, "x y", (4,)), source="a")
        out = normalize_source(g, "x", 2)
        assert out.k == 2 and out.source == "x" and out.source_path_id == 1
        assert out.paths == g.paths

    def test_mid_path_source_gets_own_path(self):
        g = graph_of(path(0, "x s y", (0, 3)), source="s")
        out = normalize_source(g, "s", 2)
        assert out.k == 2
        assert out.paths[0].vertices == ("x", "s'", "y")
        assert out.paths[1].vertices == ("s", "s'")
        # label sits budget + 1 below everything already present
        assert out.paths[1].labels == (-3,)
        assert out.source_path_id == 1
        assert is_normalized(out)

    def test_source_on_two_paths(self):
        g = graph_of(path(0, "s a", (0,)), path(1, "b s", (5,)), source="s")
        out = normalize_source(g, "s", 0)
        assert out.k == 3
        assert out.paths[0].vertices == ("s'", "a")
        assert out.paths[1].vertices == ("b", "s'")
        assert out.paths[2].vertices == ("s", "s'")
        assert out.paths[2].labels == (-1,)

    def test_fresh_name_dodges_collisions(self):
        g = graph_of(path(0, "x s s'", (0, 1)), source="s")
        out = normalize_source(g, "s", 0)
        assert out.paths[0].vertices == ("x", "s''", "s'")
        assert out.paths[1].vertices == ("s", "s''")

    def test_unknown_source(self, i1):
        with pytest.raises(AddressingError):
            normalize_source(i1, "ghost", 0)

    def test_is_normalized_checks_everything(self, i1):
        assert is_normalized(i1)
        assert not is_normalized(i1, "a")
        shuffled = graph_of(path(0, "x s y", (0, 1)), source="s")
        assert not is_normalized(shuffled)


class TestTextFormat:
    def test_round_trip(self, i1):
        text = write_instance(i1)
        again = parse_instance(text)
        assert again == i1
        assert write_instance(again) == text

    def test_negative_labels_round_trip(self):
        g = graph_of(path(0, "s a b", (-7, -2)))
        assert parse_instance(write_instance(g)) == g

    def test_nonzero_source_path_round_trips(self):
        g = graph_of(path(0, "a b", (0,)), path(1, "s c", (1,)), source_path_id=1)
        assert parse_instance(write_instance(g)) == g

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_instance("k 1\nsource s\npath 0 : s -0-> a\n")

    def test_bad_arrow(self):
        with pytest.raises(ParseError):
            parse_instance("kpathgraph v1\nk 1\nsource s\npath 0 : s => a\n")

    def test_duplicate_path_id(self):
        text = (
            "kpathgraph v1\nk 2\nsource s\n"
            "path 0 : s -0-> a\npath 0 : b -1-> c\n"
        )
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_path_ids_must_cover_range(self):
        with pytest.raises(ParseError):
            parse_instance("kpathgraph v1\nk 2\nsource s\npath 0 : s -0-> a\n")

    @pytest.mark.parametrize("k", [str(10**30), str(2**63), "9" * 5000])
    def test_huge_k_is_a_parse_error(self, k):
        with pytest.raises(ParseError):
            parse_instance(f"kpathgraph v1\nk {k}\nsource s\npath 0 : s -0-> a\n")

    def test_label_past_the_integer_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_instance(f"kpathgraph v1\nk 1\nsource s\npath 0 : s -{'9' * 5000}-> a\n")

    def test_huge_labels_parse(self):
        g = parse_instance(f"kpathgraph v1\nk 1\nsource s\npath 0 : s -{10**30}-> a\n")
        assert g.paths[0].labels == (10**30,)

    def test_missing_k(self):
        with pytest.raises(ParseError):
            parse_instance("kpathgraph v1\nsource s\npath 0 : s -0-> a\n")

    def test_unserializable_vertex_name(self):
        g = graph_of(BasePath(0, ("s", "a b"), (0,)))
        with pytest.raises(ParameterError):
            write_instance(g)

    def test_arrow_lookalike_vertex_name(self):
        g = graph_of(BasePath(0, ("s", "-3->"), (0,)))
        with pytest.raises(ParameterError):
            write_instance(g)


def test_mode_allows():
    assert Mode.DELAY.allows(2) and not Mode.DELAY.allows(-1)
    assert Mode.ADVANCE.allows(-2) and not Mode.ADVANCE.allows(1)
    assert Mode.SHIFT.allows(5) and Mode.SHIFT.allows(-5)
    assert all(m.allows(0) for m in Mode)


def test_neg_inf_is_smaller_than_any_label():
    assert NEG_INF < -(10**12)
