"""Integer program solver against a full-grid reference scan."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cartesian_ilp_min, lex_search_by_full_passes
from tpshift.ilp_mini import (
    IlpInstance,
    IntVar,
    LinearConstraint,
    _lex_search,
    eq,
    ge,
    le,
    solve_min,
    terms,
)


class TestHelpers:
    def test_terms_merges_duplicates(self):
        assert terms([("x", 2), ("y", 1), ("x", 3)]) == (("x", 5), ("y", 1))

    def test_terms_drops_zeros(self):
        assert terms([("x", 2), ("x", -2), ("y", 4)]) == (("y", 4),)

    def test_sense_constructors(self):
        assert le([("x", 1)], 5) == LinearConstraint((("x", 1),), "<=", 5)
        assert ge([("x", 1)], 5) == LinearConstraint((("x", 1),), ">=", 5)
        assert eq([("x", 1)], 5) == LinearConstraint((("x", 1),), "==", 5)


def _inst(variables, constraints, objective):
    return IlpInstance(tuple(variables), tuple(constraints), terms(objective))


class TestFrozenCases:
    def test_tie_break_is_lexicographic_in_declaration_order(self):
        inst = _inst(
            [IntVar("x", 0, 2), IntVar("y", 0, 2)],
            [ge([("x", 1), ("y", 1)], 2)],
            [("x", 1), ("y", 1)],
        )
        assert solve_min(inst) == (2, {"x": 0, "y": 2})

    def test_declaration_order_matters_for_ties(self):
        inst = _inst(
            [IntVar("y", 0, 2), IntVar("x", 0, 2)],
            [ge([("x", 1), ("y", 1)], 2)],
            [("x", 1), ("y", 1)],
        )
        assert solve_min(inst) == (2, {"y": 0, "x": 2})

    def test_infeasible(self):
        inst = _inst([IntVar("x", 0, 3)], [ge([("x", 1)], 5)], [("x", 1)])
        assert solve_min(inst) is None

    def test_empty_domain_is_infeasible(self):
        inst = _inst([IntVar("x", 4, 2)], [], [("x", 1)])
        assert solve_min(inst) is None

    def test_equality_constraint(self):
        inst = _inst(
            [IntVar("x", 0, 10), IntVar("y", 0, 10)],
            [eq([("x", 2), ("y", 3)], 12)],
            [("x", 1), ("y", 1)],
        )
        assert solve_min(inst) == (4, {"x": 0, "y": 4})

    def test_negative_objective_pushes_high(self):
        inst = _inst([IntVar("x", 0, 9)], [le([("x", 1)], 7)], [("x", -1)])
        assert solve_min(inst) == (-7, {"x": 7})

    def test_no_constraints_settles_at_cheapest_corner(self):
        inst = _inst(
            [IntVar("x", -2, 5), IntVar("y", 1, 4)], [], [("x", 3), ("y", -1)]
        )
        assert solve_min(inst) == (-10, {"x": -2, "y": 4})

    def test_empty_objective_yields_lex_smallest_feasible(self):
        inst = _inst(
            [IntVar("x", 1, 3), IntVar("y", 0, 3)],
            [ge([("x", 1), ("y", 1)], 4)],
            [],
        )
        assert solve_min(inst) == (0, {"x": 1, "y": 3})

    def test_lex_smallest_tie_across_a_wide_and_a_narrow_domain(self):
        # splitting the narrow y first would find the tied, lex-larger y = 0 first
        inst = _inst(
            [IntVar("x", -7, 30), IntVar("y", 0, 3)],
            [ge([("x", 1), ("y", 1)], 5)],
            [],
        )
        assert solve_min(inst) == (0, {"x": 2, "y": 3})

    def test_negative_coefficient_propagation(self):
        # -2x <= -6 forces x >= 3
        inst = _inst([IntVar("x", 0, 10)], [le([("x", -2)], -6)], [("x", 1)])
        assert solve_min(inst) == (3, {"x": 3})


class TestContractErrors:
    def test_duplicate_variable_names(self):
        inst = _inst([IntVar("x", 0, 1), IntVar("x", 0, 1)], [], [])
        with pytest.raises(ValueError):
            solve_min(inst)

    def test_unknown_variable_in_constraint(self):
        inst = _inst([IntVar("x", 0, 1)], [le([("zz", 1)], 0)], [])
        with pytest.raises(ValueError):
            solve_min(inst)

    def test_unknown_variable_in_objective(self):
        inst = _inst([IntVar("x", 0, 1)], [], [("zz", 1)])
        with pytest.raises(ValueError):
            solve_min(inst)

    def test_unknown_sense(self):
        inst = IlpInstance(
            (IntVar("x", 0, 1),),
            (LinearConstraint((("x", 1),), "<", 0),),
            (),
        )
        with pytest.raises(ValueError):
            solve_min(inst)


@pytest.mark.parametrize("case", range(180))
def test_agrees_with_grid_scan(case):
    rng = random.Random(9000 + case)
    nvars = rng.randint(1, 4)
    variables = []
    for i in range(nvars):
        lo = rng.randint(-3, 2)
        variables.append(IntVar(f"v{i}", lo, lo + rng.randint(0, 5)))
    names = [v.name for v in variables]
    constraints = []
    for _ in range(rng.randint(0, 4)):
        support = rng.sample(names, rng.randint(1, nvars))
        pairs = [(n, rng.choice([-3, -2, -1, 1, 2, 3])) for n in support]
        sense = rng.choice(["<=", ">=", "=="])
        con = {"<=": le, ">=": ge, "==": eq}[sense](pairs, rng.randint(-8, 8))
        constraints.append(con)
    objective = [(n, rng.randint(-3, 3)) for n in names]
    inst = _inst(variables, constraints, objective)
    assert solve_min(inst) == cartesian_ilp_min(inst)


@pytest.mark.parametrize("case", range(80))
def test_agrees_with_grid_scan_on_wide_negative_domains(case):
    # widths up to 30 from negative lower bounds put halving midpoints on
    # odd and negative values; ties still need the lex-smallest optimum
    rng = random.Random(31000 + case)
    nvars = rng.randint(1, 3)
    variables = []
    for i in range(nvars):
        lo = rng.randint(-20, 5)
        variables.append(IntVar(f"v{i}", lo, lo + rng.randint(0, 30)))
    names = [v.name for v in variables]
    constraints = []
    for _ in range(rng.randint(0, 3)):
        support = rng.sample(names, rng.randint(1, nvars))
        pairs = [(n, rng.choice([-3, -2, -1, 1, 2, 3])) for n in support]
        sense = rng.choices(["<=", ">=", "=="], weights=[2, 2, 1])[0]
        constraints.append({"<=": le, ">=": ge, "==": eq}[sense](pairs, rng.randint(-40, 40)))
    inst = _inst(variables, constraints, [(n, rng.randint(-3, 3)) for n in names])
    assert solve_min(inst) == cartesian_ilp_min(inst)


@st.composite
def _program(draw):
    """_lex_search's input as solve_min builds it: 1 to 4 variables with
    lower bounds from -20 to 5 and widths up to 30, some domains empty, and
    up to 4 constraints of distinct variables, each == one row either way."""
    n = draw(st.integers(1, 4))
    lo = [draw(st.integers(-20, 5)) for _ in range(n)]
    hi = [x + draw(st.integers(-1, 30)) for x in lo]
    coeffs = st.sampled_from((-3, -2, -1, 1, 2, 3))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        row = tuple((j, draw(coeffs)) for j in support)
        rhs, sense = draw(st.integers(-40, 40)), draw(st.sampled_from(("<=", ">=", "==")))
        if sense != ">=":
            rows.append((row, rhs))
        if sense != "<=":
            rows.append((tuple((j, -c) for j, c in row), -rhs))
    obj = tuple((j, c) for j in range(n) if (c := draw(st.integers(-3, 3))))
    return n, lo, hi, rows, obj


class TestWorklistSearchMatchesFullPasses:
    """_lex_search rescans only the rows whose variables moved, and stops at
    the first leaf at least: the same (value, point) as scanning every row
    at every box and searching every leaf (tests/oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(_program(), st.integers(0, 5))
    def test_same_optimum_with_and_without_a_floor(self, program, below):
        n, lo, hi, rows, obj = program
        want = lex_search_by_full_passes(n, lo.copy(), hi.copy(), rows, obj)
        assert _lex_search(n, lo.copy(), hi.copy(), rows, obj) == want
        least = (0 if want is None else want[0]) - below  # at or below the optimum
        assert _lex_search(n, lo.copy(), hi.copy(), rows, obj, least) == want
