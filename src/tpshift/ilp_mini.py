"""Exact minimization of tiny bounded integer programs.

One depth-first search over boxes of variable bounds, with bounds
propagation and an objective cut. It always splits the first unfixed
variable in declaration order at the middle of its domain and explores the
lower half first, so leaves come in lexicographic order: the first leaf
that attains the optimum is the lexicographically smallest optimal
assignment, and a box whose objective floor cannot beat the best leaf so far
is cut. Halving makes the search depth grow with the log of the domain
widths, not with the widths. Built for a handful of variables; no floating
point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Terms = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class IntVar:
    name: str
    lo: int
    hi: int


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coeff * var) sense rhs, with sense one of <=, >=, ==."""

    terms: Terms
    sense: str
    rhs: int


@dataclass(frozen=True)
class IlpInstance:
    variables: tuple[IntVar, ...]
    constraints: tuple[LinearConstraint, ...]
    objective: Terms


def terms(pairs: Iterable[tuple[str, int]]) -> Terms:
    """Merge duplicate names and drop zero coefficients."""
    acc: dict[str, int] = {}
    for name, c in pairs:
        acc[name] = acc.get(name, 0) + c
    return tuple((n, c) for n, c in acc.items() if c != 0)


def le(pairs: Iterable[tuple[str, int]], rhs: int) -> LinearConstraint:
    return LinearConstraint(terms(pairs), "<=", rhs)


def ge(pairs: Iterable[tuple[str, int]], rhs: int) -> LinearConstraint:
    return LinearConstraint(terms(pairs), ">=", rhs)


def eq(pairs: Iterable[tuple[str, int]], rhs: int) -> LinearConstraint:
    return LinearConstraint(terms(pairs), "==", rhs)


def solve_min(instance: IlpInstance) -> tuple[int, dict[str, int]] | None:
    """Minimize the objective. Returns (value, assignment) or None if infeasible.

    Exact. Among optimal assignments, returns the lexicographically smallest
    in variable declaration order.
    """
    index = {v.name: i for i, v in enumerate(instance.variables)}
    if len(index) != len(instance.variables):
        raise ValueError("duplicate variable name")
    n = len(instance.variables)
    lo0 = [v.lo for v in instance.variables]
    hi0 = [v.hi for v in instance.variables]
    rows: list[tuple[tuple[tuple[int, int], ...], int]] = []

    def add_le(ts: Terms, rhs: int) -> None:
        rows.append((tuple((index[name], c) for name, c in ts), rhs))

    for con in instance.constraints:
        for name, _ in con.terms:
            if name not in index:
                raise ValueError(f"constraint references unknown variable {name!r}")
        if con.sense in ("<=", "=="):
            add_le(con.terms, con.rhs)
        if con.sense in (">=", "=="):
            add_le(tuple((nm, -c) for nm, c in con.terms), -con.rhs)
        if con.sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {con.sense!r}")
    for name, _ in instance.objective:
        if name not in index:
            raise ValueError(f"objective references unknown variable {name!r}")
    obj = tuple((index[name], c) for name, c in instance.objective)

    best = _lex_search(n, lo0, hi0, rows, obj)
    if best is None:
        return None
    value, point = best
    return value, {var.name: point[i] for i, var in enumerate(instance.variables)}


def _propagate(
    n: int,
    lo: list[int],
    hi: list[int],
    rows: list[tuple[tuple[tuple[int, int], ...], int]],
) -> bool:
    """Tighten bounds to a fixpoint. False on an emptied domain."""
    if any(lo[j] > hi[j] for j in range(n)):
        return False
    changed = True
    while changed:
        changed = False
        for row, rhs in rows:
            base = 0
            for j, c in row:
                base += c * lo[j] if c > 0 else c * hi[j]
            if base > rhs:
                return False
            for j, c in row:
                own = c * lo[j] if c > 0 else c * hi[j]
                residual = rhs - (base - own)
                if c > 0:
                    limit = residual // c  # floor for positive coefficient
                    if limit < hi[j]:
                        hi[j] = limit
                        changed = True
                else:
                    limit = -(residual // (-c))  # ceil(residual / c), c < 0
                    if limit > lo[j]:
                        lo[j] = limit
                        changed = True
                if lo[j] > hi[j]:
                    return False
    return True


def _objective_floor(lo: list[int], hi: list[int], obj) -> int:
    total = 0
    for j, c in obj:
        total += c * lo[j] if c > 0 else c * hi[j]
    return total


def _lex_search(n, lo0, hi0, rows, obj) -> tuple[int, list[int]] | None:
    """(optimum, lex-smallest optimal point) or None; unchecked, each row <= rhs."""
    best: tuple[int, list[int]] | None = None
    stack = [(lo0, hi0)]  # a list, not recursion: depth is n * log2(width)
    while stack:
        lo, hi = stack.pop()
        if not _propagate(n, lo, hi, rows):
            continue
        floor = _objective_floor(lo, hi, obj)
        if best is not None and floor >= best[0]:
            continue  # every later leaf is lex-larger, so only a strict gain counts
        j = next((j for j in range(n) if lo[j] < hi[j]), None)
        if j is None:
            best = (floor, lo)
            continue
        mid = (lo[j] + hi[j]) // 2
        upper_lo, lower_hi = lo.copy(), hi.copy()
        upper_lo[j], lower_hi[j] = mid + 1, mid
        stack.append((upper_lo, hi))
        stack.append((lo, lower_hi))  # popped first: the lower half
    return best
