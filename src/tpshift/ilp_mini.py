"""Exact minimization of tiny bounded integer programs.

One depth-first search over boxes of variable bounds, with bounds
propagation and an objective cut. It always splits the first unfixed
variable in declaration order at the middle of its domain and explores the
lower half first, so leaves come in lexicographic order: the first leaf
that attains the optimum is the lexicographically smallest optimal
assignment, and a box whose objective floor cannot beat the best leaf so far
is cut. Halving makes the search depth grow with the log of the domain
widths; the number of boxes visited still grows with the widths. A box's
propagation rescans only the rows whose variables moved. Built for a
handful of variables; no floating point anywhere.
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

    def add_le(ts: Terms, rhs: int) -> None:  # terms: each variable once, none at 0
        rows.append((tuple((index[name], c) for name, c in terms(ts)), rhs))

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


def _settle(
    lo: list[int],
    hi: list[int],
    rows: list[tuple[tuple[tuple[int, int], ...], int]],
    watch: list[list[int]],
    queue: list[int],
) -> bool:
    """Tighten bounds to the rows' fixpoint, given that every row not in
    queue is at it already. False if some row cannot hold in the box.

    A row whose least value in the box is within its rhs, by slack, caps
    each of its variables at the bound that spends all of slack on it. That
    bound never crosses the variable's other one, so only the least-value
    test can empty a box. Tightening a variable moves only its bound that
    the least value does not read, so one scan takes a row to its own
    fixpoint; a row is scanned again only once a bound of one of its other
    variables moves (watch[j]: the rows naming variable j).
    """
    queued = [False] * len(rows)
    for r in queue:
        queued[r] = True
    while queue:
        r = queue.pop()
        row, rhs = rows[r]
        slack = rhs
        for j, c in row:
            slack -= c * lo[j] if c > 0 else c * hi[j]
        if slack < 0:
            return False
        for j, c in row:
            if c > 0:
                limit = lo[j] + slack // c
                if limit >= hi[j]:
                    continue
                hi[j] = limit
            else:
                limit = hi[j] - slack // -c
                if limit <= lo[j]:
                    continue
                lo[j] = limit
            for w in watch[j]:
                if not queued[w]:
                    queued[w] = True
                    queue.append(w)
        queued[r] = False
    return True


def _objective_floor(lo: list[int], hi: list[int], obj) -> int:
    total = 0
    for j, c in obj:
        total += c * lo[j] if c > 0 else c * hi[j]
    return total


def _lex_search(n, lo0, hi0, rows, obj, least=None) -> tuple[int, list[int]] | None:
    """(optimum, lex-smallest optimal point) or None; unchecked, each row
    <= rhs, naming each variable at most once with a nonzero coefficient.
    least, if given, is a lower bound on the objective over the feasible
    points.

    - Propagation. Each box is settled to the fixpoint of its rows
      (_settle). The root queues every row; a child queues only the rows of
      its split variable, since its parent is at the fixpoint and the split
      moved no other bound. Each row only narrows bounds, and narrows more
      in a smaller box, so the fixpoint is the largest box within the start
      box that every row leaves as it is, whatever order the rows are
      scanned in, or no box at all if a row cannot hold. The boxes, the
      leaves and the answer are those of scanning every row until nothing
      moves.
    - Floor stop. Within a box the variables before the split are fixed, and
      every point of the lower half is lex-smaller than every point of the
      upper half, so leaves come in lex order. A leaf whose value is at
      least is optimal, as no feasible point costs less, and every later
      leaf is lex-larger: the search stops there, with the answer it would
      have returned at the end.
    """
    watch: list[list[int]] = [[] for _ in range(n)]
    for r, (row, _) in enumerate(rows):
        for j, _ in row:
            watch[j].append(r)
    if any(lo0[j] > hi0[j] for j in range(n)):
        return None
    best: tuple[int, list[int]] | None = None
    # (lo, hi, rows to rescan, first variable that may be unfixed); a list,
    # not recursion: depth is n * log2(width)
    stack = [(lo0, hi0, list(range(len(rows))), 0)]
    while stack:
        lo, hi, queue, j = stack.pop()
        if not _settle(lo, hi, rows, watch, queue):
            continue
        floor = _objective_floor(lo, hi, obj)
        if best is not None and floor >= best[0]:
            continue  # every later leaf is lex-larger, so only a strict gain counts
        while j < n and lo[j] == hi[j]:
            j += 1
        if j == n:
            best = (floor, lo)
            if least is not None and floor <= least:
                break
            continue
        mid = (lo[j] + hi[j]) // 2
        upper_lo, lower_hi = lo.copy(), hi.copy()
        upper_lo[j], lower_hi[j] = mid + 1, mid
        stack.append((upper_lo, hi, watch[j].copy(), j))
        stack.append((lo, lower_hi, watch[j].copy(), j))  # popped first: the lower half
    return best
