"""Independent reference implementations the test suite checks against.

Everything here favors obviousness over speed: explicit walk search,
exhaustive operation sequences, Cartesian feasibility scans. Expected
values frozen into tests were produced by these functions.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from tpshift.graph_core import (
    Mode,
    ShiftOperation,
    TemporalKPathGraph,
    Vertex,
    apply_sequence,
    reach_set,
)
from tpshift.ilp_mini import IlpInstance
from tpshift.solver_budgeted import BudgetedSolution, _canonical_ops
from tpshift.switch_structures import (
    Switch,
    SwitchVertexSet,
    enumerate_spts,
    is_valid_svs,
    make_svs,
)


def brute_reach(graph: TemporalKPathGraph, s: Vertex) -> set[Vertex]:
    """Vertices reachable by explicit temporal-walk search from s."""
    reached = {s}
    seen: set[tuple[Vertex, int]] = set()
    stack: list[tuple[Vertex, int | None]] = [(s, None)]
    while stack:
        v, t = stack.pop()
        for p in graph.paths:
            for ei in range(p.edge_count()):
                if p.vertices[ei] != v:
                    continue
                if t is not None and p.labels[ei] <= t:
                    continue
                state = (p.vertices[ei + 1], p.labels[ei])
                reached.add(state[0])
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return reached


def svs_respecting_reach(
    graph: TemporalKPathGraph, svs: SwitchVertexSet, s: Vertex
) -> set[Vertex]:
    """Vertices reachable when walks may only change paths at svs switches.

    A walk rides its current path forward and, at a vertex carrying a
    switch out of that path, may hop iff the hop is temporal there. The
    switches are not required to form anything coherent; this is plain
    simulation.
    """
    hops: dict[tuple[Vertex, int], list[int]] = {}
    for sw in svs.switches:
        hops.setdefault((sw.vertex, sw.from_path), []).append(sw.to_path)
    src = graph.source_path_id
    start = graph.paths[src].find(s)
    if start is None:
        return set()
    reached: set[Vertex] = set()
    seen: set[tuple[int, int, int | None]] = set()
    stack: list[tuple[int, int, int | None]] = [(src, start, None)]
    while stack:
        pid, pos, t = stack.pop()
        if (pid, pos, t) in seen:
            continue
        seen.add((pid, pos, t))
        path = graph.paths[pid]
        reached.add(path.vertices[pos])
        if pos < path.edge_count() and (t is None or path.labels[pos] > t):
            stack.append((pid, pos + 1, path.labels[pos]))
        for q in hops.get((path.vertices[pos], pid), ()):
            qpos = graph.paths[q].find(path.vertices[pos])
            if qpos is None or qpos >= graph.paths[q].edge_count():
                continue
            if t is None or graph.paths[q].labels[qpos] > t:
                stack.append((q, qpos, t))
    return reached


def _unit_ops(graph: TemporalKPathGraph, mode: Mode) -> list[ShiftOperation]:
    units = []
    for p in graph.paths:
        for ei in range(p.edge_count()):
            for delta in (1, -1):
                if mode.allows(delta):
                    units.append(ShiftOperation(p.path_id, ei, delta))
    return units


def iter_unit_sequences(graph: TemporalKPathGraph, mode: Mode, b: int):
    """Every ordered sequence of at most b single-step shifts."""
    units = _unit_ops(graph, mode)
    for length in range(b + 1):
        yield from product(units, repeat=length)


def best_by_unit_sequences(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode
) -> tuple[int, int]:
    """(max reach size, min sequence length achieving it), exhaustively.

    Any operation of cost c acts like c same-sign unit steps on its edge,
    so sequences of units cover every budget-b schedule.
    """
    best = (len(brute_reach(graph, s)), 0)
    for seq in iter_unit_sequences(graph, mode, b):
        shifted, _ = apply_sequence(graph, seq)
        size = len(brute_reach(shifted, s))
        cand = (size, len(seq))
        if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
    return best


def best_by_multisets(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode
) -> BudgetedSolution:
    """xp-b as one scan over every multiset of b unit choices (skips included).

    Each multiset is merged per edge, replayed in canonical order and scored
    by (reach, -cost); the first best multiset wins. solve_xp_by_b must
    return exactly this solution while scoring each net vector only once.
    """
    units: list[tuple[int, int, int] | None] = [None]
    for path in graph.paths:
        for e in range(path.edge_count()):
            if mode is not Mode.ADVANCE:
                units.append((path.path_id, e, 1))
            if mode is not Mode.DELAY:
                units.append((path.path_id, e, -1))
    best: tuple[int, int] | None = None
    best_ops: tuple[ShiftOperation, ...] = ()
    best_reached: frozenset[Vertex] = frozenset()
    for combo in combinations_with_replacement(units, b):
        net: dict[tuple[int, int], int] = {}
        for unit in combo:
            if unit is None:
                continue
            key = (unit[0], unit[1])
            net[key] = net.get(key, 0) + unit[2]
        ops = _canonical_ops(net)
        cost = sum(abs(d) for d in net.values())
        shifted, _ = apply_sequence(graph, ops)
        reached = reach_set(shifted, s)
        score = (len(reached), -cost)
        if best is None or score > best:
            best = score
            best_ops = ops
            best_reached = frozenset(reached)
    assert best is not None  # the all-skip multiset always exists
    return BudgetedSolution(best_ops, -best[1], best_reached, None)


def min_cost_for_svs_brute(
    graph: TemporalKPathGraph, svs: SwitchVertexSet, mode: Mode, b: int
) -> int | None:
    """Cheapest unit sequence making every switch of svs temporal, or None."""
    from tpshift.switch_structures import is_temporal_switch

    for length in range(b + 1):
        for seq in product(_unit_ops(graph, mode), repeat=length):
            shifted, _ = apply_sequence(graph, seq)
            if all(is_temporal_switch(shifted, sw) for sw in svs.switches):
                return length
    return None


def cartesian_ilp_min(instance: IlpInstance) -> tuple[int, dict[str, int]] | None:
    """Scan the whole variable grid; first hit in lex order is the answer."""
    names = [v.name for v in instance.variables]
    domains = [range(v.lo, v.hi + 1) for v in instance.variables]
    best: tuple[int, tuple[int, ...]] | None = None
    for point in product(*domains):
        val = dict(zip(names, point))
        ok = True
        for con in instance.constraints:
            lhs = sum(c * val[n] for n, c in con.terms)
            if con.sense == "<=" and lhs > con.rhs:
                ok = False
            elif con.sense == ">=" and lhs < con.rhs:
                ok = False
            elif con.sense == "==" and lhs != con.rhs:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        score = sum(c * val[n] for n, c in instance.objective)
        if best is None or score < best[0] or (score == best[0] and point < best[1]):
            best = (score, point)
    if best is None:
        return None
    return best[0], dict(zip(names, best[1]))


def enumerate_svss_by_filtering(graph: TemporalKPathGraph):
    """Valid switch-vertex-sets in the reference stream order.

    Trees come in enumerate_spts order; within a tree, the Cartesian
    product of each edge's candidate switches (edges in sorted order,
    candidates along the child path) is filtered through is_valid_svs.
    """
    for spt in enumerate_spts(graph.k, include_partial=True, root=graph.source_path_id):
        per_edge = [
            [
                Switch(v, parent, child)
                for v in graph.paths[child].vertices[:-1]
                if (pf := graph.paths[parent].find(v)) is not None and pf >= 1
            ]
            for child, parent in spt.parents
        ]
        for combo in product(*per_edge):
            svs = make_svs(combo)
            if is_valid_svs(graph, svs):
                yield svs
