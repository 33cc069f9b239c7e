"""Independent reference implementations the test suite checks against.

Everything here favors obviousness over speed: explicit walk search,
exhaustive operation sequences, Cartesian feasibility scans. Expected
values frozen into tests were produced by these functions.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations, product

from tpshift.graph_core import (
    Mode,
    ShiftOperation,
    TemporalKPathGraph,
    Vertex,
    apply_sequence,
    edge_gap,
    reach_set,
)
from tpshift.ilp_mini import IlpInstance
from tpshift.solver_budgeted import (
    BudgetedSolution,
    _canonical_ops,
    _guesses,
    _lay_out,
    min_cost_for_svs,
)
from tpshift.switch_structures import (
    Switch,
    SwitchPathTree,
    SwitchVertexSet,
    enumerate_spts,
    implied_spt,
    is_temporal_switch,
    is_valid_svs,
    make_svs,
    root_first,
    suffix_union,
    svs_at,
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


def slots_by_find(graph: TemporalKPathGraph) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """switch_slots as a per-vertex find scan: (pos on parent, pos on child)
    for each child vertex but the last that the parent holds at position >= 1."""
    out = {}
    for parent in graph.paths:
        for child in graph.paths:
            if parent.path_id != child.path_id:
                out[(parent.path_id, child.path_id)] = [
                    (pos_p, pos_c)
                    for pos_c, v in enumerate(child.vertices[:-1])
                    if (pos_p := parent.find(v)) is not None and pos_p >= 1
                ]
    return out


def slots_by_gap_scan(graph: TemporalKPathGraph):
    """Shared-vertex switch slots per ordered path pair, grouped by label gap.

    One find scan per path pair, each group sorted by position.
    """
    out: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}
    for ppath in graph.paths:
        for qpath in graph.paths:
            if ppath.path_id == qpath.path_id:
                continue
            groups: dict[int, list[tuple[int, int]]] = {}
            for pos_q in range(len(qpath.vertices) - 1):
                pos_p = ppath.find(qpath.vertices[pos_q])
                if pos_p is None or pos_p == 0:
                    continue
                gap = qpath.labels[pos_q] - ppath.labels[pos_p - 1]
                groups.setdefault(gap, []).append((pos_p, pos_q))
            for lst in groups.values():
                lst.sort()
            out[(ppath.path_id, qpath.path_id)] = groups
    return out


def keep_best(graph: TemporalKPathGraph, s: Vertex, candidates):
    """The candidate whose suffixes cover the most (ties: cheaper, then first seen)."""
    best_key: tuple[int, int] | None = None
    best = None
    for cand in candidates:
        key = (len(suffix_union(graph, cand[2], s)), -cand[1])
        if best_key is None or key > best_key:
            best_key, best = key, cand
    return best


def priced_every_set(graph: TemporalKPathGraph, svss, mode: Mode, b: int):
    """(ops, cost, svs) for each affordable set of svss, each priced at b."""
    for svs in svss:
        priced = min_cost_for_svs(graph, svs, mode, b)
        if priced is not None:
            cost, ops = priced
            yield ops, cost, svs


def _replayed(graph: TemporalKPathGraph, s: Vertex, best) -> BudgetedSolution:
    ops, cost, svs = best
    shifted, _ = apply_sequence(graph, ops)
    return BudgetedSolution(ops, cost, frozenset(reach_set(shifted, s)), svs)


def xp_k_pricing_every_set(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode
) -> BudgetedSolution:
    """solve_xp_by_k without pruning: every valid set priced, then keep_best."""
    svss = enumerate_svss_by_filtering(graph)
    return _replayed(graph, s, keep_best(graph, s, priced_every_set(graph, svss, mode, b)))


def fixed_spt_pricing_every_set(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode, svss
) -> BudgetedSolution:
    """solve_fixed_spt without pruning; svss are the tree's sets in stream order."""
    best = keep_best(graph, s, priced_every_set(graph, svss, mode, b))
    ops, cost, svs = best if best is not None else ((), 0, make_svs(()))
    return BudgetedSolution(ops, cost, frozenset(suffix_union(graph, svs, s)), svs)


def svss_by_tree(graph: TemporalKPathGraph) -> dict[SwitchPathTree, list[SwitchVertexSet]]:
    """enumerate_svss_by_filtering's stream split by implied tree, order kept."""
    out: dict[SwitchPathTree, list[SwitchVertexSet]] = {}
    for svs in enumerate_svss_by_filtering(graph):
        out.setdefault(implied_spt(svs), []).append(svs)
    return out


def fpt_delay_by_product(graph: TemporalKPathGraph, s: Vertex, b: int) -> BudgetedSolution:
    """solve_fpt_delay over the filtered product of delay splits.

    Each child takes the first vertex of its path, found on the parent by a
    find scan after the parent's anchor, whose labels work out; every placed
    guess is replayed with apply_sequence and must come out temporal.
    """
    src = graph.source_path_id
    pos_s = graph.source_path.find(s)

    def place(spt: SwitchPathTree, delay: dict[int, int]):
        anchor = {src: pos_s}
        placed = []
        for parent, kids in root_first(src, spt.children_of):
            ppath = graph.paths[parent]
            for child in kids:
                cpath = graph.paths[child]
                for pos_c, v in enumerate(cpath.vertices[:-1]):
                    pos_p = ppath.find(v)
                    if pos_p is None or pos_p <= anchor[parent]:
                        continue
                    carried = max(0, delay[parent] - edge_gap(ppath, anchor[parent], pos_p - 1))
                    if ppath.labels[pos_p - 1] + carried < cpath.labels[pos_c] + delay[child]:
                        break
                else:
                    return None
                anchor[child] = pos_c
                placed.append((child, pos_c, Switch(v, parent, child)))
        return placed

    def guesses():
        for spt in enumerate_spts(graph.k, include_partial=True, root=src):
            for split in product(range(b + 1), repeat=len(spt.parents)):
                if sum(split) > b:
                    continue
                delay = {child: amount for (child, _), amount in zip(spt.parents, split)}
                delay[src] = 0
                placed = place(spt, delay)
                if placed is None:
                    continue
                ops = tuple(
                    ShiftOperation(child, pos_c, delay[child])
                    for child, pos_c, _ in sorted(placed)
                    if delay[child]
                )
                shifted, cost = apply_sequence(graph, ops)
                svs = make_svs(sw for _, _, sw in placed)
                assert all(is_temporal_switch(shifted, sw) for sw in svs.switches)
                yield ops, cost, svs

    return _replayed(graph, s, keep_best(graph, s, guesses()))


def fpt_general_by_scan(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode
) -> BudgetedSolution:
    """solve_fpt_general on slots_by_gap_scan, each placed guess replayed with
    apply_sequence and dropped unless every switch is temporal."""
    src = graph.source_path_id
    pos_s = graph.source_path.find(s)
    slots = slots_by_gap_scan(graph)
    allow_delay, allow_advance = mode is not Mode.ADVANCE, mode is not Mode.DELAY

    def guesses():
        for spt in enumerate_spts(graph.k, include_partial=True, root=src):
            parents = sorted({parent for _, parent in spt.parents})
            for ordering in product(*(permutations(spt.children_of(p)) for p in parents)):
                sigma = dict(zip(parents, ordering))
                families = [
                    (parent, kids)
                    for parent, kids in root_first(src, lambda p: sigma.get(p, ()))
                    if kids
                ]
                chain = [(parent, child, i) for parent, kids in families for i, child in enumerate(kids)]
                for assign in _guesses(chain, sigma, slots, src, b, allow_delay, allow_advance):
                    outcome = _lay_out(graph, families, assign, slots, src, pos_s)
                    if outcome is None:
                        continue
                    sites, ops, cost = outcome
                    svs = svs_at(graph, sites)
                    shifted, _ = apply_sequence(graph, ops)
                    if all(is_temporal_switch(shifted, sw) for sw in svs.switches):
                        yield ops, cost, svs

    return _replayed(graph, s, keep_best(graph, s, guesses()))
