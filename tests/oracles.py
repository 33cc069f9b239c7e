"""Independent reference implementations the test suite checks against.

Everything here favors obviousness over speed: explicit walk search,
exhaustive operation sequences, Cartesian feasibility scans. Expected
values frozen into tests were produced by these functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, permutations, product

from tpshift.graph_core import (
    AddressingError,
    Mode,
    ShiftOperation,
    TemporalKPathGraph,
    ValidityError,
    Vertex,
    edge_gap,
    reach_set,
    shift_labels,
)
from tpshift.ilp_mini import IlpInstance, IntVar, ge, le, solve_min, terms
from tpshift.solver_budgeted import (
    BudgetedSolution,
    _canonical_ops,
    _check_budget,
    min_cost_for_svs,
)
from tpshift.switch_structures import (
    Site,
    Switch,
    SwitchPathTree,
    SwitchVertexSet,
    _all_reach_root,
    _switch_edge_positions,
    enumerate_spts,
    implied_spt,
    is_temporal_switch,
    is_valid_svs,
    make_svs,
    root_first,
    suffix_union,
    svs_at,
)


def apply_shift_by_copy(graph: TemporalKPathGraph, op: ShiftOperation) -> TemporalKPathGraph:
    """One op as a new graph: the op's path rebuilt by shift_labels, every
    other path kept."""
    path = graph.path(op.path_id)
    if not 0 <= op.edge_index < path.edge_count():
        raise AddressingError(f"path {op.path_id} has no edge {op.edge_index}")
    paths = list(graph.paths)
    paths[op.path_id] = replace(
        path, labels=shift_labels(path.labels, op.edge_index, op.delta)
    )
    return replace(graph, paths=tuple(paths))


def apply_sequence_by_shifts(graph: TemporalKPathGraph, ops) -> tuple[TemporalKPathGraph, int]:
    """apply_sequence as a fold of apply_shift_by_copy, one graph per op:
    (graph, total cost), or AddressingError at the first op that does not
    address the graph. The brute-force oracles here replay with it."""
    cost = 0
    for op in ops:
        graph = apply_shift_by_copy(graph, op)
        cost += op.cost
    return graph, cost


def relabel_ops_by_copies(graph: TemporalKPathGraph, labels) -> tuple[ShiftOperation, ...]:
    """The ops rewriting every label to the given target, left to right,
    each op replayed on a copy of the graph before the next label is read."""
    ops: list[ShiftOperation] = []
    g = graph
    for pid, targets in enumerate(labels):
        for ei, t in enumerate(targets):
            cur = g.paths[pid].labels[ei]
            if cur != t:
                op = ShiftOperation(pid, ei, t - cur)
                ops.append(op)
                g = apply_shift_by_copy(g, op)
    assert all(g.paths[i].labels == tuple(labels[i]) for i in range(g.k))
    return tuple(ops)


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
        shifted, _ = apply_sequence_by_shifts(graph, seq)
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
        shifted, _ = apply_sequence_by_shifts(graph, ops)
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
            shifted, _ = apply_sequence_by_shifts(graph, seq)
            if all(is_temporal_switch(shifted, sw) for sw in svs.switches):
                return length
    return None


def min_cost_for_svs_by_names(
    graph: TemporalKPathGraph,
    svs: SwitchVertexSet,
    mode: Mode,
    b: int,
) -> tuple[int, tuple[ShiftOperation, ...]] | None:
    """min_cost_for_svs's integer program built by variable name.

    Every name comes from an f-string and every row goes through
    ilp_mini.terms and the checked solve_min; min_cost_for_svs must return
    the same (cost, ops) for every valid set.
    """
    _check_budget(b)
    if not is_valid_svs(graph, svs):
        raise ValidityError("switch-vertex-set is not valid for this graph")
    switches = sorted(
        svs.switches, key=lambda sw: (sw.to_path, sw.from_path, sw.vertex)
    )
    if not switches:
        return 0, ()
    allow_delay = mode is not Mode.ADVANCE
    allow_advance = mode is not Mode.DELAY
    src = graph.source_path_id

    onto = {sw.to_path: sw for sw in switches}
    anchor: dict[int, int] = {src: graph.paths[src].find(graph.source)}
    for pid, sw in onto.items():
        anchor[pid] = graph.paths[pid].find(sw.vertex)
    offs: dict[int, list[int]] = {}
    for sw in switches:
        pos = graph.paths[sw.from_path].find(sw.vertex)
        offs.setdefault(sw.from_path, [])
        if pos not in offs[sw.from_path]:
            offs[sw.from_path].append(pos)
    for positions in offs.values():
        positions.sort()

    tree_paths = sorted(onto)
    off_paths = sorted(offs)

    def dvar(q: int) -> str:
        return f"d{q}"

    def avar(p: int, pos: int) -> str:
        return f"a{p}_{pos}"

    def pvar(p: int, pos: int) -> str:  # propagated delay at the edge into pos
        return f"D{p}_{pos}"

    def hvar(p: int, pos: int) -> str:
        return f"h{p}_{pos}"

    def mvar(p: int, pos: int) -> str:  # advance dragged in from later edges
        return f"m{p}_{pos}"

    def uvar(p: int, pos: int) -> str:
        return f"u{p}_{pos}"

    def evar(q: int) -> str:  # advance dragged back onto the switch-in edge
        return f"E{q}"

    variables: list[IntVar] = []
    if allow_delay:
        variables += [IntVar(dvar(q), 0, b) for q in tree_paths]
    if allow_advance:
        variables += [
            IntVar(avar(p, pos), 0, b) for p in off_paths for pos in offs[p]
        ]
    for p in off_paths:
        if allow_delay and p != src:
            for pos in offs[p]:
                variables.append(IntVar(pvar(p, pos), 0, b))
                variables.append(IntVar(hvar(p, pos), 0, 1))
        if allow_advance:
            for pos in offs[p][:-1]:
                variables.append(IntVar(mvar(p, pos), 0, b))
                variables.append(IntVar(uvar(p, pos), 0, 1))
            if p != src:
                variables.append(IntVar(evar(p), 0, b))

    constraints = []
    for p in off_paths:
        path = graph.paths[p]
        positions = offs[p]
        r = len(positions)
        has_delay = allow_delay and p != src
        if has_delay:
            # propagated delay at the edge into each off vertex:
            # exactly max(0, own delay - slack from the switch-in edge)
            d = dvar(p)
            for pos in positions:
                c = edge_gap(path, anchor[p], pos - 1)
                dv, hv = pvar(p, pos), hvar(p, pos)
                constraints.append(ge([(dv, 1), (d, -1)], -c))
                constraints.append(le([(dv, 1), (hv, -b)], 0))
                constraints.append(le([(dv, 1), (d, -1), (hv, c)], 0))
        if allow_advance:
            # advance dragged backwards from the next off edge:
            # exactly max(0, arriving advance - remaining gap)
            for i in range(r - 1):
                pos, nxt = positions[i], positions[i + 1]
                gap = edge_gap(path, pos - 1, nxt - 1)
                mv, uv = mvar(p, pos), uvar(p, pos)
                expr: list[tuple[str, int]] = [(mv, 1), (avar(p, nxt), -1)]
                if i + 1 < r - 1:
                    expr.append((mvar(p, nxt), -1))
                if has_delay:
                    expr.append((pvar(p, pos), -1))
                    expr.append((pvar(p, nxt), 1))
                constraints.append(ge(expr, -gap))
                constraints.append(le([(mv, 1), (uv, -b)], 0))
                constraints.append(le(expr + [(uv, gap + b)], b))
            if p != src:
                # backwash onto the switch-in edge; a lower bound suffices
                # because it only ever tightens temporality
                pos1 = positions[0]
                c1 = edge_gap(path, anchor[p], pos1 - 1)
                expr = [(evar(p), 1), (avar(p, pos1), -1)]
                if r > 1:
                    expr.append((mvar(p, pos1), -1))
                if has_delay:
                    expr.append((dvar(p), -1))
                    expr.append((pvar(p, pos1), 1))
                constraints.append(ge(expr, -c1))

    for sw in switches:
        p, q = sw.from_path, sw.to_path
        fpath, tpath = graph.paths[p], graph.paths[q]
        pf = fpath.find(sw.vertex)
        room = tpath.labels[anchor[q]] - fpath.labels[pf - 1] - 1
        expr = []
        if allow_delay and p != src:
            expr.append((pvar(p, pf), 1))
        if allow_advance:
            expr.append((avar(p, pf), -1))
            if pf != offs[p][-1]:
                expr.append((mvar(p, pf), -1))
        if allow_delay:
            expr.append((dvar(q), -1))
        if allow_advance and q in offs:
            expr.append((evar(q), 1))
        constraints.append(le(expr, room))

    cost_terms: list[tuple[str, int]] = []
    if allow_delay:
        cost_terms += [(dvar(q), 1) for q in tree_paths]
    if allow_advance:
        cost_terms += [(avar(p, pos), 1) for p in off_paths for pos in offs[p]]
    constraints.append(le(cost_terms, b))

    solved = solve_min(
        IlpInstance(tuple(variables), tuple(constraints), terms(cost_terms))
    )
    if solved is None:
        return None
    value, assign = solved
    ops: list[ShiftOperation] = []
    if allow_delay:
        for q in tree_paths:
            amount = assign[dvar(q)]
            if amount:
                ops.append(ShiftOperation(q, anchor[q], amount))
    if allow_advance:
        for p in off_paths:
            for pos in reversed(offs[p]):
                amount = assign[avar(p, pos)]
                if amount:
                    ops.append(ShiftOperation(p, pos - 1, -amount))
    return value, tuple(ops)


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


def propagate_by_full_passes(n, lo, hi, rows) -> bool:
    """ilp_mini's bounds propagation as full passes: scan every row, again
    and again, until no bound moves. False on an emptied domain."""
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


def lex_search_by_full_passes(n, lo0, hi0, rows, obj, least=None):
    """ilp_mini._lex_search with full-pass propagation at every box and no
    stop before the last leaf; least is taken and ignored, so that this can
    stand in for it."""
    best = None
    stack = [(lo0, hi0)]
    while stack:
        lo, hi = stack.pop()
        if not propagate_by_full_passes(n, lo, hi, rows):
            continue
        floor = sum(c * lo[j] if c > 0 else c * hi[j] for j, c in obj)
        if best is not None and floor >= best[0]:
            continue
        j = next((j for j in range(n) if lo[j] < hi[j]), None)
        if j is None:
            best = (floor, lo)
            continue
        mid = (lo[j] + hi[j]) // 2
        upper_lo, lower_hi = lo.copy(), hi.copy()
        upper_lo[j], lower_hi[j] = mid + 1, mid
        stack.append((upper_lo, hi))
        stack.append((lo, lower_hi))
    return best


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
    shifted, _ = apply_sequence_by_shifts(graph, ops)
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


def fpt_delay_candidates_by_product(
    graph: TemporalKPathGraph, s: Vertex, b: int, tight_only: bool = False
):
    """solve_fpt_delay's candidates (ops, cost, svs) over the filtered product
    of delay splits.

    Each child takes the first vertex of its path, found on the parent by a
    find scan after the parent's anchor, whose labels work out; every placed
    guess is replayed with apply_sequence_by_shifts and must come out temporal.
    tight_only keeps only the splits in which each child's delay is the
    least that works out at the vertex it takes.
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
                    least = max(0, ppath.labels[pos_p - 1] + carried - cpath.labels[pos_c] + 1)
                    if least <= delay[child]:
                        break
                else:
                    return None
                if tight_only and delay[child] != least:
                    return None
                anchor[child] = pos_c
                placed.append((child, pos_c, Switch(v, parent, child)))
        return placed

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
            shifted, cost = apply_sequence_by_shifts(graph, ops)
            svs = make_svs(sw for _, _, sw in placed)
            assert all(is_temporal_switch(shifted, sw) for sw in svs.switches)
            yield ops, cost, svs


def fpt_delay_by_product(graph: TemporalKPathGraph, s: Vertex, b: int) -> BudgetedSolution:
    """solve_fpt_delay as keep_best over fpt_delay_candidates_by_product."""
    return _replayed(graph, s, keep_best(graph, s, fpt_delay_candidates_by_product(graph, s, b)))


def fpt_general_survivors_by_scan(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode, tight_only: bool = False
):
    """solve_fpt_general's survivors (ops, cost, svs) by guessing everything first.

    Complete guesses come from _guesses, are laid out with _lay_out on
    slots_by_gap_scan, and each laid-out guess is replayed with
    apply_sequence_by_shifts and dropped unless every switch is temporal. tight_only
    keeps only the guesses in which each child's delay is the least that
    makes its switch temporal.
    """
    src = graph.source_path_id
    pos_s = graph.source_path.find(s)
    slots = slots_by_gap_scan(graph)
    allow_delay, allow_advance = mode is not Mode.ADVANCE, mode is not Mode.DELAY
    for spt in enumerate_spts(graph.k, include_partial=True, root=src):
        parents = sorted({parent for _, parent in spt.parents})
        for ordering in product(*(permutations(spt.children_of(p)) for p in parents)):
            sigma = dict(zip(parents, ordering))
            families = [
                (parent, kids)
                for parent, kids in root_first(src, lambda p: sigma.get(p, ()))
                if kids
            ]
            chain = [
                (parent, child, i) for parent, kids in families for i, child in enumerate(kids)
            ]
            guesses = _guesses(chain, sigma, slots, src, b, allow_delay, allow_advance, tight_only)
            for assign in guesses:
                outcome = _lay_out(graph, families, assign, slots, src, pos_s)
                if outcome is None:
                    continue
                sites, ops, cost = outcome
                svs = svs_at(graph, sites)
                shifted, _ = apply_sequence_by_shifts(graph, ops)
                if all(is_temporal_switch(shifted, sw) for sw in svs.switches):
                    yield ops, cost, svs


def fpt_general_by_scan(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode
) -> BudgetedSolution:
    """solve_fpt_general as keep_best over fpt_general_survivors_by_scan."""
    survivors = fpt_general_survivors_by_scan(graph, s, b, mode)
    return _replayed(graph, s, keep_best(graph, s, survivors))


# fpt-general's guess-everything-then-lay-out search, kept as it was before the
# solver began laying out families while it guesses.


@dataclass(frozen=True)
class _Guess:
    """Per-path displacement guess for the general search.

    All fields describe the final labeling the ops are meant to produce:
    delay is the op on this path's switch-in edge; carried_delay the delay
    arriving (via the parent's own op) at the edge leaving the parent for
    us; advance_total / advance_arriving the advance displacement of that
    same edge and the part of it propagated in from the right; backwash the
    advance reaching this path's switch-in edge from our children; and
    label_gap the raw label difference the chosen switch vertex must have.
    """

    delay: int
    carried_delay: int
    advance_total: int  # <= 0
    advance_arriving: int  # <= 0, advance_total minus our own op
    backwash: int  # <= 0
    label_gap: int

    @property
    def own_advance(self) -> int:
        return self.advance_total - self.advance_arriving

    @property
    def cost(self) -> int:
        return self.delay + (self.advance_arriving - self.advance_total)


def _guesses(
    chain_slots: list[tuple[int, int, int]],
    sigma: dict[int, tuple[int, ...]],
    slots,
    src: int,
    b: int,
    allow_delay: bool,
    allow_advance: bool,
    tight_only: bool = False,
):
    """Yield complete guess assignments for every chain slot.

    Chain couplings are enforced while generating: delay carried to a child
    can only shrink left to right, advance arriving at one sibling caps the
    next sibling's advance, and budget overruns cut the branch. tight_only
    drops a guess unless its delay is max(0, carried + total + 1 - ell -
    wash), the least that makes its switch temporal.
    """
    n = len(chain_slots)

    def extend(i: int, assign: dict[int, _Guess], spent: int):
        if i == n:
            yield dict(assign)
            return
        parent, child, idx = chain_slots[i]
        kids = sigma[parent]
        ells = sorted(slots[(parent, child)])
        if not ells:
            return
        last = idx == len(kids) - 1
        if idx == 0:
            delay_cap = assign[parent].delay if parent != src else 0
            advance_cap = assign[parent].backwash if parent != src else 0
        else:
            prev = assign[kids[idx - 1]]
            delay_cap = prev.carried_delay
            advance_cap = prev.advance_arriving
        has_kids = bool(sigma.get(child))
        for delay in range(b + 1) if allow_delay else (0,):
            for carried in range(delay_cap + 1) if allow_delay else (0,):
                if carried > 0:
                    arrive_opts = (0,)  # a delayed edge takes no advance
                elif last or not allow_advance:
                    arrive_opts = (0,)
                else:
                    arrive_opts = range(-b, 1)
                for arriving in arrive_opts:
                    if not allow_advance or carried > 0:
                        total_opts = (arriving,)
                    else:
                        total_opts = range(-b, min(arriving, advance_cap) + 1)
                    for total in total_opts:
                        cost = delay + (arriving - total)
                        if spent + cost > b:
                            continue
                        wash_opts = (
                            range(-b, 1)
                            if has_kids and allow_advance and delay == 0
                            else (0,)
                        )
                        for wash in wash_opts:
                            for ell in ells:
                                # temporality of this switch, in displacements
                                if carried + total + 1 > ell + delay + wash:
                                    continue
                                if tight_only and delay != max(
                                    0, carried + total + 1 - ell - wash
                                ):
                                    continue
                                assign[child] = _Guess(
                                    delay, carried, total, arriving, wash, ell
                                )
                                yield from extend(i + 1, assign, spent + cost)
        assign.pop(child, None)

    yield from extend(0, {}, 0)


def _lay_out(
    graph: TemporalKPathGraph,
    families: list[tuple[int, tuple[int, ...]]],
    assign: dict[int, _Guess],
    slots,
    src: int,
    pos_s: int,
) -> tuple[list[Site], tuple[ShiftOperation, ...], int] | None:
    """Place every guessed switch, earliest first, batching exact couplings.

    families holds each parent with its ordered children, root first.
    """
    anchor = {src: pos_s}
    sites: list[Site] = []
    net: dict[tuple[int, int], int] = {}
    cost = 0
    for parent, kids in families:
        placed = _place_chain(graph, parent, kids, assign, slots, anchor, src)
        if placed is None:
            return None
        for child, (pos_p, pos_q) in placed.items():
            anchor[child] = pos_q
            guess = assign[child]
            sites.append((parent, pos_p, child, pos_q))
            cost += guess.cost
            if guess.delay:
                net[(child, pos_q)] = net.get((child, pos_q), 0) + guess.delay
            if guess.own_advance:
                key = (parent, pos_p - 1)
                net[key] = net.get(key, 0) + guess.own_advance
    return sites, _canonical_ops(net), cost


def _place_chain(
    graph: TemporalKPathGraph,
    parent: int,
    kids: tuple[int, ...],
    assign: dict[int, _Guess],
    slots,
    anchor: dict[int, int],
    src: int,
) -> dict[int, tuple[int, int]] | None:
    """Earliest placement of one parent's children, honoring the couplings.

    Between consecutive siblings the label gap must be at least (and, when
    delay or advance is guessed to flow between them, exactly) what the
    guessed displacements consume. Exactly-coupled runs move as one batch:
    the head scans forward, the rest must hit their gap on the nose.
    """
    ppath = graph.paths[parent]
    batches: list[list[int]] = [[kids[0]]]
    for prev, nxt in zip(kids, kids[1:]):
        if assign[nxt].carried_delay > 0 or assign[prev].advance_arriving < 0:
            batches[-1].append(nxt)
        else:
            batches.append([nxt])

    def between(prev: int, nxt: int) -> int:
        a, z = assign[prev], assign[nxt]
        return (a.carried_delay - z.carried_delay) + (
            a.advance_arriving - z.advance_total
        )

    out: dict[int, tuple[int, int]] = {}
    prev_child: int | None = None
    for batch in batches:
        head = batch[0]
        head_slots = slots[(parent, head)][assign[head].label_gap]
        done = False
        for pos_p, pos_q in head_slots:
            if pos_p <= anchor[parent]:
                continue
            if prev_child is None:
                if parent != src:
                    g = assign[head]
                    need = (assign[parent].delay - g.carried_delay) + (
                        assign[parent].backwash - g.advance_total
                    )
                    if edge_gap(ppath, anchor[parent], pos_p - 1) < need:
                        continue
            else:
                prev_pos = out[prev_child][0]
                if pos_p < prev_pos:
                    continue
                if edge_gap(ppath, prev_pos - 1, pos_p - 1) < between(prev_child, head):
                    continue
            trial = {head: (pos_p, pos_q)}
            cur, cur_pos = head, pos_p
            ok = True
            for member in batch[1:]:
                need = between(cur, member)
                found = None
                for mp, mq in slots[(parent, member)].get(assign[member].label_gap, ()):
                    if mp < cur_pos:
                        continue
                    gap = edge_gap(ppath, cur_pos - 1, mp - 1)
                    if gap == need:
                        found = (mp, mq)
                        break
                    if gap > need:
                        break
                if found is None:
                    ok = False
                    break
                trial[member] = found
                cur, cur_pos = member, found[0]
            if ok:
                out.update(trial)
                prev_child = batch[-1]
                done = True
                break
        if not done:
            return None
    return out


def is_valid_svs_by_switches(graph: TemporalKPathGraph, svs: SwitchVertexSet) -> bool:
    """is_valid_svs written switch by switch, each switch's positions found on its own.

    The reference for is_valid_svs, which reads the same rules off the set's sites.
    """
    onto: dict[int, Switch] = {}
    positions: dict[Switch, tuple[int, int]] = {}
    for sw in svs.switches:
        pos = _switch_edge_positions(graph, sw)
        if pos is None:
            return False
        positions[sw] = pos
        if sw.to_path in onto:
            return False  # at most one switch onto each path
        if sw.to_path == graph.source_path_id:
            return False
        onto[sw.to_path] = sw
    src = graph.source_path_id
    if not _all_reach_root({p: sw.from_path for p, sw in onto.items()}, src):
        return False  # transitions must chain back to the source path
    source_pos = graph.paths[src].find(graph.source)
    if source_pos is None:
        return False
    for sw in svs.switches:
        if sw.from_path == src:
            anchor = source_pos
        else:
            anchor = positions[onto[sw.from_path]][1]
        # off strictly after on: a journey must traverse the edge into v
        if positions[sw][0] <= anchor:
            return False
    return True


def suffix_union_by_switches(
    graph: TemporalKPathGraph, svs: SwitchVertexSet, s: Vertex
) -> set[Vertex]:
    """suffix_union written switch by switch, with list.index on each target path.

    The reference for suffix_union, which reads the union off the set's sites.
    """
    src_path = graph.source_path
    start = src_path.find(s)
    if start is None:
        raise ValidityError(f"{s!r} not on the source path")
    out = set(src_path.vertices[start:])
    for sw in svs.switches:
        to = graph.paths[sw.to_path]
        out.update(to.vertices[to.vertices.index(sw.vertex):])
    return out
