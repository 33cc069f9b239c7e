"""Budget-constrained reachability maximization.

Every solver here spends at most b cost units on delay (+) or advance (-)
shifts, with propagation along each path free of charge, and reports how
much of the graph the source can then reach.

solve_xp_by_b       exhaustive reference: scores every net shift vector of cost <= b
solve_xp_by_k       enumerates switch-vertex-sets, prices each exactly
solve_fpt_delay     delay-only search over switch-path trees
solve_fpt_general   displacement-guessing search, all modes
solve_fixed_spt     best solution realizing one prescribed path tree
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graph_core import (
    AddressingError,
    InvalidInstanceError,
    Mode,
    ParameterError,
    ResourceLimitError,
    ShiftOperation,
    TemporalKPathGraph,
    ValidityError,
    Vertex,
    apply_sequence,
    edge_gap,
    is_normalized,
    reach_set,
    reach_with_labels,
    shift_labels,
)
from .ilp_mini import IlpInstance, IntVar, ge, le, solve_min, terms
from .switch_structures import (
    EMPTY_SVS,
    Site,
    SlotTable,
    SwitchPathTree,
    SwitchVertexSet,
    _all_reach_root,
    enumerate_spts,
    enumerate_svss,
    enumerate_tree_svss,
    is_valid_svs,
    place_switches,
    root_first,
    suffix_union,
    svs_at,
    switch_slots,
)

DEFAULT_STATE_LIMIT = 10_000_000
DEFAULT_SVS_LIMIT = 1_000_000


@dataclass(frozen=True)
class BudgetedSolution:
    """Ops within budget, their total cost, the reach, and a witness.

    reached is the full reach of the shifted graph, except for the
    fixed-tree solver which reports only what its witness guarantees.
    """

    ops: tuple[ShiftOperation, ...]
    cost: int
    reached: frozenset[Vertex]
    witness_svs: SwitchVertexSet | None


def _check_budget(b: int) -> None:
    if b < 0:
        raise ParameterError(f"budget must be nonnegative, got {b}")


def _require_source(graph: TemporalKPathGraph, s: Vertex) -> None:
    if not is_normalized(graph, s):
        raise InvalidInstanceError(
            f"{s!r} must head its own path and appear nowhere else; "
            "run normalize_source first"
        )


def _canonical_ops(net: dict[tuple[int, int], int]) -> tuple[ShiftOperation, ...]:
    """Merged ops in canonical order: delays front-to-back, advances back-to-front."""
    delays = sorted(key for key, d in net.items() if d > 0)
    advances = sorted(
        (key for key, d in net.items() if d < 0), key=lambda pe: (pe[0], -pe[1])
    )
    return tuple(
        ShiftOperation(p, e, net[(p, e)]) for p, e in itertools.chain(delays, advances)
    )


def net_vector_count(edges: int, b: int, mode: Mode) -> int:
    """How many net shift vectors of cost <= b over `edges` edges the mode allows.

    A vector with i nonzero entries picks their edges, splits a cost of at
    most b among them, and in shift mode a sign for each; one-signed modes
    count the nonnegative vectors of sum <= b.
    """
    if mode is Mode.SHIFT:
        return sum(
            math.comb(edges, i) * math.comb(b, i) << i for i in range(min(edges, b) + 1)
        )
    return math.comb(edges + b, b)


def _net_vectors(edges: int, b: int, mode: Mode) -> Iterator[tuple[int, ...]]:
    """Every net shift vector of cost <= b, by cost, then by unit multiset order.

    Within one cost r an edge's entry runs through +a, then -a, for a = r..1
    (each sign only if the mode allows it), then 0: the sorted unit tuples of
    size r in lex order, keeping only those that never hold both signs of
    one edge.
    """
    signs = tuple(sign for sign in (1, -1) if mode.allows(sign))
    last = edges - 1  # a valid graph has at least one edge

    def fill(i: int, left: int) -> Iterator[tuple[int, ...]]:
        if i == last:  # the last edge takes what is left
            if left:
                for sign in signs:
                    yield (sign * left,)
            else:
                yield (0,)
            return
        for sign in signs:
            for a in range(left, 0, -1):
                for rest in fill(i + 1, left - a):
                    yield (sign * a, *rest)
        for rest in fill(i + 1, left):
            yield (0, *rest)

    for r in range(b + 1):
        yield from fill(0, r)


def _replayed_labels(labels: tuple[int, ...], deltas: tuple[int, ...]) -> tuple[int, ...]:
    """One path's labels after its share of _canonical_ops."""
    for e, d in enumerate(deltas):
        if d > 0:
            labels = shift_labels(labels, e, d)
    for e in range(len(deltas) - 1, -1, -1):
        if deltas[e] < 0:
            labels = shift_labels(labels, e, deltas[e])
    return labels


def solve_xp_by_b(
    graph: TemporalKPathGraph,
    s: Vertex,
    b: int,
    mode: Mode,
    limit_states: int = DEFAULT_STATE_LIMIT,
) -> BudgetedSolution:
    """Exhaustive optimum over all ways to spend the budget one unit at a time.

    Each budget unit buys one +1 or -1 on one edge (or is skipped), and the
    units are applied merged per edge in canonical order, so a plan's result
    depends only on its net shift vector. Each vector is scored once: by
    cost r = 0..b, and within one r in the lex order of its sorted unit
    tuple. That is the order in which the vectors first appear in the stream
    of unit multisets of size b (skips first, units in path, edge, +1, -1
    order): a multiset with u units comes after all with fewer, and its net
    vector first appears as the one multiset with u = cost and no unit
    cancelling another. Ties (equal reach and cost) therefore go to the same
    vector as in that stream: the first seen. limit_states caps the number
    of vectors, net_vector_count. Slow by design; the other solvers are
    measured against it.
    """
    _check_budget(b)
    if all(path.find(s) is None for path in graph.paths):
        raise AddressingError(f"unknown source {s!r}")
    edges = [(path.path_id, e) for path in graph.paths for e in range(path.edge_count())]
    total = net_vector_count(len(edges), b, mode)
    if total > limit_states:
        raise ResourceLimitError(
            f"{total} net shift vectors to scan, above the limit of {limit_states}"
        )
    # per path: its labels, its slice of the vector, and the labels replayed
    # so far by sub-vector (a path's labels depend only on its own entries)
    spans: list[tuple[tuple[int, ...], int, int, dict]] = []
    start = 0
    for path in graph.paths:
        spans.append((path.labels, start, start + path.edge_count(), {}))
        start += path.edge_count()
    best: tuple[int, int] | None = None
    best_vector: tuple[int, ...] = ()
    for vector in _net_vectors(len(edges), b, mode):
        labels = []
        for base, lo, hi, memo in spans:
            deltas = vector[lo:hi]
            got = memo.get(deltas)
            if got is None:
                got = memo[deltas] = _replayed_labels(base, deltas)
            labels.append(got)
        score = (len(reach_with_labels(graph.paths, labels, s)), -sum(map(abs, vector)))
        if best is None or score > best:
            best, best_vector = score, vector
    assert best is not None  # the zero vector always exists
    ops = _canonical_ops({key: d for key, d in zip(edges, best_vector) if d})
    shifted, cost = apply_sequence(graph, ops)
    return BudgetedSolution(ops, cost, frozenset(reach_set(shifted, s)), None)


def min_cost_for_svs(
    graph: TemporalKPathGraph,
    svs: SwitchVertexSet,
    mode: Mode,
    b: int,
) -> tuple[int, tuple[ShiftOperation, ...]] | None:
    """Cheapest mode-respecting ops of cost <= b making every switch temporal.

    Ops come in canonical shape: per switched-onto path at most one delay,
    sitting on the switch's outgoing edge, and advances only on edges that
    enter switch-off vertices. Propagation between those edges is priced
    exactly (including delays eating slack and advances dragging earlier
    edges along), so the returned cost matches brute force. None means no
    assignment within b exists.
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


_Candidate = tuple[tuple[ShiftOperation, ...], int, SwitchVertexSet]


def _best_priced(
    graph: TemporalKPathGraph,
    s: Vertex,
    svss: Iterable[SwitchVertexSet],
    mode: Mode,
    b: int,
    limit_svss: int,
) -> _Candidate | None:
    """The affordable set of svss whose suffixes cover the most, priced exactly.

    The winner and its ops are those that pricing every set at b and
    keeping the best (reach, -cost), ties going to the first seen, would
    give; a set is only priced if it can still win. A set whose suffix
    union is smaller than the best so far is skipped. One of equal size is
    priced with budget best cost - 1, since only a strictly cheaper set
    wins, so every set that prices at all becomes the best. Its ops need
    no second pricing at b: within any budget c >= its cheapest cost C the
    integer program has the same lex-smallest optimum, because that optimum
    moves no amount by more than C and so stays feasible when b shrinks to
    c. Every set counts against limit_svss, skipped or not.
    """
    best: _Candidate | None = None
    best_reach = -1
    for count, svs in enumerate(svss, 1):
        if count > limit_svss:
            raise ResourceLimitError(
                f"more than {limit_svss} switch-vertex-sets; raise the limit to proceed"
            )
        reach = len(suffix_union(graph, svs, s))
        if reach > best_reach:
            cap = b
        elif reach == best_reach and best[1] > 0:
            cap = best[1] - 1
        else:
            continue
        priced = min_cost_for_svs(graph, svs, mode, cap)
        if priced is not None:
            cost, ops = priced
            best, best_reach = (ops, cost, svs), reach
    return best


def _keep_best(
    graph: TemporalKPathGraph, s: Vertex, candidates: Iterable[_Candidate]
) -> _Candidate | None:
    """The candidate whose suffixes cover the most (ties: cheaper, then first seen)."""
    best_key: tuple[int, int] | None = None
    best = None
    for cand in candidates:
        key = (len(suffix_union(graph, cand[2], s)), -cand[1])
        if best_key is None or key > best_key:
            best_key, best = key, cand
    return best


def _replayed(
    graph: TemporalKPathGraph, s: Vertex, best: _Candidate | None
) -> BudgetedSolution:
    """The winning candidate, reporting the full reach of the graph it shifts."""
    assert best is not None  # the empty switch set is always a candidate
    ops, cost, svs = best
    shifted, _ = apply_sequence(graph, ops)
    return BudgetedSolution(ops, cost, frozenset(reach_set(shifted, s)), svs)


def _shifted_labels(
    graph: TemporalKPathGraph, ops: Iterable[ShiftOperation]
) -> list[tuple[int, ...]]:
    """Every path's labels after apply_sequence(graph, ops), as plain tuples."""
    labels = [path.labels for path in graph.paths]
    for op in ops:
        labels[op.path_id] = shift_labels(labels[op.path_id], op.edge_index, op.delta)
    return labels


def _all_temporal(labels: list[tuple[int, ...]], sites: Iterable[Site]) -> bool:
    """is_temporal_switch for the switch at each site, under the given labels."""
    return all(labels[p][pos_p - 1] < labels[c][pos_c] for p, pos_p, c, pos_c in sites)


def solve_xp_by_k(
    graph: TemporalKPathGraph,
    s: Vertex,
    b: int,
    mode: Mode,
    limit_svss: int = DEFAULT_SVS_LIMIT,
) -> BudgetedSolution:
    """Optimum via switch-set enumeration.

    Keeps the affordable valid switch-vertex-set whose suffixes cover the
    most vertices (ties: cheaper, then first seen). A set is priced only if
    it can still win: one whose suffix union is smaller than the best so
    far is skipped, and one of equal size is priced with a budget one below
    the best cost. That is exact: the key is (reach, -cost), and within
    any budget that covers a set's cheapest cost the set prices to the same
    cost and ops (see _best_priced).
    """
    _check_budget(b)
    _require_source(graph, s)
    return _replayed(
        graph, s, _best_priced(graph, s, enumerate_svss(graph), mode, b, limit_svss)
    )


def solve_fixed_spt(
    graph: TemporalKPathGraph,
    s: Vertex,
    b: int,
    mode: Mode,
    spt: SwitchPathTree,
    empty_fallback: bool = True,
    limit_svss: int = DEFAULT_SVS_LIMIT,
) -> BudgetedSolution | None:
    """Best solution whose switches realize exactly the given path tree.

    reached is what the tree itself guarantees (the union of opened path
    suffixes), not the incidental reach of the shifted graph. If no
    affordable switch set induces the tree, returns the bare source-path
    suffix, or None when empty_fallback is off. limit_svss counts only the
    switch sets of this tree. As in solve_xp_by_k, a set that cannot beat
    the best so far on (reach, -cost) is skipped or priced within a budget
    one below the best cost, which changes no answer.
    """
    _check_budget(b)
    _require_source(graph, s)
    root = graph.source_path_id
    mapping = dict(spt.parents)
    if len(mapping) != len(spt.parents) or root in mapping:
        raise ParameterError("tree must assign one parent per path, none to the root")
    for child, parent in spt.parents:
        if not (0 <= child < graph.k and 0 <= parent < graph.k):
            raise ParameterError(f"tree edge {child}<-{parent} is off this graph")
    if not _all_reach_root(mapping, root):
        raise ParameterError("tree does not hang together under the source path")

    svss = enumerate_tree_svss(graph, spt, switch_slots(graph))
    best = _best_priced(graph, s, svss, mode, b, limit_svss)
    if best is None:
        if not empty_fallback:
            return None
        best = ((), 0, EMPTY_SVS)
    ops, cost, svs = best
    return BudgetedSolution(ops, cost, frozenset(suffix_union(graph, svs, s)), svs)


def delay_guess_count(trees: Iterable[SwitchPathTree], b: int) -> int:
    """How many (tree, delay split) guesses fpt-delay places: C(E_t + b, b) per tree."""
    return sum(math.comb(len(spt.parents) + b, b) for spt in trees)


def _splits(parts: int, b: int) -> Iterator[tuple[int, ...]]:
    """Every split of at most b into parts nonnegative amounts, in lex order.

    The same tuples, in the same order, as product(range(b + 1),
    repeat=parts) with those summing past b left out.
    """
    if parts == 0:
        yield ()
        return
    for first in range(b + 1):
        for rest in _splits(parts - 1, b - first):
            yield (first, *rest)


def solve_fpt_delay(
    graph: TemporalKPathGraph,
    s: Vertex,
    b: int,
    limit_states: int = DEFAULT_STATE_LIMIT,
) -> BudgetedSolution:
    """Delay-only optimum by guessing a tree and a budget split over its edges.

    For each guess the tree is walked root first and every switch commits to
    the earliest vertex whose labels work out after propagation; guesses
    that strand a switch are dropped. Earliest placement dominates: it opens
    the longest suffix and leaves descendants the most room. limit_states
    caps the number of guesses, delay_guess_count, counted up front.
    """
    _check_budget(b)
    _require_source(graph, s)
    trees = list(enumerate_spts(graph.k, include_partial=True, root=graph.source_path_id))
    total = delay_guess_count(trees, b)
    if total > limit_states:
        raise ResourceLimitError(
            f"{total} delay guesses to place, above the limit of {limit_states}"
        )
    return _replayed(graph, s, _keep_best(graph, s, _delay_guesses(graph, s, b, trees)))


def _delay_guesses(
    graph: TemporalKPathGraph, s: Vertex, b: int, trees: list[SwitchPathTree]
) -> Iterator[_Candidate]:
    """(ops, cost, svs) for every tree and delay split that places."""
    src = graph.source_path_id
    pos_s = graph.source_path.find(s)
    slots = switch_slots(graph)
    for spt in trees:
        edges = spt.parents
        order = list(root_first(src, spt.children_of))
        for split in _splits(len(edges), b):
            delay = {child: amount for (child, _), amount in zip(edges, split)}
            delay[src] = 0

            def fits(parent: int, child: int, anchor: int, pos_p: int, pos_c: int) -> bool:
                ppath = graph.paths[parent]
                carried = max(0, delay[parent] - edge_gap(ppath, anchor, pos_p - 1))
                return (
                    ppath.labels[pos_p - 1] + carried
                    < graph.paths[child].labels[pos_c] + delay[child]
                )

            sites = place_switches(graph, slots, order, pos_s, fits)
            if sites is None:
                continue
            ops = tuple(
                ShiftOperation(child, pos_c, delay[child])
                for child, pos_c in sorted((c, pos_c) for _, _, c, pos_c in sites)
                if delay[child]
            )
            # the fit test is the temporality condition, verbatim
            assert _all_temporal(_shifted_labels(graph, ops), sites)
            yield ops, sum(split), svs_at(graph, sites)


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


def _slots_by_gap(graph: TemporalKPathGraph, slots: SlotTable):
    """The slot table with each path pair's slots grouped by label gap.

    A group keeps the table's child order, which is also parent order:
    labels strictly increase along both paths, so two shared vertices in
    opposite orders on the two paths have different gaps. That co-sorting
    is what makes the earliest-match scans below well defined.
    """
    out: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}
    for (parent, child), pairs in slots.items():
        plabels, clabels = graph.paths[parent].labels, graph.paths[child].labels
        groups: dict[int, list[tuple[int, int]]] = {}
        for pos_p, pos_c in pairs:
            groups.setdefault(clabels[pos_c] - plabels[pos_p - 1], []).append((pos_p, pos_c))
        out[(parent, child)] = groups
    return out


def solve_fpt_general(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode
) -> BudgetedSolution:
    """Optimum for any mode by guessing per-path displacement tuples.

    Enumerates switch-path trees, sibling orders, and per-path guesses of
    how much delay and advance ends up on the relevant edges; each guess is
    then laid out greedily, siblings whose guesses interlock exactly being
    placed as one rigid batch. Survivors are replayed and re-checked before
    they can win, so a placed-but-wrong guess can never be reported.
    """
    _check_budget(b)
    _require_source(graph, s)
    return _replayed(graph, s, _keep_best(graph, s, _laid_out_guesses(graph, s, b, mode)))


def _laid_out_guesses(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode
) -> Iterator[_Candidate]:
    """(ops, cost, svs) for every guess that places and replays temporal."""
    src = graph.source_path_id
    pos_s = graph.source_path.find(s)
    slots = _slots_by_gap(graph, switch_slots(graph))
    allow_delay = mode is not Mode.ADVANCE
    allow_advance = mode is not Mode.DELAY
    for spt in enumerate_spts(graph.k, include_partial=True, root=src):
        parents_with_kids = sorted({parent for _, parent in spt.parents})
        orderings = itertools.product(
            *(itertools.permutations(spt.children_of(p)) for p in parents_with_kids)
        )
        for ordering in orderings:
            sigma = dict(zip(parents_with_kids, ordering))
            families = [
                (parent, kids)
                for parent, kids in root_first(src, lambda p: sigma.get(p, ()))
                if kids
            ]
            chain_slots = [
                (parent, child, i)
                for parent, kids in families
                for i, child in enumerate(kids)
            ]
            for assign in _guesses(
                chain_slots, sigma, slots, src, b, allow_delay, allow_advance
            ):
                outcome = _lay_out(graph, families, assign, slots, src, pos_s)
                if outcome is None:
                    continue
                sites, ops, cost = outcome
                # a guess can place and still fail the replay; drop it then
                if _all_temporal(_shifted_labels(graph, ops), sites):
                    yield ops, cost, svs_at(graph, sites)


def _guesses(
    chain_slots: list[tuple[int, int, int]],
    sigma: dict[int, tuple[int, ...]],
    slots,
    src: int,
    b: int,
    allow_delay: bool,
    allow_advance: bool,
):
    """Yield complete guess assignments for every chain slot.

    Chain couplings are enforced while generating: delay carried to a child
    can only shrink left to right, advance arriving at one sibling caps the
    next sibling's advance, and budget overruns cut the branch.
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
