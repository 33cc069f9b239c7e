"""Budget-constrained reachability maximization.

Every solver here spends at most b cost units on delay (+) or advance (-)
shifts, with propagation along each path free of charge, and reports how
much of the graph the source can then reach.

solve_xp_by_b       exhaustive reference: scores net shift vectors of cost <= b
solve_xp_by_k       enumerates switch-vertex-sets, prices each exactly
solve_fpt_delay     delay-only search over switch-path trees
solve_fpt_general   displacement-guessing search, all modes
solve_fixed_spt     best solution realizing one prescribed path tree

All but xp-b run one pipeline, _best_tree: it searches only the slots a
switch can take within the budget (_affordable_slots) and only the
switch-path trees that place on them (placed_trees), keeps the best one
tree at a time, best bound first, searching only what can win; each solver
names its per-tree search and counts its work as it goes (_counter). xp-b
counts its vectors up front, the exact size of its full scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    _labels_after,
    apply_sequence,
    edge_gap,
    is_normalized,
    reach_set,
    reach_with_labels,
    shift_labels,
    static_reach,
)
from .ilp_mini import _lex_search
from .switch_structures import (
    Site,
    SlotTable,
    SwitchPathTree,
    SwitchVertexSet,
    _all_reach_root,
    _all_temporal,
    _sites_of,
    _suffix_union_at,
    earliest_sites,
    is_valid_svs,
    placed_trees,
    root_first,
    spt_rank,
    svs_at,
    switch_slots,
    tree_sites,
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
            f"{s!r} must head its own path and appear nowhere else; run normalize_source first"
        )


def _counter(limit: int, what: str) -> Callable[[], None]:
    """A tick to call once per unit of work; the call past limit raises."""
    done = 0

    def tick() -> None:
        nonlocal done
        done += 1
        if done > limit:
            raise ResourceLimitError(f"more than {limit} {what}; raise the limit to proceed")

    return tick


def _canonical_ops(net: dict[tuple[int, int], int]) -> tuple[ShiftOperation, ...]:
    """Merged ops in canonical order: delays front-to-back, advances back-to-front."""
    delays = sorted(key for key, d in net.items() if d > 0)
    advances = sorted((key for key, d in net.items() if d < 0), key=lambda pe: (pe[0], -pe[1]))
    return tuple(ShiftOperation(p, e, net[(p, e)]) for p, e in itertools.chain(delays, advances))


def net_vector_count(edges: int, b: int, mode: Mode) -> int:
    """How many net shift vectors of cost <= b over `edges` edges the mode allows.

    A vector with i nonzero entries picks their edges, splits at most b among
    them and, in shift mode, a sign for each.
    """
    if mode is Mode.SHIFT:
        return sum(math.comb(edges, i) * math.comb(b, i) << i for i in range(min(edges, b) + 1))
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
    cost r = 0..b, then in the lex order of its sorted unit tuple, which is
    the order in which vectors first appear in the stream of unit multisets
    of size b (skips first, units in path, edge, +1, -1 order): a vector
    first appears as its one multiset with u = cost units, none cancelling
    another, after every multiset with fewer. Ties (equal reach and cost)
    so go to the same vector as in that stream: the first seen.

    The scan stops once the best vector reaches C, the size of s's reach in
    the static digraph of path edges (static_reach): no labeling reaches
    more, and only a strictly greater (reach, -cost) replaces the best,
    while later vectors cost no less. limit_states caps the number of
    vectors, net_vector_count, counted up front either way. Where C is never
    reached the scan is full: slow by design, as it is the reference.
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
    ceiling = len(static_reach(graph.paths, s))
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
            if score[0] == ceiling:
                break
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
    assignment within b exists. This is the checked entry to _price_sites,
    which xp-k and fixed-spt call on sites valid by construction.
    """
    _check_budget(b)
    if not is_valid_svs(graph, svs):
        raise ValidityError("switch-vertex-set is not valid for this graph")
    start = graph.source_path.find(graph.source)
    return _price_sites(graph, _sites_of(graph, svs), start, mode, b)


def _price_sites(
    graph: TemporalKPathGraph, sites: Sequence[Site], start: int, mode: Mode, b: int
) -> tuple[int, tuple[ShiftOperation, ...]] | None:
    """min_cost_for_svs for the valid switch set at sites, unchecked; b may
    be negative, which nothing meets.

    sites come sorted by child, as tree_sites yields them, the d variables'
    order; start is the source's position on its path. The program is built
    on variable indices in one pass over the off paths, declared in the
    order d, a, then per path its pd/h, m/u and e (see below) among that
    path's rows, zero coefficients dropped, and the lexicographic search
    returns its lex-smallest optimum in that order. Ops are read from d and
    a alone, which come first, so the order among the others cannot change
    them.

    Each switch's shortfall sigma (switch_slots) is read off the labels
    once, here: its row's room is -sigma, and the set's floor is
    _cost_floor of its sigmas. The floor bounds the objective from below:
    every feasible point is a plan, its ops read from d and a, that makes
    the set's switches temporal at the point's value, and _cost_floor is at
    most the cost of any such plan. So a floor past b means no plan within
    b (None, with no program), and the search may stop at the first point
    that costs floor (_lex_search's least). A floor of 0 means no switch is
    short (every sigma <= 0), so the empty plan already makes each one
    temporal: the point of all zeros meets every row (each room is -sigma
    >= 0, each gap >= 0), and at value 0 every d and a is 0, so the answer
    is (0, ()) with no program at all.
    """
    shortfalls = [
        (p, q, graph.paths[p].labels[pos_p - 1] - graph.paths[q].labels[pos_q] + 1)
        for p, pos_p, q, pos_q in sites
    ]
    floor = _cost_floor(mode, shortfalls)
    if floor > b:
        return None
    if floor == 0:
        return 0, ()
    allow_delay = mode is not Mode.ADVANCE
    allow_advance = mode is not Mode.DELAY
    src = graph.source_path_id
    anchor = {src: start}
    offs: dict[int, list[int]] = {}
    for p, pos_p, q, pos_q in sites:
        anchor[q] = pos_q
        if pos_p not in offs.setdefault(p, []):
            offs[p].append(pos_p)
    off_paths = sorted(offs)
    for p in off_paths:
        offs[p].sort()

    hi: list[int] = []  # each variable's upper bound; every lower bound is 0

    def var(top: int) -> int:
        hi.append(top)
        return len(hi) - 1

    # d[q]: delay on q's switch-in edge; a[p, pos]: advance on the edge into pos
    d = {q: var(b) for _, _, q, _ in sites} if allow_delay else {}
    a = {(p, pos): var(b) for p in off_paths for pos in offs[p]} if allow_advance else {}
    rows: list[tuple[tuple[tuple[int, int], ...], int]] = []

    def le(pairs: list[tuple[int, int]], rhs: int) -> None:
        rows.append((tuple(filter(itemgetter(1), pairs)), rhs))  # zeros dropped

    def ge(pairs: list[tuple[int, int]], rhs: int) -> None:
        le([(j, -c) for j, c in pairs], -rhs)

    pd, h, m, u, e = {}, {}, {}, {}, {}
    for p in off_paths:
        path, positions = graph.paths[p], offs[p]
        r = len(positions)
        has_delay = allow_delay and p != src
        if has_delay:
            # pd: propagated delay at the edge into each off vertex,
            # exactly max(0, own delay - slack from the switch-in edge)
            for pos in positions:
                c = edge_gap(path, anchor[p], pos - 1)
                dv, hv = pd[p, pos], h[p, pos] = var(b), var(1)
                ge([(dv, 1), (d[p], -1)], -c)
                le([(dv, 1), (hv, -b)], 0)
                le([(dv, 1), (d[p], -1), (hv, c)], 0)
        if allow_advance:
            for pos in positions[:-1]:  # advance dragged in from later edges
                m[p, pos], u[p, pos] = var(b), var(1)
            # m: advance dragged backwards from the next off edge,
            # exactly max(0, arriving advance - remaining gap)
            for i in range(r - 1):
                pos, nxt = positions[i], positions[i + 1]
                gap = edge_gap(path, pos - 1, nxt - 1)
                expr = [(m[p, pos], 1), (a[p, nxt], -1)]
                if i + 1 < r - 1:
                    expr.append((m[p, nxt], -1))
                if has_delay:
                    expr += [(pd[p, pos], -1), (pd[p, nxt], 1)]
                ge(expr, -gap)
                le([(m[p, pos], 1), (u[p, pos], -b)], 0)
                le(expr + [(u[p, pos], gap + b)], b)
            if p != src:
                # backwash onto the switch-in edge; a lower bound suffices
                # because it only ever tightens temporality
                e[p], pos1 = var(b), positions[0]
                expr = [(e[p], 1), (a[p, pos1], -1)]
                if r > 1:
                    expr.append((m[p, pos1], -1))
                if has_delay:
                    expr += [(d[p], -1), (pd[p, pos1], 1)]
                ge(expr, -edge_gap(path, anchor[p], pos1 - 1))

    for (p, pf, q, _), (_, _, sigma) in zip(sites, shortfalls):
        expr = []
        if allow_delay and p != src:
            expr.append((pd[p, pf], 1))
        if allow_advance:
            expr.append((a[p, pf], -1))
            if pf != offs[p][-1]:
                expr.append((m[p, pf], -1))
        if allow_delay:
            expr.append((d[q], -1))
        if allow_advance and q in offs:
            expr.append((e[q], 1))
        le(expr, -sigma)

    cost = [(j, 1) for j in (*d.values(), *a.values())]
    le(cost, b)
    solved = _lex_search(len(hi), [0] * len(hi), hi, rows, tuple(cost), floor)
    if solved is None:
        return None
    value, point = solved
    ops = [ShiftOperation(q, anchor[q], point[j]) for q, j in d.items() if point[j]]
    if allow_advance:  # back to front on each path
        ops += [
            ShiftOperation(p, pos - 1, -point[a[p, pos]])
            for p in off_paths
            for pos in reversed(offs[p])
            if point[a[p, pos]]
        ]
    return value, tuple(ops)


_Candidate = tuple[tuple[ShiftOperation, ...], int, tuple[Site, ...]]


def _cost_floor(mode: Mode, shortfalls: Iterable[tuple[int, int, int]]) -> int:
    """A lower bound on the cost of any plan making switches temporal, given
    as (parent, child, shortfall) triples, at most one per child.

    Delays only raise labels and advances only lower them, and no op moves a
    label by more than its own size. So the switch p -> q with shortfall
    sigma needs delays on q plus advances on p of at least sigma. Charging
    q's delays to q's parent and p's advances to p, each parent's charge is
    at least its largest sigma, and no op is charged twice. In delay mode
    there are no advances: each child's delays alone cover its sigma.
    """
    if mode is Mode.DELAY:
        return sum(max(0, sigma) for _, _, sigma in shortfalls)
    worst: dict[int, int] = {}
    for p, _, sigma in shortfalls:
        if sigma > worst.get(p, 0):
            worst[p] = sigma
    return sum(worst.values())  # a sum of ints: the dict's order cannot matter


def _affordable_slots(
    graph: TemporalKPathGraph, b: int, pairs: Iterable[tuple[int, int]] | None = None
) -> SlotTable:
    """switch_slots(graph, pairs) less every slot whose switch is short by
    more than b, its sigma: making that switch temporal costs any plan at
    least its shortfall (_cost_floor), so no candidate within b uses it."""
    return {
        pair: tuple(slot for slot in at if slot[2] <= b)
        for pair, at in switch_slots(graph, pairs).items()
    }


def _best_tree(
    graph: TemporalKPathGraph, s: Vertex, b: int, mode: Mode, search_of: Callable,
    tick: Callable[[], None], spt: SwitchPathTree | None = None,
) -> _Candidate | None:
    """The one solve pipeline of every solver here but xp-b: the first-seen
    candidate of largest (reach, -cost), reach being its sites' suffix
    union size, over every tree's search with the trees in canonical order
    (spt_rank), whatever the order they come in.

    It checks b (_check_budget) and s (_require_source), keeps only the
    slots a switch can take within b (_affordable_slots), and takes the
    trees with their earliest placements on them: every tree that places
    (placed_trees), or, given spt, that one tree, checked first (one parent
    per path, none to the root; edges on the graph; hanging under the
    source path, each a ParameterError), if it places (earliest_sites), its
    slots built for its own edges only.

    search_of(graph, b, mode, slots, tick) builds the per-tree search, tick
    being its counter (_counter). s is graph.source from here on, at
    position 0 of the source path, where every search anchors that path.
    That search(spt, lows, bound, cap) yields a tree's candidates (ops,
    cost, sites) in a fixed order, each within b, given the tree's edges as
    (parent, child, low) (_tree_lows), parents before children, and its
    bound. It asks cap(reach) for the most a candidate of that reach may
    cost and still win: b above the best reach; at the best reach, the best
    cost in a tree ranked before the best's and one below it otherwise; -1
    below the best reach. The answer moves only when search yields, so a
    search may keep it between yields. A candidate wins iff its cost is at
    most cap(its reach), and every candidate is checked to replay temporal
    (_all_temporal of _labels_after its ops), whichever search made it.

    Trees go best bound first, bound being the suffix union size of a
    tree's earliest placement, ties in canonical order. The loop stops at
    the first tree whose bound is below the best reach, and searches a tree
    only if its floor, _cost_floor of its lows, is at most cap(bound).
    - Bound: no candidate covers more. tree_sites and both FPT searches put
      each child's switch strictly after its parent's anchor, so root first
      every anchor is at or after the earliest one (earliest_sites).
    - Floor: no candidate costs less: none has a switch short by less than
      its edge's low (_tree_lows), and _cost_floor only grows with them.
    - Cap: every guess step costs >= 0, so a search may cut a partial guess
      once it spends past the cap.
    - Same winner: a candidate replaces the best iff it is greater in
      (reach, -cost, earlier tree), and no candidate skipped or cut is; a
      tree's search ends once one reaches its bound at no cost. The winner
      is the max in (reach, -cost, earlier tree, earlier in its tree's
      search), the first-seen max over the trees in canonical order.
    """
    _check_budget(b)
    _require_source(graph, s)
    if spt is None:
        slots = _affordable_slots(graph, b)
        trees = placed_trees(graph, 0, slots)
    else:
        root, mapping = graph.source_path_id, dict(spt.parents)
        if len(mapping) != len(spt.parents) or root in mapping:
            raise ParameterError(
                f"tree must give each path one parent, none to the root (path {root})"
            )
        for child, parent in spt.parents:
            if not (0 <= child < graph.k and 0 <= parent < graph.k):
                raise ParameterError(f"tree edge {child}<-{parent} is off this graph")
        if not _all_reach_root(mapping, root):
            raise ParameterError(
                f"tree does not hang together under the source path (path {root})"
            )
        slots = _affordable_slots(graph, b, [(parent, child) for child, parent in spt.parents])
        placed = earliest_sites(graph, spt, 0, slots)
        trees = [] if placed is None else [(spt, placed)]
    search = search_of(graph, b, mode, slots, tick)
    union = _suffix_union_at(graph, s)
    lows_of = _tree_lows(graph, slots)
    ranked = sorted(
        ((-len(union(sites)), spt_rank(spt), spt, sites) for spt, sites in trees),
        key=itemgetter(0, 1),
    )
    best: _Candidate | None = None
    best_reach, best_cost, best_rank = -1, 0, None

    def cap(reach: int) -> int:  # rank: the tree being searched
        if reach == best_reach:
            return best_cost if rank < best_rank else best_cost - 1
        return b if reach > best_reach else -1

    for minus_bound, rank, spt, placed in ranked:
        bound = -minus_bound
        if bound < best_reach:
            break  # so is every tree after it
        lows = lows_of(placed)
        if _cost_floor(mode, lows) > cap(bound):
            continue
        for ops, cost, sites in search(spt, lows, bound, cap):
            assert _all_temporal(_labels_after(graph, ops), sites)
            reach = len(union(sites))
            if cost <= cap(reach):
                best, best_reach, best_cost, best_rank = (ops, cost, sites), reach, cost, rank
                if reach == bound and cost == 0:
                    break
    return best


def _tree_lows(
    graph: TemporalKPathGraph, slots: SlotTable
) -> Callable[[Sequence[Site]], list[tuple[int, int, int]]]:
    """lows_of(sites): each edge of a tree as (parent, child, low), in the
    order of sites, the tree's earliest placement on slots (placed_trees).

    An edge's low is the least sigma (switch_slots) among its slots after
    its parent's anchor in the earliest placement, its own slot there being
    one of them. Every search puts each edge at such a slot (see _best_tree's
    bound), so no candidate of the tree has a switch short by less than its
    edge's low: _cost_floor of the lows is at most any candidate's cost. On
    _affordable_slots at b every low is at most b, and the placement and
    lows are those of the slots a candidate within b can use: later and
    higher than on the full table.
    """
    src = graph.source_path_id

    def lows_of(sites: Sequence[Site]) -> list[tuple[int, int, int]]:
        anchor = {src: 0, **{c: pos_c for _, _, c, pos_c in sites}}
        return [
            (p, c, min(sigma for pos_p, _, sigma in slots[(p, c)] if pos_p > anchor[p]))
            for p, _, c, _ in sites
        ]

    return lows_of


def _replayed(graph: TemporalKPathGraph, best: _Candidate | None) -> BudgetedSolution:
    """The winning candidate, reporting the full reach of the graph it shifts."""
    assert best is not None  # the empty switch set is always a candidate
    ops, cost, sites = best
    shifted, _ = apply_sequence(graph, ops)
    reached = frozenset(reach_set(shifted, graph.source))
    return BudgetedSolution(ops, cost, reached, svs_at(graph, sites))


def _set_search(
    graph: TemporalKPathGraph, b: int, mode: Mode, slots: SlotTable, tick: Callable[[], None]
) -> Callable:
    """xp-k's and fixed-spt's search of one tree: each of its valid switch
    sets (tree_sites), each a tick, priced exactly within cap(its own suffix
    union size), which _price_sites refuses unpriced when the set's own
    floor is past it. So a set that prices at all becomes the best, and its
    ops need no second pricing at b: within any budget c >= its cheapest
    cost C the integer program has the same lex-smallest optimum, which
    moves no amount by more than C. The source sits at position 0 of its
    path (_best_tree)."""
    union = _suffix_union_at(graph, graph.source)

    def search(
        spt: SwitchPathTree, lows: Sequence[tuple[int, int, int]], bound: int, cap: Callable
    ) -> Iterator[_Candidate]:
        for sites in tree_sites(graph, spt, slots):
            tick()
            priced = _price_sites(graph, sites, 0, mode, cap(len(union(sites))))
            if priced is not None:
                yield priced[1], priced[0], sites

    return search


def solve_xp_by_k(
    graph: TemporalKPathGraph,
    s: Vertex,
    b: int,
    mode: Mode,
    limit_svss: int = DEFAULT_SVS_LIMIT,
) -> BudgetedSolution:
    """Optimum via switch-set enumeration: the affordable valid switch set whose
    suffixes cover the most (ties: cheaper, then first seen), tree by tree
    (_best_tree, _set_search). limit_svss counts the sets of the trees
    searched, on affordable slots only (_affordable_slots)."""
    tick = _counter(limit_svss, "switch-vertex-sets")
    return _replayed(graph, _best_tree(graph, s, b, mode, _set_search, tick))


def solve_fixed_spt(
    graph: TemporalKPathGraph,
    s: Vertex,
    b: int,
    mode: Mode,
    spt: SwitchPathTree,
    limit_svss: int = DEFAULT_SVS_LIMIT,
) -> BudgetedSolution:
    """Best solution whose switches realize exactly the given path tree.

    reached is what the tree itself guarantees (the union of opened path
    suffixes), not the incidental reach of the shifted graph. If no
    affordable switch set induces the tree, returns the bare source-path
    suffix with no ops and an empty witness, never None; a tree with edges
    then has fewer switches than edges. The tree is rooted at the source
    path, graph.source_path_id. limit_svss counts only this tree's sets on
    affordable slots (_affordable_slots), and none if the tree has no
    placement on them or its floor is past b (_best_tree).
    """
    tick = _counter(limit_svss, "switch-vertex-sets")
    ops, cost, sites = _best_tree(graph, s, b, mode, _set_search, tick, spt) or ((), 0, ())
    reached = frozenset(_suffix_union_at(graph, s)(sites))
    return BudgetedSolution(ops, cost, reached, svs_at(graph, sites))


def solve_fpt_delay(
    graph: TemporalKPathGraph,
    s: Vertex,
    b: int,
    limit_states: int = DEFAULT_STATE_LIMIT,
) -> BudgetedSolution:
    """Delay-only optimum by guessing a tree and a budget split over its edges.

    For each guess the tree is walked root first and every switch commits to
    the earliest vertex whose labels work out after propagation; guesses
    that strand a switch are dropped: earliest placement opens the longest
    suffix and leaves descendants the most room. Trees and splits that
    cannot beat the best so far are skipped (_best_tree), and only tight
    splits are tried (_delay_search). limit_states caps the branches taken,
    one per child given a delay, counted as they are taken.
    """
    tick = _counter(limit_states, "fpt-delay guesses")
    return _replayed(graph, _best_tree(graph, s, b, Mode.DELAY, _delay_search, tick))


def _delay_search(
    graph: TemporalKPathGraph, b: int, mode: Mode, slots: SlotTable, tick: Callable[[], None]
) -> Callable:
    """fpt-delay's search of one tree: each tight split within cap(bound),
    in lex order (by child), each branch taken a tick. b and mode go
    unused: the search is delay mode's, and the cap bounds its spending.

    A child fits a slot after its parent's anchor iff its delay is at least
    the slot's tight delay t = max(0, sigma + carried), carried being the
    part of the parent's delay left at the switch, max(0, d_parent -
    edge_gap(parent path, parent anchor, pos_p - 1)); a delay places the
    child at the first slot it fits, in table order. A split is tight if
    each child's delay is the tight delay of the slot it places at.

    Only tight splits can win. Take a split placing at sites S with some
    child's delay above its tight delay in S, and lower it to that. The
    child keeps its slot: it still fits there, and no earlier slot, all
    of which needed more than its old delay. Its children are carried less,
    so each fits its slot or an earlier one, and so on down: reach does not
    drop and cost does. So every split best in (reach, -cost) within a tree
    is tight, and the tree's first-seen best over splits in lex order is
    the lex-first of the tight ones.

    The tight splits are generated root first, children in lows order
    (parents first): a child branches on each record low of t along its
    slots after its parent's anchor, placed at the slot reaching it, the
    first that fits that delay. A branch whose delays pass cap(bound) is
    not taken; nothing in the loops depends on the budget. The complete
    splits are then yielded in lex order, each only if it is still within
    cap(bound) at its turn.
    """
    src = graph.source_path_id

    def search(
        spt: SwitchPathTree, lows: Sequence[tuple[int, int, int]], bound: int, cap: Callable
    ) -> Iterator[_Candidate]:
        children = [child for child, _ in spt.parents]
        top = cap(bound)
        delay, anchor = {src: 0}, {src: 0}
        sites: list[Site] = []
        found: list[tuple[tuple[int, ...], _Candidate]] = []  # (split, candidate)

        def grow(i: int, spent: int) -> None:
            if i == len(lows):
                ops = _canonical_ops({(c, pos): delay[c] for _, _, c, pos in sites if delay[c]})
                found.append((tuple(delay[c] for c in children), (ops, spent, tuple(sites))))
                return
            parent, child, _ = lows[i]
            ppath, after, d_p = graph.paths[parent], anchor[parent], delay[parent]
            least = top - spent + 1  # a branch must stay within top
            for pos_p, pos_c, sigma in slots[(parent, child)]:
                if pos_p <= after:
                    continue
                t = max(0, sigma + max(0, d_p - edge_gap(ppath, after, pos_p - 1)))
                if t < least:
                    tick()
                    least = delay[child] = t
                    anchor[child] = pos_c
                    sites.append((parent, pos_p, child, pos_c))
                    grow(i + 1, spent + t)
                    sites.pop()
                    if not t:
                        break  # no lower delay is left

        grow(0, 0)
        found.sort(key=itemgetter(0))
        for _, candidate in found:
            if candidate[1] <= cap(bound):
                yield candidate

    return search


class _Guess(NamedTuple):
    """Per-path displacement guess for the general search, in the final labeling.

    delay is the op on this path's switch-in edge; carried_delay the delay
    arriving (via the parent's own op) at the edge leaving the parent for
    us; advance_arriving / advance_total the part of that same edge's
    advance displacement propagated in from the right, and all of it;
    backwash the advance reaching our switch-in edge from our children;
    sigma the shortfall (switch_slots) the chosen switch vertex must have.
    The fields come in the order tight_guesses tries them (_general_search),
    which builds each guess once. The source path's guess is all zeros: no
    op on it, and nothing carried, advanced or washed onto its first child.
    """

    delay: int
    carried_delay: int
    advance_arriving: int  # <= 0, advance_total minus our own op
    advance_total: int  # <= 0
    backwash: int  # <= 0
    sigma: int


def solve_fpt_general(
    graph: TemporalKPathGraph,
    s: Vertex,
    b: int,
    mode: Mode,
    limit_states: int = DEFAULT_STATE_LIMIT,
) -> BudgetedSolution:
    """Optimum for any mode by guessing per-path displacement tuples.

    Takes the switch-path trees that place (placed_trees), then enumerates
    sibling orders and per-path guesses of how much delay and advance ends
    up on the relevant edges. One depth-first search guesses child by
    child, families root first, and lays each family out greedily as soon
    as its last child is guessed, siblings whose guesses interlock exactly
    being placed as one rigid batch. Trees and guesses that cannot beat the
    best so far are skipped (_best_tree). limit_states caps the guesses
    made, counted as they are made.

    The survivors are those of guessing everything and then laying out each
    complete guess, in the same order. A family whose layout fails cuts
    every completion: its placement depends only on its own guesses, its
    parent's guess and the anchors placed before it. A child tries a sigma
    only if some slot of that sigma lies after its parent's anchor (known by
    then, as families come root first): a batch member's slot lies at or
    after its head's, and the head's after the anchor. A child tries only its
    tight delay, the least that makes its switch temporal, and arriving
    advances and backwashes only down to minus the budget left
    (_general_search): so no delay that is not tight is guessed or counted,
    and delay mode's guesses do not grow with b.
    """
    tick = _counter(limit_states, "fpt-general guesses")
    return _replayed(graph, _best_tree(graph, s, b, mode, _general_search, tick))


def _general_search(
    graph: TemporalKPathGraph, b: int, mode: Mode, slots: SlotTable, tick: Callable[[], None]
) -> Callable:
    """fpt-general's search of one tree: each sibling order and tight guess
    within cap(bound), each a tick. Each search has its own state.

    A child's guess is a _Guess (delay, carried, arriving, total, wash,
    sigma), and its switch is temporal iff carried + total + sigma <=
    delay + wash. Its tight delay is the least that satisfies this, max(0,
    carried + total + sigma - wash). A backwash reaches no delayed edge and
    advance mode has no delays, so there the tight delay must be 0. A child
    tries only its tight delay, arriving and wash only down to -left, left
    being the budget left, and only the sigmas of its slots after its
    parent's anchor (solve_fpt_general); its guesses come in the lex order
    of (delay, carried, arriving, total, wash, -sigma).
    That search has the same best as one over every delay within left and
    every arriving and wash down to -b, in the same order:
    - Only tight delays can win. Lowering a child's delay to its tight value
      keeps the child's slot, and each child below loses the same carried
      delay or drops to 0, which keeps every placement below or moves it
      earlier. Reach does not drop and cost does, so every best guess is
      tight, and the first-seen best among the tight guesses is the
      first-seen best of all.
    - Arriving: a sibling's arriving advance is paid for by the own advances
      (arriving - total) of the siblings after it. Each total is capped by
      the previous sibling's arriving, and the last sibling takes none, so
      those own advances sum to at least -arriving.
    - Wash: a child's backwash is paid for by its own children. The first
      child's total is capped by it, so, as above, their own advances sum to
      at least -wash.
    So a guess with arriving or wash below -left has no completion within
    the cap.
    """
    src = graph.source_path_id
    # per path pair: each sigma, descending, with its last slot's pos on the
    # parent, the largest (one sigma's slots come in parent order)
    tops = {
        pair: sorted({sigma: pos_p for pos_p, _, sigma in at}.items(), reverse=True)
        for pair, at in slots.items()
    }
    allow_delay = mode is not Mode.ADVANCE
    allow_advance = mode is not Mode.DELAY

    def tight_guesses(
        left: int, sigmas: list[int], delay_cap: int, advance_cap: int, last: bool,
        has_kids: bool,
    ) -> Iterator[_Guess]:
        # a child's tight guesses within left, in the order above: those
        # with no delay as they come, the rest held back and sorted by delay
        # (stable: the rest already come in that order). A held-back guess
        # has wash 0 and carried > 0 (then arriving = total = 0) or -sigma <
        # total <= arriving <= 0, so there are few of them however large
        # left is
        delayed = []
        for carried in range(delay_cap + 1):  # delay_cap is 0 in advance mode
            advanced = allow_advance and not carried  # a delayed edge takes no advance
            for arriving in range(-left, 1) if advanced and not last else (0,):
                # own advance arriving - total within left; with none, the
                # cap is 0: a delay is carried only from a parent with no
                # backwash or a sibling with no arriving advance
                lowest = max(-b, arriving - left) if advanced else arriving
                for total in range(lowest, min(arriving, advance_cap) + 1):
                    for wash in range(-left, 1) if allow_advance and has_kids else (0,):
                        for sigma in sigmas:
                            # the least delay making this switch temporal,
                            # carried + total + sigma <= delay + wash, if above 0
                            delay = carried + total + sigma - wash
                            if delay <= 0:
                                yield _Guess(0, carried, arriving, total, wash, sigma)
                            elif allow_delay and not wash and delay + arriving - total <= left:
                                # a backwash reaches no delayed edge
                                delayed.append(_Guess(delay, carried, arriving, total, wash, sigma))
        yield from sorted(delayed, key=itemgetter(0))

    def search(
        spt: SwitchPathTree, lows: Sequence[tuple[int, int, int]], bound: int, cap: Callable
    ) -> Iterator[_Candidate]:
        # The search state, with chain and order set per sibling order below.
        # extend takes back its sites on the way back; a path's guess and
        # anchor are always set on the current branch before they are read;
        # top is the cap, asked again after each candidate.
        anchor = {src: 0}
        assign = {src: _Guess(0, 0, 0, 0, 0, 0)}
        sites: list[Site] = []
        top = cap(bound)

        def extend(i: int, spent: int) -> Iterator[_Candidate]:
            nonlocal top
            left = top - spent
            if left < 0:
                return
            if i == len(chain):
                net: dict[tuple[int, int], int] = {}
                for p, pos_p, c, pos_c in sites:
                    g = assign[c]
                    own = g.advance_total - g.advance_arriving  # this path's own advance
                    for key, amount in ((c, pos_c), g.delay), ((p, pos_p - 1), own):
                        if amount:
                            net[key] = net.get(key, 0) + amount
                yield _canonical_ops(net), spent, tuple(sites)
                top = cap(bound)
                return
            parent, child, idx = chain[i]
            kids = order[parent]
            after = anchor[parent]
            sigmas = [sigma for sigma, pos_p in tops[(parent, child)] if pos_p > after]
            if not sigmas:
                return
            last = idx == len(kids) - 1
            if idx:
                prev = assign[kids[idx - 1]]
                delay_cap, advance_cap = prev.carried_delay, prev.advance_arriving
            else:
                delay_cap, advance_cap = assign[parent].delay, assign[parent].backwash
            guesses = tight_guesses(left, sigmas, delay_cap, advance_cap, last, child in order)
            for guess in guesses:
                tick()
                assign[child] = guess
                placed = [] if not last else _place_chain(
                    graph, parent, kids, assign, slots, after, src
                )
                if placed is None:
                    continue
                for _, _, kid, pos_q in placed:
                    anchor[kid] = pos_q
                sites.extend(placed)
                cost = guess.delay + guess.advance_arriving - guess.advance_total  # own ops
                yield from extend(i + 1, spent + cost)
                del sites[len(sites) - len(placed) :]

        parents_with_kids = sorted({parent for _, parent in spt.parents})
        orderings = itertools.product(
            *(itertools.permutations(spt.children_of(p)) for p in parents_with_kids)
        )
        for ordering in orderings:
            order = dict(zip(parents_with_kids, ordering))
            chain = [
                (parent, child, i)
                for parent, kids in root_first(src, lambda p: order.get(p, ()))
                for i, child in enumerate(kids)
            ]
            yield from extend(0, 0)

    return search


def _place_chain(
    graph: TemporalKPathGraph, parent: int, kids: tuple[int, ...], assign: dict[int, _Guess],
    slots: SlotTable, after: int, src: int,
) -> list[Site] | None:
    """Earliest placement of one parent's children, honoring the couplings.

    after is the parent's anchor; the sites come in sibling order. Each kid
    switches at a slot of its guessed sigma. Between consecutive siblings
    the parent path's slack must be at least (and, when delay or advance is
    guessed to flow between them, exactly) what the guessed displacements
    consume. Exactly-coupled runs move as one batch: the head scans forward,
    the rest must hit their slack on the nose. The scans take a pair's
    slots in child order, which within one sigma is also parent order:
    labels strictly rise along both paths, so shared vertices in opposite
    orders differ in sigma.
    """
    ppath = graph.paths[parent]
    # the next head goes after lo, with at least need slack from edge ref
    lo = ref = after
    if parent == src:
        need = 0
    else:
        g, z = assign[parent], assign[kids[0]]
        need = (g.delay - z.carried_delay) + (g.backwash - z.advance_total)
    placed: list[Site] = []
    i, n = 0, len(kids)
    while i < n:
        j = i + 1  # the batch is kids[i:j]
        while j < n and (
            assign[kids[j]].carried_delay > 0 or assign[kids[j - 1]].advance_arriving < 0
        ):
            j += 1
        for pos_p, pos_q, sigma in slots[(parent, kids[i])]:
            # (slack is never negative, so need <= 0 always holds)
            if sigma != assign[kids[i]].sigma or pos_p <= lo or (
                need > 0 and edge_gap(ppath, ref, pos_p - 1) < need
            ):
                continue
            trial = [(parent, pos_p, kids[i], pos_q)]
            for prev, member in zip(kids[i : j - 1], kids[i + 1 : j]):
                cur, want = trial[-1][1], _between(assign[prev], assign[member])
                hit = next(
                    (
                        (mp, mq)
                        for mp, mq, sigma in slots[(parent, member)]
                        if sigma == assign[member].sigma
                        and mp >= cur and edge_gap(ppath, cur - 1, mp - 1) >= want
                    ),
                    None,
                )
                if hit is None or edge_gap(ppath, cur - 1, hit[0] - 1) != want:
                    break
                trial.append((parent, hit[0], member, hit[1]))
            else:
                break  # the whole batch placed
        else:
            return None
        placed += trial
        if j < n:
            lo = ref = trial[-1][1] - 1
            need = _between(assign[kids[j - 1]], assign[kids[j]])
        i = j
    return placed


def _between(prev: _Guess, nxt: _Guess) -> int:
    """The slack the parent path must have between two siblings' switches."""
    return (prev.carried_delay - nxt.carried_delay) + (prev.advance_arriving - nxt.advance_total)
