"""Switches between base-paths and the two structures built from them.

A switch (v, F, T) lets a journey arrive at v on path F and continue on
path T. A switch-vertex-set bundles switches so that the suffixes they
unlock are actually traversable: at most one switch onto each path, none
onto the source path, every switch off a path strictly after the switch
onto it, and the path-to-path transitions forming a tree rooted at the
source path. Abstracting switch vertices away leaves a switch-path-tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Sequence

from .graph_core import (
    ParameterError,
    TemporalKPathGraph,
    ValidityError,
    Vertex,
)


@dataclass(frozen=True)
class Switch:
    vertex: Vertex
    from_path: int
    to_path: int


@dataclass(frozen=True)
class SwitchVertexSet:
    switches: frozenset[Switch]


def make_svs(switches: Iterable[Switch]) -> SwitchVertexSet:
    return SwitchVertexSet(frozenset(switches))


EMPTY_SVS = make_svs(())


@dataclass(frozen=True)
class SwitchPathTree:
    """Directed tree on path ids as sorted (child, parent) edges.

    The root never appears as a child and is implicit from context; paths
    absent from every edge are outside the tree. The empty edge tuple is the
    root-only tree.
    """

    parents: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(sorted(set(self.parents))))

    def parent_of(self, path_id: int) -> int | None:
        for child, parent in self.parents:
            if child == path_id:
                return parent
        return None

    def children_of(self, path_id: int) -> list[int]:
        return sorted(child for child, parent in self.parents if parent == path_id)

    def members(self, root: int) -> set[int]:
        out = {root}
        for child, parent in self.parents:
            out.add(child)
            out.add(parent)
        return out


def _switch_edge_positions(
    graph: TemporalKPathGraph, sw: Switch
) -> tuple[int, int] | None:
    """(position on from_path, position on to_path) or None if not structural."""
    if sw.from_path == sw.to_path:
        return None
    if not (0 <= sw.from_path < len(graph.paths) and 0 <= sw.to_path < len(graph.paths)):
        return None
    pf = graph.paths[sw.from_path].find(sw.vertex)
    pt = graph.paths[sw.to_path].find(sw.vertex)
    if pf is None or pf == 0:
        return None  # needs an edge into v on the from-path
    if pt is None or pt == len(graph.paths[sw.to_path].vertices) - 1:
        return None  # needs an edge out of v on the to-path
    return pf, pt


Site = tuple[int, int, int, int]  # (parent, pos on parent, child, pos on child)


def _sites_of(graph: TemporalKPathGraph, svs: SwitchVertexSet) -> list[Site] | None:
    """The set's sites sorted by child, or None if a switch is not structural."""
    sites = []
    for sw in svs.switches:
        pos = _switch_edge_positions(graph, sw)
        if pos is None:
            return None
        sites.append((sw.from_path, pos[0], sw.to_path, pos[1]))
    return sorted(sites, key=lambda site: site[2])


def _suffix_union_at(
    graph: TemporalKPathGraph, s: Vertex
) -> Callable[[Iterable[Site]], set[Vertex]]:
    """suffix_union from s of the switch set at the given sites, read off the sites."""
    start = graph.source_path.find(s)
    if start is None:
        raise ValidityError(f"{s!r} not on the source path")
    vertices = [path.vertices for path in graph.paths]
    base = graph.source_path.vertices[start:]

    def union(sites: Iterable[Site]) -> set[Vertex]:
        out = set(base)
        for _, _, c, pos_c in sites:
            out.update(vertices[c][pos_c:])
        return out

    return union


def _all_temporal(labels: Sequence[tuple[int, ...]], sites: Iterable[Site]) -> bool:
    """is_temporal_switch for the switch at each site, under the given labels."""
    return all(labels[p][pos_p - 1] < labels[c][pos_c] for p, pos_p, c, pos_c in sites)


def is_temporal_switch(graph: TemporalKPathGraph, sw: Switch) -> bool:
    """True iff the label into v on from_path is below the label out on to_path."""
    pos = _switch_edge_positions(graph, sw)
    if pos is None:
        raise ValidityError(f"structurally invalid switch {sw}")
    labels = [path.labels for path in graph.paths]
    return _all_temporal(labels, [(sw.from_path, pos[0], sw.to_path, pos[1])])


def is_valid_svs(graph: TemporalKPathGraph, svs: SwitchVertexSet) -> bool:
    """Structural validity of a switch-vertex-set. Ignores labels entirely."""
    sites = _sites_of(graph, svs)
    if sites is None:
        return False
    src = graph.source_path_id
    anchor = {c: pos_c for _, _, c, pos_c in sites}  # where each path is boarded
    if len(anchor) < len(sites) or src in anchor:
        return False  # at most one switch onto each path, none onto the source path
    if not _all_reach_root({c: p for p, _, c, _ in sites}, src):
        return False  # transitions must chain back to the source path
    anchor[src] = graph.paths[src].find(graph.source)
    # off strictly after on: a journey must traverse the edge into v
    return anchor[src] is not None and all(pos_p > anchor[p] for p, pos_p, _, _ in sites)


def suffix_union(
    graph: TemporalKPathGraph, svs: SwitchVertexSet, s: Vertex
) -> set[Vertex]:
    """Vertices covered by the source-path suffix plus each switched-onto suffix.

    This is the reach the switch set would deliver if every switch were
    temporal; no labels are consulted. Raises ValidityError if a switch is
    not structural (is_valid_svs's first rule) or s is off the source path.
    """
    sites = _sites_of(graph, svs)
    if sites is None:
        raise ValidityError("switch-vertex-set has a switch that is not structural")
    return _suffix_union_at(graph, s)(sites)


def svs_reachability(
    graph: TemporalKPathGraph, svs: SwitchVertexSet, s: Vertex
) -> set[Vertex]:
    """suffix_union for a valid SVS whose switches are all temporal.

    Callers must establish temporality first; a non-temporal switch here is a
    contract violation and raises.
    """
    if not is_valid_svs(graph, svs):
        raise ValidityError("switch-vertex-set is not valid")
    for sw in svs.switches:
        if not is_temporal_switch(graph, sw):
            raise ValidityError(f"switch {sw} is not temporal")
    return suffix_union(graph, svs, s)


def implied_spt(svs: SwitchVertexSet) -> SwitchPathTree:
    """Forget switch vertices, keep the path transitions."""
    return SwitchPathTree(tuple((sw.to_path, sw.from_path) for sw in svs.switches))


def enumerate_spts(
    k: int, include_partial: bool = False, root: int = 0
) -> Iterator[SwitchPathTree]:
    """All directed trees on path ids rooted at root, edges pointing away.

    Spanning trees only by default; with include_partial, trees over every
    subset containing the root, smallest subsets first. Within a subset,
    parent choices run lexicographically by child id. Deterministic order.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    if not 0 <= root < k:
        raise ParameterError(f"root {root} outside 0..{k - 1}")
    rest = [p for p in range(k) if p != root]
    if include_partial:
        subsets = (
            [root, *combo]
            for size in range(0, k)
            for combo in combinations(rest, size)
        )
    else:
        subsets = iter([[root, *rest]])
    for members in subsets:
        children = sorted(p for p in members if p != root)
        member_set = sorted(members)
        options = [[p for p in member_set if p != c] for c in children]
        for parents in product(*options):  # a root-only subset: one empty tree
            mapping = dict(zip(children, parents))
            if _all_reach_root(mapping, root):
                yield SwitchPathTree(tuple(mapping.items()))


def spt_rank(spt: SwitchPathTree) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """spt's place in enumerate_spts's order, whatever the root: by size,
    then by children, then by their parents, each compared lexicographically."""
    return len(spt.parents), tuple(c for c, _ in spt.parents), tuple(p for _, p in spt.parents)


def _all_reach_root(mapping: dict[int, int], root: int) -> bool:
    for start in mapping:
        cur = start
        hops = 0
        while cur != root:
            cur = mapping.get(cur, -1)
            hops += 1
            if cur == -1 or hops > len(mapping):
                return False
    return True


def root_first(
    root: int, children_of: Callable[[int], Sequence[int]]
) -> Iterator[tuple[int, Sequence[int]]]:
    """(path, its children) for every path of a tree, breadth first from root."""
    order = [root]
    for parent in order:  # the loop reaches the children appended below
        kids = children_of(parent)
        order.extend(kids)
        yield parent, kids


# (parent, child) -> (pos on parent, pos on child, sigma) per slot, as switch_slots builds it
SlotTable = dict[tuple[int, int], tuple[tuple[int, int, int], ...]]


def switch_slots(graph: TemporalKPathGraph) -> SlotTable:
    """Where a switch can sit, for every ordered pair of distinct paths.

    slots[(parent, child)] holds (pos on parent, pos on child, sigma) for
    each vertex the two paths share that has an edge into it on the parent
    (pos >= 1) and an edge out of it on the child (not its last vertex), in
    child order. sigma is the switch's shortfall, the least rise of its
    label gap that makes it temporal: the label into the vertex on the
    parent, less the label out of it on the child, plus one. The solvers
    build the table once per solve and read each slot's sigma from it;
    pricing one switch set reads its switches' sigmas off the labels once
    more (_price_sites). Which slots there are does not depend on labels.
    """
    table = {}
    for parent in range(graph.k):
        on_parent: dict[Vertex, int] = {}  # each vertex's position on the parent
        for i, v in enumerate(graph.paths[parent].vertices):
            on_parent.setdefault(v, i)  # the first occurrence, as BasePath.find
        into = graph.paths[parent].labels
        for child in range(graph.k):
            if child != parent:
                out = graph.paths[child].labels
                table[(parent, child)] = tuple(
                    (pos_p, pos_c, into[pos_p - 1] - out[pos_c] + 1)
                    for pos_c, v in enumerate(graph.paths[child].vertices[:-1])
                    if (pos_p := on_parent.get(v, 0)) >= 1
                )
    return table


def svs_at(graph: TemporalKPathGraph, sites: Iterable[Site]) -> SwitchVertexSet:
    """The switch-vertex-set with one switch at each site."""
    return make_svs(Switch(graph.paths[c].vertices[pc], p, c) for p, _, c, pc in sites)


def placed_trees(
    graph: TemporalKPathGraph, start: int, slots: SlotTable
) -> Iterator[tuple[SwitchPathTree, list[Site]]]:
    """(spt, sites) once for each tree under the source path that has an
    earliest placement on slots, the sites with parents before children.

    The earliest placement anchors the source path at start and gives each
    child the first slot of slots[(parent, child)], in child order, that
    sits strictly after its parent's anchor; the slot's child position is
    the child's anchor. That slot depends only on the parent's anchor, so
    trees grow from the root one edge at a time, offering only edges that
    place. Each tree branches on each frontier edge in turn, taking it and
    dropping the edges tried before it for the rest of the branch, and is
    yielded after its branches (Gabow and Myers's edge branching, SIAM J.
    Comput. 1978): every tree whose edges all place comes out exactly once,
    and the recursion goes one level per taken edge. Edges come from the
    table's keys, so a table over some pairs grows only trees of those.
    """
    src = graph.source_path_id

    def offered(tree: tuple[Site, ...], parent: int, after: int) -> list[Site]:
        inside = {src, *(c for _, _, c, _ in tree)}
        return [
            (parent, slot[0], child, slot[1])
            for (p, child), at in slots.items()
            if p == parent and child not in inside
            and (slot := next((pair for pair in at if pair[0] > after), None))
        ]

    def grow(
        tree: tuple[Site, ...], frontier: list[Site]
    ) -> Iterator[tuple[SwitchPathTree, list[Site]]]:
        for i, site in enumerate(frontier):
            taken = (*tree, site)
            later = [edge for edge in frontier[i + 1 :] if edge[2] != site[2]]
            yield from grow(taken, later + offered(taken, site[2], site[3]))
        yield SwitchPathTree(tuple((c, p) for p, _, c, _ in tree)), list(tree)

    yield from grow((), offered((), src, start))


def earliest_sites(
    graph: TemporalKPathGraph, spt: SwitchPathTree, start: int, slots: SlotTable
) -> list[Site] | None:
    """spt's earliest placement on slots (placed_trees), or None if spt has
    none: an edge has no slot after its parent's anchor, or no entry in
    slots, or spt does not hang under the source path.

    slots is switch_slots(graph), or that table less some slots. The first
    tree placed_trees grows on spt's own pairs takes every edge that places.
    A child's first slot only moves later as its parent's anchor does, so
    any placement on slots of the table putting every child after its
    parent's anchor boards each path at or after the position this one
    does: its suffix union is a subset of this one's, and it fails wherever
    this fails.
    """
    own = {(p, c): slots.get((p, c), ()) for c, p in spt.parents}
    _, sites = next(placed_trees(graph, start, own))
    return sites if len(sites) == len(spt.parents) else None


def tree_sites(
    graph: TemporalKPathGraph, spt: SwitchPathTree, slots: SlotTable
) -> Iterator[tuple[Site, ...]]:
    """Sites of every valid switch-vertex-set whose transitions are spt's edges.

    spt must be a tree under the source path, and graph.source must lie on
    that path, where it anchors it: enumerate_svss checks this first, and
    _best_tree (_require_source) does before xp-k's and fixed-spt's search
    call here. slots is switch_slots(graph), or that table less some slots,
    whose sets then go too. Each set's sites come sorted by child. Edges are
    filled in sorted order from their slots, so sets come in the order of
    the candidates' Cartesian product; a choice that breaks "off strictly
    after on" with a chosen neighbour is cut at once.
    """
    src, edges = graph.source_path_id, spt.parents
    anchor = {src: graph.source_path.find(graph.source)}  # where each chosen path is boarded
    per_edge = [
        [(parent, pf, child, pt) for pf, pt, _ in slots[(parent, child)]]
        for child, parent in edges
    ]
    below = [[j for j in range(i) if edges[j][1] == c] for i, (c, _) in enumerate(edges)]
    chosen: list[Site] = []

    def extend(i: int) -> Iterator[tuple[Site, ...]]:
        if i == len(edges):
            yield tuple(chosen)
            return
        child, parent = edges[i]
        # leave the parent after boarding it; board the child before leaving it
        hi = min((chosen[j][1] for j in below[i]), default=len(graph.paths[child].vertices))
        for site in per_edge[i]:
            if site[1] > anchor.get(parent, 0) and site[3] < hi:
                anchor[child] = site[3]
                chosen.append(site)
                yield from extend(i + 1)
                chosen.pop()
        anchor.pop(child, None)

    yield from extend(0)


def enumerate_svss(graph: TemporalKPathGraph) -> Iterator[SwitchVertexSet]:
    """Every valid switch-vertex-set of the graph, the empty one first.

    Label-agnostic: validity never looks at labels, so the stream is the
    same for any labeling of the same footprints. The sets come tree by
    tree in enumerate_spts's order (spt_rank), over the trees that place
    (placed_trees): a tree has a valid set iff it has an earliest placement
    (earliest_sites). Each set appears exactly once because distinct trees
    yield distinct transition sets. With the source off its path there is
    none, not even the empty set.
    """
    start = graph.source_path.find(graph.source)
    if start is None:
        return
    slots = switch_slots(graph)
    for spt, _ in sorted(placed_trees(graph, start, slots), key=lambda tree: spt_rank(tree[0])):
        for sites in tree_sites(graph, spt, slots):
            yield svs_at(graph, sites)
