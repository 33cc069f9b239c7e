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


def is_temporal_switch(graph: TemporalKPathGraph, sw: Switch) -> bool:
    """True iff the label into v on from_path is below the label out on to_path."""
    pos = _switch_edge_positions(graph, sw)
    if pos is None:
        raise ValidityError(f"structurally invalid switch {sw}")
    pf, pt = pos
    return graph.paths[sw.from_path].labels[pf - 1] < graph.paths[sw.to_path].labels[pt]


def is_valid_svs(graph: TemporalKPathGraph, svs: SwitchVertexSet) -> bool:
    """Structural validity of a switch-vertex-set. Ignores labels entirely."""
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


def suffix_union(
    graph: TemporalKPathGraph, svs: SwitchVertexSet, s: Vertex
) -> set[Vertex]:
    """Vertices covered by the source-path suffix plus each switched-onto suffix.

    This is the reach the switch set would deliver if every switch were
    temporal; no labels are consulted.
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
        if not children:
            yield SwitchPathTree(())
            continue
        member_set = sorted(members)
        options = [[p for p in member_set if p != c] for c in children]
        for parents in product(*options):
            mapping = dict(zip(children, parents))
            if _all_reach_root(mapping, root):
                yield SwitchPathTree(tuple(mapping.items()))


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


SlotTable = dict[tuple[int, int], tuple[tuple[int, int], ...]]
Site = tuple[int, int, int, int]  # (parent, pos on parent, child, pos on child)


def switch_slots(graph: TemporalKPathGraph) -> SlotTable:
    """Where a switch can sit, for every ordered pair of distinct paths.

    slots[(parent, child)] holds (pos on parent, pos on child) for each
    vertex the two paths share that has an edge into it on the parent
    (pos >= 1) and an edge out of it on the child (not its last vertex), in
    child order. Labels are not consulted, so one table serves a whole solve.
    """
    where = []
    for p in graph.paths:
        pos: dict[Vertex, int] = {}
        for i, v in enumerate(p.vertices):
            pos.setdefault(v, i)  # the first occurrence, as BasePath.find
        where.append(pos)
    return {
        (parent.path_id, child.path_id): tuple(
            (pos_p, pos_c)
            for pos_c, v in enumerate(child.vertices[:-1])
            if (pos_p := on_parent.get(v, 0)) >= 1
        )
        for parent, on_parent in zip(graph.paths, where)
        for child in graph.paths
        if parent.path_id != child.path_id
    }


def svs_at(graph: TemporalKPathGraph, sites: Iterable[Site]) -> SwitchVertexSet:
    """The switch-vertex-set with one switch at each site."""
    return make_svs(Switch(graph.paths[c].vertices[pc], p, c) for p, _, c, pc in sites)


def place_switches(
    graph: TemporalKPathGraph,
    slots: SlotTable,
    order: Iterable[tuple[int, Sequence[int]]],
    start: int,
    fits: Callable[[int, int, int, int, int], bool] | None = None,
) -> list[Site] | None:
    """Earliest workable switch on every tree edge, placed root first.

    order is the tree as root_first yields it; start is the anchor on the
    source path; slots is switch_slots(graph). A child takes the first slot
    of its edge, in child order, that lies after its parent's anchor and
    passes fits(parent, child, parent anchor, pos on parent, pos on child);
    that becomes its anchor. Scanning only the slots skips exactly the child
    vertices the parent lacks or holds at position 0, which the anchor test
    rejects anyway. Returns the sites in placement order, or None if an
    edge has no workable slot.
    """
    anchor = {graph.source_path_id: start}
    sites: list[Site] = []
    for parent, kids in order:
        after = anchor[parent]
        for child in kids:
            for pos_p, pos_c in slots[(parent, child)]:
                if pos_p > after and (fits is None or fits(parent, child, after, pos_p, pos_c)):
                    break
            else:
                return None
            anchor[child] = pos_c
            sites.append((parent, pos_p, child, pos_c))
    return sites


def enumerate_tree_svss(
    graph: TemporalKPathGraph, spt: SwitchPathTree, slots: SlotTable
) -> Iterator[SwitchVertexSet]:
    """Every valid switch-vertex-set whose transitions are spt's edges.

    spt must be a tree under the source path; slots is switch_slots(graph).
    Its edges are filled in sorted order from their slots, so sets come
    in the order of the candidates' Cartesian product; a choice that breaks
    "off strictly after on" with a chosen neighbour is cut at once.
    """
    src, edges = graph.source_path_id, spt.parents
    start = graph.paths[src].find(graph.source)
    if start is None:
        return  # with s off its path not even the empty set is valid
    anchor = {src: start}  # where each chosen path is boarded
    per_edge = [
        [
            (Switch(graph.paths[child].vertices[pt], parent, child), pf, pt)
            for pf, pt in slots[(parent, child)]
        ]
        for child, parent in edges
    ]
    below = [[j for j in range(i) if edges[j][1] == c] for i, (c, _) in enumerate(edges)]
    chosen: list[tuple[Switch, int, int]] = []

    def extend(i: int) -> Iterator[SwitchVertexSet]:
        if i == len(edges):
            yield make_svs(sw for sw, _, _ in chosen)
            return
        child, parent = edges[i]
        # leave the parent after boarding it; board the child before leaving it
        hi = min((chosen[j][1] for j in below[i]), default=len(graph.paths[child].vertices))
        for cand in per_edge[i]:
            if cand[1] > anchor.get(parent, 0) and cand[2] < hi:
                anchor[child] = cand[2]
                chosen.append(cand)
                yield from extend(i + 1)
                chosen.pop()
        anchor.pop(child, None)

    yield from extend(0)


def enumerate_svss(graph: TemporalKPathGraph) -> Iterator[SwitchVertexSet]:
    """Every valid switch-vertex-set of the graph, the empty one first.

    Label-agnostic: validity never looks at labels, so the stream is the
    same for any labeling of the same footprints. Each set appears exactly
    once because distinct trees yield distinct transition sets.
    """
    slots = switch_slots(graph)
    for spt in enumerate_spts(graph.k, include_partial=True, root=graph.source_path_id):
        yield from enumerate_tree_svss(graph, spt, slots)
