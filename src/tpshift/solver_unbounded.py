"""Free relabeling: pick fresh labels for every edge to maximize reach.

With labels free, only the footprints matter. The best reach equals the
best structural suffix-union over all switch-vertex-sets, and that is found
by scanning switch-path-trees and greedily realizing each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .graph_core import BasePath, InvalidInstanceError, TemporalKPathGraph, Vertex
from .switch_structures import (
    SlotTable,
    SwitchPathTree,
    SwitchVertexSet,
    enumerate_spts,
    place_switches,
    root_first,
    suffix_union,
    svs_at,
    svs_reachability,
    switch_slots,
)


@dataclass(frozen=True)
class Temporalization:
    """A full labeling plus the switch structure that certifies its reach."""

    labels: tuple[tuple[int, ...], ...]
    reached: frozenset[Vertex]
    spt: SwitchPathTree
    svs: SwitchVertexSet


def best_svs_for_spt(
    graph: TemporalKPathGraph,
    s: Vertex,
    spt: SwitchPathTree,
    slots: SlotTable | None = None,
) -> SwitchVertexSet | None:
    """Best label-agnostic realization of a switch-path-tree, or None.

    Walks the tree outward from the source path. For each tree edge the
    switch goes on the earliest vertex of the child path that also sits
    strictly after the parent's own switch vertex, which maximizes the
    unlocked suffix and leaves descendants the widest choice. Absence means
    some tree edge admits no switch at all. slots is switch_slots(graph),
    built here when not given.
    """
    src = graph.source_path_id
    start = graph.paths[src].find(s)
    if start is None:
        return None
    if slots is None:
        slots = switch_slots(graph)
    sites = place_switches(graph, slots, root_first(src, spt.children_of), start)
    return None if sites is None else svs_at(graph, sites)


def _spanning_then_partial(k: int, root: int) -> Iterator[SwitchPathTree]:
    yield from enumerate_spts(k, include_partial=False, root=root)
    for spt in enumerate_spts(k, include_partial=True, root=root):
        if len(spt.members(root)) < k:
            yield spt


def solve_mrpt(paths: Sequence[BasePath], s: Vertex) -> Temporalization:
    """Choose labels from scratch so that s reaches as much as possible.

    Input labels are ignored. s must head a dedicated path (normalize
    first). The winning tree assigns each member path a label block at
    depth * M so that every chosen switch is temporal by construction;
    paths outside the tree get negative labels nothing can switch onto.
    """
    heads = [p.path_id for p in paths if p.vertices and p.vertices[0] == s]
    occurrences = sum(1 for p in paths for v in p.vertices if v == s)
    if len(heads) != 1 or occurrences != 1:
        raise InvalidInstanceError(
            f"source {s!r} must head exactly one path and appear nowhere else"
        )
    src = heads[0]
    graph = TemporalKPathGraph(len(paths), tuple(paths), s, src)
    best: tuple[int, SwitchPathTree, SwitchVertexSet] | None = None
    slots = switch_slots(graph)
    for spt in _spanning_then_partial(len(paths), src):
        svs = best_svs_for_spt(graph, s, spt, slots)
        if svs is None:
            continue
        size = len(suffix_union(graph, svs, s))
        if best is None or size > best[0]:
            best = (size, spt, svs)
    assert best is not None  # the root-only tree always realizes
    _, spt, svs = best

    total = graph.total_edges()
    block = total + 1
    depth = {src: 0}
    for p, kids in root_first(src, spt.children_of):
        depth.update((c, depth[p] + 1) for c in kids)
    labels = []
    for p in graph.paths:
        m = p.edge_count()
        if p.path_id in depth:
            start = depth[p.path_id] * block
        else:
            start = -(block + m)
        labels.append(tuple(start + j for j in range(m)))
    relabeled = TemporalKPathGraph(
        graph.k,
        tuple(
            BasePath(p.path_id, p.vertices, labels[p.path_id]) for p in graph.paths
        ),
        s,
        src,
    )
    reached = frozenset(svs_reachability(relabeled, svs, s))
    return Temporalization(tuple(labels), reached, spt, svs)
