"""Free relabeling: pick fresh labels for every edge to maximize reach.

With labels free, only the footprints matter. The best reach equals the
best structural suffix-union over all switch-vertex-sets, and that is found
by growing every switch-path-tree that can be realized, each with its
earliest placement (placed_trees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph_core import BasePath, TemporalKPathGraph, Vertex
from .solver_budgeted import DEFAULT_STATE_LIMIT, _counter, _require_source
from .switch_structures import (
    Site,
    SwitchPathTree,
    SwitchVertexSet,
    _suffix_union_at,
    earliest_sites,
    placed_trees,
    spt_rank,
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
    graph: TemporalKPathGraph, s: Vertex, spt: SwitchPathTree
) -> SwitchVertexSet | None:
    """Best label-agnostic realization of a switch-path-tree, or None.

    The switches of earliest_sites, which walks the tree outward from the
    source path: for each tree edge the switch goes on the earliest vertex
    of the child path that also sits strictly after the parent's own switch
    vertex, which maximizes the unlocked suffix and leaves descendants the
    widest choice. Absence means some tree edge admits no switch at all, or
    spt does not hang under the source path.
    """
    start = graph.source_path.find(s)
    if start is None:
        return None
    sites = earliest_sites(graph, spt, start, switch_slots(graph))
    return None if sites is None else svs_at(graph, sites)


def solve_mrpt(
    paths: Sequence[BasePath], s: Vertex, limit_states: int = DEFAULT_STATE_LIMIT
) -> Temporalization:
    """Choose labels from scratch so that s reaches as much as possible.

    Input labels are ignored. s must head a dedicated path (normalize
    first). The winning tree assigns each member path a label block at
    depth * M so that every chosen switch is temporal by construction;
    paths outside the tree get negative labels nothing can switch onto.
    Each tree grown counts against limit_states; the tree past it raises
    ResourceLimitError.
    """
    src = next((p.path_id for p in paths if p.vertices[:1] == (s,)), 0)
    graph = TemporalKPathGraph(len(paths), tuple(paths), s, src)
    _require_source(graph, s)
    union = _suffix_union_at(graph, s)
    tick = _counter(limit_states, "switch-path trees")

    def rank(tree: tuple[SwitchPathTree, list[Site]]) -> tuple[int, bool, tuple]:
        """The largest reach, then a spanning tree (k - 1 edges), then
        canonical order; called once per tree grown."""
        tick()
        return -len(union(tree[1])), len(tree[0].parents) < graph.k - 1, spt_rank(tree[0])

    # the root-only tree always places
    spt, sites = min(placed_trees(graph, 0, switch_slots(graph)), key=rank)
    svs = svs_at(graph, sites)

    total = graph.total_edges()
    block = total + 1
    depth = {src: 0}
    for parent, _, child, _ in sites:  # parents before children
        depth[child] = depth[parent] + 1
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
