"""Instance builders: random graphs and a hardness-reduction fixture.

The random generator produces normalized instances for the randomized
equivalence suites. The fixture encodes multicolored independent set
(MCIS): delays that let the source reach every vertex correspond exactly
to colorful independent sets, so known MCIS answers give the solvers
ground truth to hit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .graph_core import (
    BasePath,
    InvalidInstanceError,
    ParameterError,
    ParseError,
    ShiftOperation,
    TemporalKPathGraph,
    validate,
)


@dataclass(frozen=True)
class McisInstance:
    """Disjoint colored node sets plus edges between different colors."""

    colors: tuple[tuple[str, tuple[str, ...]], ...]
    edges: frozenset[frozenset[str]]

    def node_count(self) -> int:
        return sum(len(nodes) for _, nodes in self.colors)


def _check_mcis(mcis: McisInstance) -> None:
    owner: dict[str, str] = {}
    names: set[str] = set()
    for name, nodes in mcis.colors:
        if ":" in name:
            raise InvalidInstanceError(f"color name {name!r} may not contain ':'")
        if name in names:
            raise InvalidInstanceError(f"color {name!r} declared twice")
        names.add(name)
        if not nodes:
            raise InvalidInstanceError(f"color {name!r} has no nodes")
        for node in nodes:
            if ":" in node:
                raise InvalidInstanceError(f"node name {node!r} may not contain ':'")
            if node in owner:
                raise InvalidInstanceError(f"node {node!r} appears twice")
            owner[node] = name
    for edge in mcis.edges:
        pair = sorted(edge)
        if len(pair) != 2:
            raise InvalidInstanceError(f"edge {pair} must join two distinct nodes")
        u, v = pair
        if u not in owner or v not in owner:
            raise InvalidInstanceError(f"edge {u}-{v} mentions an unknown node")
        if owner[u] == owner[v]:
            raise InvalidInstanceError(f"edge {u}-{v} stays inside color {owner[u]!r}")


def parse_mcis(text: str) -> McisInstance:
    """Read the line-oriented MCIS format.

    `color <name>: n1 n2 ...` declares a color, `edge n1 n2` an edge;
    blank lines and lines starting with # are skipped.
    """
    colors: list[tuple[str, tuple[str, ...]]] = []
    edges: set[frozenset[str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("color "):
            head, sep, rest = line[len("color "):].partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: color line needs a ':'")
            name = head.strip()
            if not name or len(name.split()) != 1:
                raise ParseError(f"line {lineno}: color name must be one word")
            colors.append((name, tuple(rest.split())))
        elif line.startswith("edge "):
            ends = line.split()[1:]
            if len(ends) != 2 or ends[0] == ends[1]:
                raise ParseError(f"line {lineno}: edge needs two distinct endpoints")
            edges.add(frozenset(ends))
        else:
            raise ParseError(f"line {lineno}: expected a color or edge line")
    mcis = McisInstance(tuple(colors), frozenset(edges))
    _check_mcis(mcis)
    return mcis


def gen_random(
    k: int, n_per_path: int, lifetime: int, share_prob: float, seed: int
) -> TemporalKPathGraph:
    """Seed-deterministic random instance, already source-normalized.

    Path 0 starts at the reserved source "s"; later paths reuse earlier
    non-source vertices with probability share_prob, giving the switch
    structure something to work with.
    """
    if k < 1:
        raise ParameterError(f"need at least one path, got k={k}")
    if n_per_path < 2:
        raise ParameterError(f"paths need at least two vertices, got {n_per_path}")
    if lifetime < n_per_path:
        raise ParameterError(
            f"lifetime {lifetime} cannot fit {n_per_path - 1} increasing labels"
        )
    if not 0.0 <= share_prob <= 1.0:
        raise ParameterError(f"share_prob must be a probability, got {share_prob}")
    rng = random.Random(seed)
    counter = 0
    pool: list[str] = []
    paths = []
    for pid in range(k):
        labels = tuple(sorted(rng.sample(range(lifetime + 1), n_per_path - 1)))
        verts: list[str] = ["s"] if pid == 0 else []
        while len(verts) < n_per_path:
            v: str | None = None
            if pid > 0 and pool and rng.random() < share_prob:
                v = rng.choice(pool)
                if v in verts:
                    v = None  # a path may not revisit a vertex
            if v is None:
                v = f"v{counter}"
                counter += 1
            verts.append(v)
        paths.append(BasePath(pid, tuple(verts), labels))
        pool.extend(x for x in verts if x != "s" and x not in pool)
    graph = TemporalKPathGraph(k, tuple(paths), "s", 0)
    assert not validate(graph)
    return graph


class DelayGadget(NamedTuple):
    graph: TemporalKPathGraph
    budget: int
    source: str
    mcis: McisInstance
    omega: int


def _top(color: str, i: int) -> str:
    return f"{color}:t{i}"


def _bot(color: str, i: int) -> str:
    return f"{color}:b{i}"


def _edge_vertex(edge: frozenset[str]) -> str:
    u, v = sorted(edge)
    return f"e:{u}:{v}"


def gen_mcis_delay_gadget(
    mcis: McisInstance, omega: int | None = None
) -> DelayGadget:
    """Compile an MCIS instance into a delay-budget reachability question.

    Per color with n nodes: a spine path of top/bottom pairs walked forward
    (pairs 1..n) and one walked backward (pairs n-1..0). Pair edges carry
    hugely negative labels, so a delay on exactly one pair is needed to
    board each spine; boarding at pair d opens the suffix, and the two
    spines together then cover everything except what sits strictly at d.
    Each MCIS edge becomes a vertex spliced into the gaps next to both
    endpoints' pairs, reachable unless both endpoints were the boarding
    choice, that is unless the choices fail independence. The budget allows
    one boarding delay per spine and nothing more.

    A one-node color's spines have no gaps, and its node is always the
    choice. An edge joining two such nodes therefore has no gap to go into,
    yet always fails independence, so its vertex heads a path of its own
    instead (then a tail vertex): no edge enters it, no delay reaches it,
    and the gadget is never covered.

    omega must be at least 1 + sum over colors c of pos(t_n) + pos(t_(n-1)),
    pos being a top's position on the spine (path 0) and n the count of c's
    nodes; by default it is the larger of that and N**4, N the node count.
    Boarding c at pair d costs (n - d) * omega + pos(t_d) forward and
    (d - 1) * omega + pos(t_(d-1)) backward, so the boarding of every choice
    of one node per color fits the budget iff omega is at least that bound.
    Then no gap holds omega - 1 vertices either, so the labels rise along
    each path.
    """
    _check_mcis(mcis)
    spine = ["s"]
    for name, nodes in mcis.colors:
        spine.extend(_top(name, i) for i in range(len(nodes) + 1))
    # t_n and t_(n-1) are neighbors on the spine
    least = 1 + sum(2 * spine.index(_top(name, len(nodes))) - 1 for name, nodes in mcis.colors)
    if omega is None:
        omega = max(mcis.node_count() ** 4, least)
    elif omega < least:
        raise ParameterError(f"omega={omega} is too small for this instance; need >= {least}")

    index: dict[str, tuple[str, int, int]] = {}  # node -> (color, 1-based pos, n)
    for name, nodes in mcis.colors:
        for i, node in enumerate(nodes, start=1):
            index[node] = (name, i, len(nodes))
    fwd_gap: dict[tuple[str, int], list[str]] = {}
    bwd_gap: dict[tuple[str, int], list[str]] = {}
    stranded: list[str] = []  # edges between two one-node colors
    for edge in sorted(mcis.edges, key=sorted):
        ev = _edge_vertex(edge)
        if all(index[node][2] == 1 for node in edge):
            stranded.append(ev)
        for node in sorted(edge):
            color, i, n = index[node]
            if i >= 2:
                fwd_gap.setdefault((color, i), []).append(ev)
            if i <= n - 1:
                bwd_gap.setdefault((color, i), []).append(ev)

    paths = [
        BasePath(0, tuple(spine), tuple(range(len(spine) - 1)))
    ]

    for name, nodes in mcis.colors:
        n = len(nodes)
        verts = [_top(name, 1), _bot(name, 1)]
        labels = [-(n - 1) * omega]
        for i in range(2, n + 1):
            for ev in fwd_gap.get((name, i), ()):
                verts.append(ev)
                labels.append(labels[-1] + 1)
            verts.append(_top(name, i))
            labels.append(labels[-1] + 1)
            verts.append(_bot(name, i))
            labels.append(-(n - i) * omega)
        paths.append(BasePath(len(paths), tuple(verts), tuple(labels)))

        verts = [_top(name, n - 1), _bot(name, n - 1)]
        labels = [-(n - 1) * omega]
        for i in range(n - 1, 0, -1):
            for ev in bwd_gap.get((name, i), ()):
                verts.append(ev)
                labels.append(labels[-1] + 1)
            verts.append(_top(name, i - 1))
            labels.append(labels[-1] + 1)
            verts.append(_bot(name, i - 1))
            labels.append(-(i - 1) * omega)
        paths.append(BasePath(len(paths), tuple(verts), tuple(labels)))
    for ev in stranded:
        paths.append(BasePath(len(paths), (ev, f"{ev}:tail"), (0,)))

    graph = TemporalKPathGraph(len(paths), tuple(paths), "s", 0)
    assert not validate(graph)
    budget = sum((len(nodes) - 1) * omega for _, nodes in mcis.colors) + omega - 1
    return DelayGadget(graph, budget, "s", mcis, omega)


def ops_from_mcis_witness(
    gadget: DelayGadget, assignment: Mapping[str, str]
) -> tuple[ShiftOperation, ...]:
    """Boarding delays for one chosen node per color.

    Chosen index d boards the forward spine at pair d and the backward
    spine at pair d-1, each delayed to just after the spine top's label on
    the source path. For a colorful independent set this reaches the whole
    gadget within budget.
    """
    mcis = gadget.mcis
    if set(assignment) != {name for name, _ in mcis.colors}:
        raise InvalidInstanceError("assignment must name every color exactly once")
    spine = gadget.graph.paths[0]
    ops = []
    for ci, (name, nodes) in enumerate(mcis.colors):
        node = assignment[name]
        if node not in nodes:
            raise InvalidInstanceError(f"{node!r} is not a {name!r} node")
        d = nodes.index(node) + 1
        for path, idx in (
            (gadget.graph.paths[1 + 2 * ci], d),
            (gadget.graph.paths[2 + 2 * ci], d - 1),
        ):
            t = _top(name, idx)
            target = spine.labels[spine.find(t) - 1] + 1
            pos = path.find(t)
            ops.append(ShiftOperation(path.path_id, pos, target - path.labels[pos]))
    return tuple(ops)
