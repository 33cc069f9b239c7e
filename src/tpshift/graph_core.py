"""Temporal k-path graphs: shifting with propagation, slack, and reachability.

A graph is a multiset union of base-paths. Each base-path is a simple vertex
sequence whose edges carry strictly increasing integer labels. Shifting one
edge's label propagates along its base-path: a delay pushes later edges
forward, an advance pulls earlier edges back, and slack between edges absorbs
the push. Only the shifted edge's |delta| is charged; propagation is free.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

Vertex = str

NEG_INF = float("-inf")


class AddressingError(ValueError):
    """A path, edge, or vertex reference does not exist in the graph."""


class OrderingError(ValueError):
    """Vertices supplied in an order that contradicts their path order."""


class ValidityError(ValueError):
    """A switch structure violates its contract."""


class ParseError(ValueError):
    """Malformed instance text."""


class ParameterError(ValueError):
    """A parameter outside its documented domain."""


class InvalidInstanceError(ValueError):
    """The instance violates invariants required by the caller."""


class ResourceLimitError(RuntimeError):
    """A configured work limit was exceeded.

    The message names the bound that was hit.
    """


@dataclass(frozen=True)
class BasePath:
    """One base-path: vertices v0..vm and labels[i] for edge vi -> vi+1."""

    path_id: int
    vertices: tuple[Vertex, ...]
    labels: tuple[int, ...]

    def find(self, v: Vertex) -> int | None:
        """Position of v on this path, or None if absent."""
        try:
            return self.vertices.index(v)
        except ValueError:
            return None

    def edge_count(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TemporalKPathGraph:
    k: int
    paths: tuple[BasePath, ...]
    source: Vertex
    source_path_id: int

    def path(self, path_id: int) -> BasePath:
        if not 0 <= path_id < len(self.paths):
            raise AddressingError(f"no path {path_id}")
        return self.paths[path_id]

    @property
    def source_path(self) -> BasePath:
        return self.path(self.source_path_id)

    def vertices(self) -> set[Vertex]:
        out: set[Vertex] = set()
        for p in self.paths:
            out.update(p.vertices)
        return out

    def total_edges(self) -> int:
        return sum(p.edge_count() for p in self.paths)


@dataclass(frozen=True)
class ShiftOperation:
    """Shift one edge's label by delta. delta > 0 delays, delta < 0 advances."""

    path_id: int
    edge_index: int
    delta: int

    @property
    def cost(self) -> int:
        return abs(self.delta)


class Mode(enum.Enum):
    DELAY = "delay"
    ADVANCE = "advance"
    SHIFT = "shift"

    def allows(self, delta: int) -> bool:
        if delta > 0:
            return self is not Mode.ADVANCE
        if delta < 0:
            return self is not Mode.DELAY
        return True


def validate(graph: TemporalKPathGraph) -> list[str]:
    """Check graph invariants. Returns a list of violations, empty if fine.

    Violations are data rather than exceptions; each names the path, index,
    and reason. The source is only required to lie on its declared path (a
    dedicated single-occurrence source path is a normalization property, not
    a structural one).
    """
    out: list[str] = []
    if graph.k != len(graph.paths):
        out.append(f"k is {graph.k} but there are {len(graph.paths)} paths")
    for pos, p in enumerate(graph.paths):
        tag = f"path {p.path_id}"
        if p.path_id != pos:
            out.append(f"{tag}: stored at index {pos}")
        if len(p.vertices) < 2:
            out.append(f"{tag}: fewer than two vertices")
        if len(p.labels) != len(p.vertices) - 1:
            out.append(
                f"{tag}: {len(p.labels)} labels for {len(p.vertices)} vertices"
            )
        seen: set[Vertex] = set()
        for i, v in enumerate(p.vertices):
            if v in seen:
                out.append(f"{tag}: vertex {v!r} repeated at index {i}")
            seen.add(v)
        for i in range(1, len(p.labels)):
            if p.labels[i] <= p.labels[i - 1]:
                out.append(f"{tag}: labels non-increasing at index {i}")
    if not 0 <= graph.source_path_id < len(graph.paths):
        out.append(f"source path id {graph.source_path_id} out of range")
    elif graph.paths[graph.source_path_id].find(graph.source) is None:
        out.append(f"source {graph.source!r} not on path {graph.source_path_id}")
    return out


def apply_shift(graph: TemporalKPathGraph, op: ShiftOperation) -> TemporalKPathGraph:
    """Shift one edge and propagate along its base-path: apply_sequence of
    the one op (shift_labels gives the rule)."""
    return apply_sequence(graph, (op,))[0]


def shift_labels(labels: tuple[int, ...], edge_index: int, delta: int) -> tuple[int, ...]:
    """One path's labels after one shift and its propagation.

    The targeted label becomes t + delta. The d-th edge after it is floored
    at t + delta + d, the d-th edge before it is capped at t + delta - d.
    Both clauses are always applied; the one on the wrong side of a given
    sign is a no-op because labels are at least one apart.
    """
    base = labels[edge_index] + delta
    out = list(labels)
    out[edge_index] = base
    for j in range(edge_index + 1, len(out)):
        out[j] = max(out[j], base + (j - edge_index))
    for j in range(edge_index - 1, -1, -1):
        out[j] = min(out[j], base - (edge_index - j))
    return tuple(out)


def _labels_after(
    graph: TemporalKPathGraph, ops: Iterable[ShiftOperation]
) -> list[tuple[int, ...]]:
    """Every path's labels after ops, left to right, each by shift_labels.

    The one replay of ops: raises AddressingError at the first op whose path
    or edge the graph lacks.
    """
    labels = [path.labels for path in graph.paths]
    for op in ops:
        if not 0 <= op.path_id < len(labels):
            raise AddressingError(f"no path {op.path_id}")
        if not 0 <= op.edge_index < len(labels[op.path_id]):
            raise AddressingError(f"path {op.path_id} has no edge {op.edge_index}")
        labels[op.path_id] = shift_labels(labels[op.path_id], op.edge_index, op.delta)
    return labels


def apply_sequence(
    graph: TemporalKPathGraph, ops: tuple[ShiftOperation, ...] | list[ShiftOperation]
) -> tuple[TemporalKPathGraph, int]:
    """Apply ops left to right. Returns (graph, total cost).

    Order-sensitive by design: a delay followed by an advance need not equal
    the reverse order. One graph is built per replay: with no ops it is the
    graph itself, else only the paths whose labels changed are rebuilt.
    """
    if not ops:
        return graph, 0
    paths = tuple(
        path if labels == path.labels else replace(path, labels=labels)
        for path, labels in zip(graph.paths, _labels_after(graph, ops))
    )
    return replace(graph, paths=paths), sum(op.cost for op in ops)


def slack(path: BasePath, u: Vertex, v: Vertex) -> int:
    """Cumulative waiting time strictly between u and v along the path.

    Sums label gaps minus one over consecutive edges from the edge leaving u
    through the edge entering v. slack(u, u) is 0.
    """
    i = path.find(u)
    j = path.find(v)
    if i is None:
        raise OrderingError(f"{u!r} not on path {path.path_id}")
    if j is None:
        raise OrderingError(f"{v!r} not on path {path.path_id}")
    if j < i:
        raise OrderingError(f"{v!r} precedes {u!r} on path {path.path_id}")
    return sum(path.labels[e + 1] - path.labels[e] - 1 for e in range(i, j - 1))


def edge_gap(path: BasePath, e1: int, e2: int) -> int:
    """Total slack between edges e1 and e2 (e1 <= e2) of one path."""
    return path.labels[e2] - path.labels[e1] - (e2 - e1)


def reach_set(graph: TemporalKPathGraph, source: Vertex) -> set[Vertex]:
    """All vertices reachable from source along strictly increasing labels."""
    if all(p.find(source) is None for p in graph.paths):
        raise AddressingError(f"unknown source {source!r}")
    return reach_with_labels(graph.paths, [p.labels for p in graph.paths], source)


def reach_with_labels(
    paths: Sequence[BasePath], labels: Sequence[Sequence[int]], source: Vertex
) -> set[Vertex]:
    """reach_set with labels[i] in place of paths[i].labels; source is not checked."""
    edges = [
        (t, p.vertices[i], p.vertices[i + 1])
        for p, path_labels in zip(paths, labels)
        for i, t in enumerate(path_labels)
    ]
    edges.sort(key=lambda e: e[0])
    # Single ascending pass is safe: same-label edges cannot chain, and later
    # edges never lower an arrival time.
    arrival: dict[Vertex, float] = {source: NEG_INF}
    for t, u, v in edges:
        at_u = arrival.get(u)
        if at_u is not None and at_u < t and v not in arrival:
            arrival[v] = t
    return set(arrival)


def static_reach(paths: Sequence[BasePath], source: Vertex) -> set[Vertex]:
    """Vertices reachable from source along path edges, labels ignored.

    Every temporal walk is a walk in this digraph, so no labeling of the
    paths lets source reach more than this set.
    """
    successors: dict[Vertex, list[Vertex]] = {}
    for p in paths:
        for u, v in zip(p.vertices, p.vertices[1:]):
            successors.setdefault(u, []).append(v)
    seen = {source}
    stack = [source]
    while stack:
        for v in successors.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_normalized(graph: TemporalKPathGraph, s: Vertex | None = None) -> bool:
    """True iff s (default: graph.source) heads its path and occurs nowhere else."""
    if s is None:
        s = graph.source
    occurrences = [(p.path_id, pos) for p in graph.paths if (pos := p.find(s)) is not None]
    return (
        len(occurrences) == 1
        and occurrences[0][1] == 0
        and occurrences[0][0] == graph.source_path_id
        and graph.source == s
    )


def normalize_source(
    graph: TemporalKPathGraph, s: Vertex, budget_hint: int = 0
) -> TemporalKPathGraph:
    """Give s a dedicated two-vertex source path unless it already has one.

    When s occurs mid-path or on several paths it is renamed to a fresh
    primed name and a new path (s -> s') is appended. Its single label sits
    budget_hint + 1 below the smallest label in the graph, so no affordable
    advance can make anything run before it.
    """
    occurrences = [(p.path_id, pos) for p in graph.paths if (pos := p.find(s)) is not None]
    if not occurrences:
        raise AddressingError(f"unknown source {s!r}")
    if len(occurrences) == 1 and occurrences[0][1] == 0:
        pid = occurrences[0][0]
        if graph.source == s and graph.source_path_id == pid:
            return graph
        return replace(graph, source=s, source_path_id=pid)
    taken = graph.vertices()
    fresh = s + "'"
    while fresh in taken:
        fresh += "'"
    paths = [
        replace(p, vertices=tuple(fresh if v == s else v for v in p.vertices))
        for p in graph.paths
    ]
    floor = min(t for p in graph.paths for t in p.labels) - budget_hint - 1
    paths.append(BasePath(len(paths), (s, fresh), (floor,)))
    return TemporalKPathGraph(graph.k + 1, tuple(paths), s, graph.k)


_ARROW = re.compile(r"^-(-?\d+)->$")


def parse_instance(text: str) -> TemporalKPathGraph:
    """Parse the line-oriented instance format.

    Syntax errors raise ParseError. Semantic problems (label order, repeated
    vertices and so on) are left to validate().
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "kpathgraph v1":
        raise ParseError("missing 'kpathgraph v1' header")
    k: int | None = None
    source: Vertex | None = None
    source_path_id = 0
    paths: dict[int, BasePath] = {}
    for ln in lines[1:]:
        fields = ln.split()
        if fields[0] == "k" and len(fields) == 2:
            k = _parse_int(fields[1], "k")
        elif fields[0] == "source" and len(fields) == 2:
            source = fields[1]
        elif fields[0] == "sourcepath" and len(fields) == 2:
            source_path_id = _parse_int(fields[1], "sourcepath")
        elif fields[0] == "path":
            pid, path = _parse_path_line(fields)
            if pid in paths:
                raise ParseError(f"duplicate path {pid}")
            paths[pid] = path
        else:
            raise ParseError(f"unrecognized line: {ln!r}")
    if k is None:
        raise ParseError("missing k line")
    if source is None:
        raise ParseError("missing source line")
    if k > len(paths) or sorted(paths) != list(range(k)):  # k may be huge
        raise ParseError(f"expected paths 0..{k - 1}, got {sorted(paths)}")
    return TemporalKPathGraph(
        k, tuple(paths[i] for i in range(k)), source, source_path_id
    )


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad integer for {what}: {token!r}") from None


def _parse_path_line(fields: list[str]) -> tuple[int, BasePath]:
    if len(fields) < 4 or fields[2] != ":":
        raise ParseError(f"malformed path line: {' '.join(fields)!r}")
    pid = _parse_int(fields[1], "path id")
    tokens = fields[3:]
    if len(tokens) % 2 == 0:
        raise ParseError(f"path {pid}: tokens do not alternate vertex/arrow")
    vertices = [tokens[0]]
    labels = []
    for i in range(1, len(tokens), 2):
        m = _ARROW.match(tokens[i])
        if not m:
            raise ParseError(f"path {pid}: expected -<label>-> at {tokens[i]!r}")
        labels.append(_parse_int(m.group(1), f"path {pid} label"))
        vertices.append(tokens[i + 1])
    return pid, BasePath(pid, tuple(vertices), tuple(labels))


def write_instance(graph: TemporalKPathGraph) -> str:
    """Serialize to the text format. parse_instance inverts this exactly."""
    for p in graph.paths:
        for v in p.vertices:
            if not v or any(c.isspace() for c in v) or _ARROW.match(v):
                raise ParameterError(f"vertex name {v!r} is not serializable")
    out = ["kpathgraph v1", f"k {graph.k}", f"source {graph.source}"]
    if graph.source_path_id != 0:
        out.append(f"sourcepath {graph.source_path_id}")
    for p in graph.paths:
        parts = [p.vertices[0]]
        for i, t in enumerate(p.labels):
            parts.append(f"-{t}->")
            parts.append(p.vertices[i + 1])
        out.append(f"path {p.path_id} : " + " ".join(parts))
    return "\n".join(out) + "\n"
