"""Attack-graph data model: validation, path enumeration, candidate edges.

Nodes are vulnerable hosts, directed edges are exploits that let an attacker
move from a compromised host to the next one. Entry nodes are where attacks
start, target nodes are the assets the attacker is after. An attack path is a
simple directed path from an entry node to a target node.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

ROLES = ("entry", "intermediate", "target")

DEFAULT_PATH_LIMIT = 1_000_000


class GraphError(ValueError):
    """Invalid graph document or graph operation."""


class EnumerationLimitError(RuntimeError):
    """An enumeration exceeded its fixed cap; never truncated silently."""


@dataclass(frozen=True)
class NodeRecord:
    id: int
    value: float
    role: str


@dataclass(frozen=True)
class AttackPath:
    """Simple entry-to-target path; ``edges`` holds the edge ids traversed."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def hops(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ZeroDayCandidate:
    """A non-edge (u, v) considered as a hypothetical new vulnerability."""

    edge: tuple[int, int]
    status: str  # "analyzed" | "excluded" | "dominant"
    reason: str = ""


@dataclass(frozen=True)
class AttackGraph:
    """Directed attack graph with valued nodes and stable integer edge ids.

    Edge ids equal list position, so augmenting the graph with a new edge
    never renumbers existing edges.
    """

    nodes: tuple[NodeRecord, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def node_ids(self) -> frozenset[int]:
        return frozenset(n.id for n in self.nodes)

    @cached_property
    def entry_ids(self) -> tuple[int, ...]:
        return tuple(sorted(n.id for n in self.nodes if n.role == "entry"))

    @cached_property
    def target_ids(self) -> tuple[int, ...]:
        return tuple(sorted(n.id for n in self.nodes if n.role == "target"))

    @cached_property
    def values(self) -> dict[int, float]:
        return {n.id: n.value for n in self.nodes}

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {edge: i for i, edge in enumerate(self.edges)}

    @cached_property
    def successors(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Map node -> tuple of (successor, edge id), successor-sorted."""
        adj: dict[int, list[tuple[int, int]]] = {n.id: [] for n in self.nodes}
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
        return {u: tuple(sorted(out)) for u, out in adj.items()}

    @cached_property
    def predecessors(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Map node -> tuple of (predecessor, edge id), predecessor-sorted."""
        adj: dict[int, list[tuple[int, int]]] = {n.id: [] for n in self.nodes}
        for eid, (u, v) in enumerate(self.edges):
            adj[v].append((u, eid))
        return {v: tuple(sorted(into)) for v, into in adj.items()}

    def value(self, node_id: int) -> float:
        return self.values[node_id]


def load_graph(source) -> AttackGraph:
    """Parse and validate a graph document (JSON text, bytes, or dict).

    Document shape::

        {"nodes": [{"id": 1, "value": 0.0, "role": "entry"}, ...],
         "edges": [[1, 2], [2, 3]]}

    Edge order defines edge ids. Raises :class:`GraphError` with a message
    naming the offending element on any validation failure.
    """
    if isinstance(source, (str, bytes)):
        try:
            document = json.loads(source)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid graph document: {exc}") from exc
    else:
        document = source
    if not isinstance(document, dict):
        raise GraphError("graph document must be a JSON object")
    for key in ("nodes", "edges"):
        if key not in document:
            raise GraphError(f"graph document missing '{key}'")
        if not isinstance(document[key], list):
            raise GraphError(f"graph document '{key}' must be a list, got {document[key]!r}")

    nodes = []
    for raw in document["nodes"]:
        if not isinstance(raw, dict) or not {"id", "value", "role"} <= set(raw):
            raise GraphError(f"malformed node record {raw!r}")
        nodes.append(NodeRecord(id=raw["id"], value=raw["value"], role=raw["role"]))
    edges = []
    for raw in document["edges"]:
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise GraphError(f"malformed edge {raw!r}, expected a pair")
        edges.append((raw[0], raw[1]))
    return graph_from_parts(nodes, edges)


def graph_from_parts(nodes, edges) -> AttackGraph:
    """Build a validated graph from node records and (u, v) edge pairs."""
    graph = AttackGraph(nodes=tuple(nodes), edges=tuple(tuple(e) for e in edges))
    _validate(graph)
    return graph


def graph_to_document(graph: AttackGraph) -> dict:
    """Inverse of :func:`load_graph`."""
    return {
        "nodes": [{"id": n.id, "value": n.value, "role": n.role} for n in graph.nodes],
        "edges": [list(edge) for edge in graph.edges],
    }


def _validate(graph: AttackGraph) -> None:
    seen: set[int] = set()
    for node in graph.nodes:
        if not isinstance(node.id, int) or isinstance(node.id, bool):
            raise GraphError(f"node id {node.id!r} is not an integer")
        if node.id < 0:
            raise GraphError(f"node id {node.id} is negative")
        if node.id in seen:
            raise GraphError(f"duplicate node id {node.id}")
        seen.add(node.id)
        if node.role not in ROLES:
            raise GraphError(f"unknown role {node.role!r} for node {node.id}")
        if not is_finite_number(node.value) or node.value < 0:
            raise GraphError(f"negative, non-finite or non-numeric value {node.value!r} for node {node.id}")
    if not graph.entry_ids:
        raise GraphError("no entry nodes")
    if not graph.target_ids:
        raise GraphError("no target nodes")

    seen_edges: set[tuple[int, int]] = set()
    for u, v in graph.edges:
        if u not in graph.node_ids:
            raise GraphError(f"edge ({u}, {v}) references unknown node {u}")
        if v not in graph.node_ids:
            raise GraphError(f"edge ({u}, {v}) references unknown node {v}")
        if u == v:
            raise GraphError(f"self-loop edge ({u}, {v})")
        if (u, v) in seen_edges:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen_edges.add((u, v))

    if _reachable(graph.successors, graph.entry_ids).isdisjoint(graph.target_ids):
        raise GraphError("no path from any entry node to any target node")


def is_finite_number(value) -> bool:
    """True for a finite int or float; bools and everything else are rejected."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _reachable(neighbours, sources) -> set[int]:
    """Nodes reachable from ``sources`` along ``neighbours`` (node -> pairs
    of (next node, edge id)), the sources included. Pass a graph's
    ``successors`` to search forward and its ``predecessors`` to search
    backward."""
    frontier = list(sources)
    seen = set(frontier)
    while frontier:
        node = frontier.pop()
        for nxt, _ in neighbours[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def enumerate_attack_paths(
    graph: AttackGraph,
    max_hops: int | None = None,
    *,
    entries=None,
) -> tuple[AttackPath, ...]:
    """All simple entry-to-target paths, deterministically ordered.

    Order is (entry id, target id, lexicographic node sequence). ``max_hops``
    bounds the edge count of a path; ``entries`` optionally restricts which
    entry nodes may start a path (used for compromised-entry sweeps). Raises
    :class:`EnumerationLimitError` past ``DEFAULT_PATH_LIMIT`` paths.
    """
    if max_hops is not None and max_hops < 1:
        raise GraphError(f"max_hops must be positive, got {max_hops}")
    start_nodes = graph.entry_ids
    if entries is not None:
        entry_set = set(graph.entry_ids)
        for e in entries:
            if e not in entry_set:
                raise GraphError(f"{e} is not an entry node")
        start_nodes = tuple(sorted(set(entries)))

    targets = set(graph.target_ids)
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for start in start_nodes:
        _simple_walks(graph.successors, start, targets, found, max_hops=max_hops, limit=DEFAULT_PATH_LIMIT)
    found.sort(key=lambda item: _canonical_order(item[0]))
    return tuple(AttackPath(nodes=n, edges=e) for n, e in found)


def _canonical_order(nodes: tuple[int, ...]):
    """Sort key of a path's node sequence: entry id, target id, then the sequence."""
    return (nodes[0], nodes[-1], nodes)


def added_paths(graph: AttackGraph, base_paths, edges) -> list[tuple[AttackPath, ...]]:
    """For each edge (u, v) in ``edges``, the attack paths that
    ``augment(graph, (u, v))`` has and ``graph`` lacks, in the canonical
    order. ``base_paths`` must be ``enumerate_attack_paths(graph)``; any
    other path set, such as that of a game built with ``entries=``, raises
    :class:`GraphError`.

    A path of an augmented graph either avoids the new edge (u, v), and is
    then a base path, or takes it once: a simple entry-to-u prefix, then
    (u, v), then a simple v-to-target suffix that shares no node with the
    prefix. Only those new paths are enumerated, from prefix and suffix
    tables that the edges of one call share. Raises
    :class:`EnumerationLimitError` exactly when full enumeration of one of
    the augmented graphs would, at ``DEFAULT_PATH_LIMIT`` paths.
    """
    if tuple(base_paths) != enumerate_attack_paths(graph):
        raise GraphError("base paths must be every attack path of the graph; a game built with entries= has fewer")
    entries, targets = set(graph.entry_ids), set(graph.target_ids)
    prefixes: dict[int, list] = {}
    suffixes: dict[int, list] = {}
    new_id = len(graph.edges)
    limit = DEFAULT_PATH_LIMIT
    out = []
    for u, v in edges:
        _check_new_edge(graph, u, v)
        if len(base_paths) > limit:
            raise EnumerationLimitError(f"path count exceeds limit {limit}")
        if u not in prefixes:
            prefixes[u] = [
                (set(nodes), nodes[::-1], eids[::-1])
                for nodes, eids in _simple_walks(graph.predecessors, u, entries)
            ]
        if v not in suffixes:
            suffixes[v] = _simple_walks(graph.successors, v, targets)
        new = []
        for on_prefix, pre_nodes, pre_edges in prefixes[u]:
            for suf_nodes, suf_edges in suffixes[v]:
                if on_prefix.isdisjoint(suf_nodes):
                    if len(base_paths) + len(new) >= limit:
                        raise EnumerationLimitError(f"path count exceeds limit {limit}")
                    new.append(AttackPath(nodes=pre_nodes + suf_nodes, edges=pre_edges + (new_id,) + suf_edges))
        new.sort(key=lambda p: _canonical_order(p.nodes))
        out.append(tuple(new))
    return out


def _simple_walks(neighbours, start: int, ends: set[int], found=None, *, max_hops=None, limit=None):
    """Every simple walk from ``start`` along ``neighbours`` (node -> pairs
    of (next node, edge id)) that stops at a node of ``ends``, as (node
    sequence, edge sequence) in walk order, appended to ``found`` (a new
    list by default), which is returned. The one depth-first search of the
    package: attack paths are its forward walks from entries to targets,
    and :func:`added_paths` joins its backward and forward walks.

    ``max_hops`` bounds a walk's edge count. With ``limit``, a walk that
    would make ``found`` longer than ``limit`` raises
    :class:`EnumerationLimitError` instead of being appended.
    """
    if found is None:
        found = []
    node_seq, edge_seq, on_walk = [start], [], {start}

    def extend(node: int):
        if node in ends:
            if limit is not None and len(found) >= limit:
                raise EnumerationLimitError(f"path count exceeds limit {limit}")
            found.append((tuple(node_seq), tuple(edge_seq)))
        if max_hops is not None and len(edge_seq) >= max_hops:
            return
        for nxt, eid in neighbours[node]:
            if nxt in on_walk:
                continue
            node_seq.append(nxt)
            edge_seq.append(eid)
            on_walk.add(nxt)
            extend(nxt)
            on_walk.remove(nxt)
            edge_seq.pop()
            node_seq.pop()

    extend(start)
    return found


def generate_zero_day_candidates(graph: AttackGraph) -> tuple[ZeroDayCandidate, ...]:
    """Classify every ordered non-edge (u, v) as a zero-day candidate.

    Exclusion rules: the head v is a dead end (cannot reach any target and is
    not itself a target), or the tail u is unreachable from every entry node.
    Direct entry-to-target edges are flagged dominant without game analysis.
    Everything else is analyzed. The three statuses partition the non-edges;
    output is ordered by (u, v).
    """
    reach_targets = _reachable(graph.predecessors, graph.target_ids)
    reach_entries = _reachable(graph.successors, graph.entry_ids)
    entries = set(graph.entry_ids)
    targets = set(graph.target_ids)

    out = []
    for u in sorted(graph.node_ids):
        for v in sorted(graph.node_ids):
            if u == v or (u, v) in graph.edge_index:
                continue
            if v not in reach_targets:
                out.append(ZeroDayCandidate((u, v), "excluded", "dead-end"))
            elif u not in reach_entries:
                out.append(ZeroDayCandidate((u, v), "excluded", "source unreachable"))
            elif u in entries and v in targets:
                out.append(ZeroDayCandidate((u, v), "dominant"))
            else:
                out.append(ZeroDayCandidate((u, v), "analyzed"))
    return tuple(out)


def augment(graph: AttackGraph, edge) -> AttackGraph:
    """Return a new graph with ``edge`` appended; the original is untouched.

    The new edge gets id ``len(graph.edges)``, preserving all existing ids.
    """
    u, v = edge
    _check_new_edge(graph, u, v)
    return AttackGraph(nodes=graph.nodes, edges=graph.edges + ((u, v),))


def _check_new_edge(graph: AttackGraph, u, v) -> None:
    for endpoint in (u, v):
        if endpoint not in graph.node_ids:
            raise GraphError(f"edge ({u}, {v}) references unknown node {endpoint}")
    if u == v:
        raise GraphError(f"self-loop edge ({u}, {v})")
    if (u, v) in graph.edge_index:
        raise GraphError(f"edge ({u}, {v}) already present")
