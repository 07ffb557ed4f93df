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
from itertools import chain

import numpy as np

ROLES = ("entry", "intermediate", "target")

DEFAULT_PATH_LIMIT = 1_000_000

PAIR_CHUNK = 1 << 16  # prefix-suffix pairs that join_added_paths tests in one step


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
        for endpoint in (u, v):
            if not isinstance(endpoint, int) or isinstance(endpoint, bool):
                raise GraphError(f"edge ({u!r}, {v!r}) endpoint {endpoint!r} is not an integer")
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


@dataclass(frozen=True, eq=False)
class AddedPaths:
    """The attack paths that each edge of a list adds to a graph, as padded
    arrays: row i is one new path, the rows of edge k come after those of
    the edges before it, and each edge's rows are in the canonical order.

    ``counts[k]`` is the number of paths edge k adds. ``nodes[i]`` holds
    path i's nodes as positions in ``sorted(graph.node_ids)``, and
    ``steps[i]`` its edge ids, where the added edge is E =
    ``len(graph.edges)``; both are padded with -1. ``values[i]`` holds the
    values of the nodes those edges enter, padded with 0.0. ``base_rank[i]``
    is the number of base paths before path i in the canonical order.
    """

    counts: np.ndarray
    nodes: np.ndarray
    steps: np.ndarray
    values: np.ndarray
    base_rank: np.ndarray


def join_added_paths(graph: AttackGraph, base_paths, edges) -> AddedPaths:
    """The attack paths that ``augment(graph, (u, v))`` has and ``graph``
    lacks, for each edge (u, v) in ``edges``. ``base_paths`` must be
    ``enumerate_attack_paths(graph)``; any other path set, such as that of a
    game built with ``entries=``, raises :class:`GraphError`.

    A path of an augmented graph either avoids the new edge (u, v), and is
    then a base path, or takes it once: a simple entry-to-u prefix, then
    (u, v), then a simple v-to-target suffix that shares no node with the
    prefix. One search forward from each entry and one backward from each
    target record every simple walk; the forward walks that end at u are
    u's prefixes, those that end at a target are the base paths, and the
    backward walks that end at v are v's suffixes. The walks are padded
    arrays with a node-membership bit mask per walk. Every candidate's
    prefix-suffix pairs are formed by index arithmetic, ``PAIR_CHUNK`` at a
    time, and a pair is kept when the AND of its two masks is empty. One
    gather joins the kept pairs, and one sort of packed keys puts them in
    the canonical order and ranks them among the base paths.

    Edges are checked in list order, as one at a time would be: an invalid
    edge raises :class:`GraphError`, and an edge whose augmented graph has
    more than ``DEFAULT_PATH_LIMIT`` paths raises
    :class:`EnumerationLimitError`, exactly when full enumeration of that
    graph would.
    """
    order = sorted(graph.node_ids)
    position = {node: i for i, node in enumerate(order)}
    n_edges, limit = len(graph.edges), DEFAULT_PATH_LIMIT

    def walks(adjacency, roots):
        dense = [tuple((position[nxt], eid) for nxt, eid in adjacency[node]) for node in order]
        return [walk for root in roots for walk in _simple_walks(dense, position[root], range(len(order)))]

    forward, backward = walks(graph.successors, graph.entry_ids), walks(graph.predecessors, graph.target_ids)
    targets = {position[node] for node in graph.target_ids}
    base = sorted((walk for walk in forward if walk[0][-1] in targets), key=lambda walk: _canonical_order(walk[0]))
    if len(base) > limit:
        raise EnumerationLimitError(f"path count exceeds limit {limit}")
    if [(tuple(map(position.get, path.nodes)), path.edges) for path in base_paths] != base:
        raise GraphError("base paths must be every attack path of the graph; a game built with entries= has fewer")
    # the edges before an invalid one are joined: one may exceed the path limit
    edges = list(edges)
    n_valid, invalid = _first_invalid_edge(graph, edges)
    edges = edges[:n_valid]

    tails, heads = np.array([(position[u], position[v]) for u, v in edges], dtype=np.intp).reshape(-1, 2).T
    # step j of a walk is the edge that leaves its node j: prefixes run
    # entry -> u and leave u by the new edge E, suffixes run v -> target and
    # leave the target by the pad -1
    pre_walks, prefixes = _walk_table(forward, len(order), lambda nodes, eids: (nodes, eids + (n_edges,)))
    # suffix rows get the longest prefix's width to spare, so a joined row
    # can read past its suffix's end into pads
    suf_walks, suffixes = _walk_table(
        backward, len(order), lambda nodes, eids: (nodes[::-1], eids[::-1] + (-1,)), spare=prefixes[0].shape[1],
    )
    pre_masks, suf_masks = _node_masks(prefixes[0], len(order)), _node_masks(suffixes[0], len(order))

    pre_first, n_pre = pre_walks[:, tails]
    suf_first, n_suf = suf_walks[:, heads]
    sizes = n_pre * n_suf
    offsets = np.cumsum(sizes) - sizes
    counts = np.zeros(len(edges), dtype=np.intp)
    kept = [np.zeros((3, 0), dtype=np.intp)]
    total = int(sizes.sum())
    for start in range(0, total, PAIR_CHUNK):
        flat = np.arange(start, min(start + PAIR_CHUNK, total))
        k = np.searchsorted(offsets, flat, side="right") - 1
        quotient, remainder = np.divmod(flat - offsets[k], n_suf[k])
        pairs = np.stack([k, pre_first[k] + quotient, suf_first[k] + remainder])
        apart = ~(np.take(pre_masks, pairs[1], axis=0) & np.take(suf_masks, pairs[2], axis=0)).any(axis=1)
        kept.append(pairs[:, apart])
        counts += np.bincount(kept[-1][0], minlength=len(edges))
        if len(base) + int(counts.max()) > limit:
            raise EnumerationLimitError(f"path count exceeds limit {limit}")
    if invalid is not None:
        raise invalid
    candidate, pre, suf = np.hstack(kept)

    nodes, steps = _joined(prefixes, pre, suffixes, suf)
    base_nodes = _padded([len(nodes) for nodes, _ in base], chain.from_iterable(nodes for nodes, _ in base), -1)
    ranks, perm = _canonical_ranks(base_nodes, nodes, candidate, len(order))
    # a suffix's last step is the pad, so the joined steps have one column to spare
    nodes, steps = nodes[perm], steps[perm, :-1]
    node_values = np.array([graph.values[node] for node in order] + [0.0])
    return AddedPaths(counts=counts, nodes=nodes, steps=steps, values=node_values[nodes[:, 1:]], base_rank=ranks)


def _walk_table(walks, n_nodes, orient, spare=0):
    """The walks of :func:`_simple_walks`, as (node sequence, edge
    sequence) over node positions below ``n_nodes``, grouped by the node
    they end at and put in path order by ``orient(nodes, edges)``, which
    returns as many steps as nodes. Returns a (2, ``n_nodes``) array whose
    column ``node`` is the (first walk, walk count) of the walks that end
    there, and the walks as a table: their nodes and steps padded with -1,
    each ``spare`` columns wider than the longest walk, and their lengths.
    """
    count = np.bincount([nodes[-1] for nodes, _ in walks], minlength=n_nodes)
    walks = [orient(nodes, eids) for nodes, eids in sorted(walks, key=lambda walk: walk[0][-1])]
    lengths = [len(nodes) for nodes, _ in walks]
    nodes = _padded(lengths, chain.from_iterable(nodes for nodes, _ in walks), -1, spare)
    steps = _padded(lengths, chain.from_iterable(eids for _, eids in walks), -1, spare)
    return np.array([np.cumsum(count) - count, count], dtype=np.intp), (nodes, steps, np.array(lengths, dtype=np.intp))


def _padded(lengths, entries, pad, spare=0):
    """The integer sequences of the given ``lengths``, whose entries
    ``entries`` yields in turn, as the rows of one array padded at the end
    with ``pad``, ``spare`` columns wider than the longest sequence."""
    lengths = np.array(lengths, dtype=np.intp)
    filled = np.arange(int(lengths.max(initial=0)) + spare) < lengths[:, None]
    out = np.full(filled.shape, pad, dtype=np.intp)
    out[filled] = np.fromiter(entries, dtype=np.intp, count=int(lengths.sum()))
    return out


def _node_masks(nodes, n_nodes):
    """The nodes of each row of the -1-padded ``nodes`` as a bit mask, one
    bit per node position, in (rows, ceil(n_nodes / 64)) words."""
    walked = nodes >= 0
    masks = np.zeros((len(nodes), -(-n_nodes // 64)), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (nodes[walked] % 64).astype(np.uint64))
    np.bitwise_or.at(masks, (np.nonzero(walked)[0], nodes[walked] // 64), bits)
    return masks


def _joined(left, left_rows, right, right_rows):
    """The (nodes, steps) rows that join walk ``left_rows[i]`` of the table
    ``left`` and walk ``right_rows[i]`` of ``right`` (tables of
    :func:`_walk_table`), padded with -1: one gather from both tables per
    array. A joined row reads on past its right walk's end into that walk's
    pads, which ``right``'s spare columns hold."""
    (left_nodes, left_steps, left_len), (right_nodes, right_steps, right_len) = left, right
    split = left_len[left_rows][:, None]
    # a joined row has at least one node from each walk
    column = np.arange(int((left_len[left_rows] + right_len[right_rows]).max(initial=2)))
    source = column + np.where(
        column < split,
        left_rows[:, None] * left_nodes.shape[1],
        left_nodes.size + right_rows[:, None] * right_nodes.shape[1] - split,
    )
    return tuple(
        np.concatenate([left_table.ravel(), right_table.ravel()])[source]
        for left_table, right_table in ((left_nodes, right_nodes), (left_steps, right_steps))
    )


def _canonical_ranks(base_nodes, nodes, candidate, n_nodes):
    """Sort the new paths, given as -1-padded node-position rows ``nodes``,
    by ``candidate`` and then the canonical order, and count the base
    paths, given the same way, before each: returns (those counts, the
    sorting permutation).

    Positions follow node id order, and -1 sorts before every node, so the
    padded rows of (entry, target, the other nodes) sort as the canonical
    key does: one sort key per column, cast to the smallest integer type
    that holds -1 and every position below ``n_nodes``, which sorts
    fastest. No new
    path has a base path's node sequence, since it walks the one edge the
    base graph lacks, so one sort of the base and new rows together ranks
    each new path among the base paths.
    """
    n_base = len(base_nodes)
    rows = np.full((n_base + len(nodes), max(base_nodes.shape[1], nodes.shape[1])), -1, dtype=np.intp)
    rows[:n_base, : base_nodes.shape[1]] = base_nodes
    rows[n_base:, : nodes.shape[1]] = nodes
    targets = rows[np.arange(len(rows)), (rows >= 0).sum(axis=1) - 1]
    rows = np.column_stack([rows[:, 0], targets, rows[:, 1:]])
    order = np.lexsort(rows.T[::-1].astype(np.min_scalar_type(-n_nodes)))
    is_base = order < n_base
    before = np.cumsum(is_base) - is_base
    new_order = order[~is_base] - n_base
    by_candidate = np.argsort(candidate[new_order], kind="stable")
    return before[~is_base][by_candidate], new_order[by_candidate]


def _simple_walks(neighbours, start: int, ends: set[int] | range, found=None, *, max_hops=None, limit=None):
    """Every simple walk from ``start`` along ``neighbours`` (node -> pairs
    of (next node, edge id)) that stops at a node of ``ends``, as (node
    sequence, edge sequence) in walk order, appended to ``found`` (a new
    list by default), which is returned. The one depth-first search of the
    package: attack paths are its forward walks from entries to targets,
    and :func:`join_added_paths` joins its forward walks from entries to
    its backward walks from targets.

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
    _, invalid = _first_invalid_edge(graph, [(u, v)])
    if invalid is not None:
        raise invalid
    return AttackGraph(nodes=graph.nodes, edges=graph.edges + ((u, v),))


def _first_invalid_edge(graph: AttackGraph, edges):
    """The index of the first (u, v) in ``edges`` that cannot be added to
    ``graph`` as a new edge, and the :class:`GraphError` saying why; or
    (len(edges), None) when every edge can."""
    node_ids, present = graph.node_ids, graph.edge_index
    for k, (u, v) in enumerate(edges):
        if u in node_ids and v in node_ids and u != v and (u, v) not in present:
            continue
        for endpoint in (u, v):
            if endpoint not in node_ids:
                return k, GraphError(f"edge ({u}, {v}) references unknown node {endpoint}")
        if u == v:
            return k, GraphError(f"self-loop edge ({u}, {v})")
        return k, GraphError(f"edge ({u}, {v}) already present")
    return len(edges), None
