"""Zero-sum honeypot allocation game: action spaces, rewards, payoff matrix.

The defender picks a set of up to ``budget`` edges to trap with honeypots,
the attacker picks an attack path. Each non-entry node on the path pays the
defender ``cap * value`` if the edge entering it carries a honeypot and costs
``esc * value`` otherwise; the defender pays a fixed cost per deployed
honeypot and collects the attacker's per-hop movement cost. The game is
zero-sum: the attacker's reward is the exact negation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import chain, combinations

import numpy as np

from .graph import AttackGraph, AttackPath, EnumerationLimitError, enumerate_attack_paths, is_finite_number

DEFAULT_ACTION_LIMIT = 1_000_000


@dataclass(frozen=True)
class GameParams:
    """Scalar knobs of the reward function plus the honeypot budget."""

    cap: float = 10.0
    esc: float = 5.0
    honeypot_cost: float = 1.0
    attack_cost_per_hop: float = 1.0
    budget: int = 1
    terminate_on_capture: bool = False

    def __post_init__(self):
        for name in ("cap", "esc", "honeypot_cost", "attack_cost_per_hop"):
            value = getattr(self, name)
            if not is_finite_number(value) or value < 0:
                raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")
        if not isinstance(self.budget, int) or isinstance(self.budget, bool) or self.budget < 0:
            raise ValueError(f"budget must be a nonnegative integer, got {self.budget!r}")
        if not isinstance(self.terminate_on_capture, bool):
            raise ValueError(f"terminate_on_capture must be true or false, got {self.terminate_on_capture!r}")


def load_params(source) -> GameParams:
    """Parse a params document (JSON text, bytes, or dict)."""
    if isinstance(source, (str, bytes)):
        try:
            document = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid params document: {exc}") from exc
    else:
        document = source
    if not isinstance(document, dict):
        raise ValueError("params document must be a JSON object")
    unknown = set(document) - {field.name for field in fields(GameParams)}
    if unknown:
        raise ValueError(f"unknown params keys: {sorted(unknown)}")
    return GameParams(**document)


def params_to_document(params: GameParams) -> dict:
    return asdict(params)


@dataclass(eq=False)
class GameInstance:
    """Enumerated action spaces plus the dense defender payoff matrix.

    ``actions[i]`` is a sorted tuple of edge ids, ``paths[j]`` an attack
    path, and ``matrix[i, j]`` the defender reward for that profile. The
    attacker payoff matrix is ``-matrix``. ``columns`` holds the padded
    steps of the paths, which the matrix was scored from, for later scoring
    against the same paths. :func:`build_matrix` is the constructor.
    """

    graph: AttackGraph
    params: GameParams
    actions: tuple[tuple[int, ...], ...]
    paths: tuple[AttackPath, ...]
    matrix: np.ndarray
    columns: PathColumns


def defender_actions(graph: AttackGraph, params: GameParams) -> tuple[tuple[int, ...], ...]:
    """All edge subsets of size 0..budget, ordered by (size, edge ids); at
    most ``DEFAULT_ACTION_LIMIT`` of them."""
    n_edges = len(graph.edges)
    if params.budget > n_edges:
        raise ValueError(f"budget {params.budget} exceeds edge count {n_edges}")
    total = sum(math.comb(n_edges, k) for k in range(params.budget + 1))
    if total > DEFAULT_ACTION_LIMIT:
        raise EnumerationLimitError(f"defender action count {total} exceeds limit {DEFAULT_ACTION_LIMIT}")
    out = []
    for k in range(params.budget + 1):
        out.extend(combinations(range(n_edges), k))
    return tuple(out)


def build_matrix(
    graph: AttackGraph,
    params: GameParams,
    *,
    entries=None,
) -> GameInstance:
    """Assemble the full game: both action spaces and the payoff matrix.

    Deterministic given graph and params; ``entries`` restricts which entry
    nodes may start attack paths (compromised-entry sweeps).
    """
    actions = defender_actions(graph, params)
    paths = enumerate_attack_paths(graph, entries=entries)
    columns = PathColumns.of_paths(graph, paths)
    matrix = columns.payoff(params, *allocation_rows(graph, actions))
    return GameInstance(graph=graph, params=params, actions=actions, paths=paths, matrix=matrix, columns=columns)


class PathColumns:
    """The steps of a path set, which the reward kernel scores.

    ``positions[j]`` holds path j's edge ids in path order and ``values[j]``
    the values of the nodes they enter; both are padded to one width, with
    -1 and 0.0. ``hops[j]`` counts path j's edges, and ``totals[j]`` sums
    its non-entry node values in path order, from 0.0, as a per-node loop
    would. The edge x path arrays a score needs are scattered from the
    steps when it is computed, over as many edges as its allocation rows
    have; a pad indexes one spare edge row past them, which is cut off. So
    several allocation sets can be scored against one path set, which keeps
    neither the graph nor the paths.
    """

    def __init__(self, positions, values):
        self.positions, self.values = positions, values
        self.hops = np.count_nonzero(positions >= 0, axis=1)
        # adds left to right, as a per-node loop would; np.sum would add long rows pairwise
        self.totals = np.zeros(len(positions))
        for column in values.T:
            self.totals += column

    @classmethod
    def of_paths(cls, graph: AttackGraph, paths) -> "PathColumns":
        """The table of the attack ``paths`` of ``graph``."""
        hops = np.fromiter((path.hops for path in paths), dtype=np.intp, count=len(paths))
        width = int(hops.max(initial=1))
        walked = np.arange(width) < hops[:, None]
        positions = np.full((len(paths), width), -1, dtype=np.intp)
        positions[walked] = list(chain.from_iterable(path.edges for path in paths))
        values = np.zeros((len(paths), width))
        node_values = graph.values
        values[walked] = [node_values[node] for path in paths for node in path.nodes[1:]]
        return cls(positions, values)

    def take(self, index) -> "PathColumns":
        """The table of the paths at positions ``index``, in that order."""
        return PathColumns(np.take(self.positions, index, axis=0), np.take(self.values, index, axis=0))

    def scatter(self, n_edges: int, data) -> np.ndarray:
        """The (n_edges, paths) array that holds ``data``, a scalar or one
        entry per step, where path j takes edge e, and 0.0 elsewhere."""
        out = np.zeros((n_edges + 1, len(self.positions)))
        out[self.positions, np.arange(len(self.positions))[:, None]] = data
        return out[:n_edges]

    def payoff(self, params: GameParams, rows, deployed) -> np.ndarray:
        """Defender reward of every allocation, given as the ``rows`` and
        ``deployed`` counts of :func:`allocation_rows`, against every path.

        The reward is additive over covered edges, so R[i, j] = base[j] +
        (cap + esc) * (covered value) - cost[i]. With ``terminate_on_capture``
        the value sum of path j stops at its first covered position f: it is
        the running sum of -esc * value before f plus cap * value at f, or
        the whole running sum when no position is covered. The running sum
        adds in path order, as a per-node loop would. The per-hop attacker
        cost always counts the full path.
        """
        costs = params.honeypot_cost * deployed
        if not params.terminate_on_capture:
            out = rows @ self.scatter(rows.shape[1], self.values)
            out *= params.cap + params.esc
            out += -params.esc * self.totals + params.attack_cost_per_hop * self.hops
            out -= costs[:, None]
            return out
        covered = np.hstack([rows > 0, np.zeros((len(rows), 1), dtype=bool)])[:, self.positions]
        first = covered.argmax(axis=2)
        running = np.cumsum(np.hstack([np.zeros((len(self.totals), 1)), -params.esc * self.values]), axis=1)
        column = np.arange(len(self.totals))
        captured = running[column, first] + params.cap * self.values[column, first]
        escaped = running[column, self.hops]
        value_sums = np.where(covered.any(axis=2), captured, escaped)
        return value_sums - costs[:, None] + params.attack_cost_per_hop * self.hops

    def hits(self, rows) -> np.ndarray:
        """1.0 where allocation i (a row of :func:`allocation_rows`) covers an
        edge of path j, else 0.0."""
        hits = rows @ self.scatter(rows.shape[1], 1.0)
        return np.minimum(hits, 1.0, out=hits)

    def mixed(self, params: GameParams, rows, deployed, probs) -> np.ndarray:
        """Attacker reward and capture probability of every path, as a
        (2, paths) array, against a mixed defender that plays the
        allocations ``rows`` and ``deployed`` of :func:`allocation_rows`
        with probabilities ``probs``.

        The sums run over the rows one at a time, in row order, and are
        vectorised across paths only. The attacker's old paths tie exactly
        at equilibrium, and a matrix product (``probs @ payoff``) rounds
        each column in its own order, which moves the argmax that breaks
        those ties.
        """
        scores = np.zeros((2, len(self.totals)))
        for prob, row, hit in zip(probs, self.payoff(params, rows, deployed), self.hits(rows)):
            scores[0] -= prob * row
            scores[1] += prob * hit
        return scores


def allocation_rows(graph: AttackGraph, actions, pinned=()):
    """Edge-indicator row of each allocation with the in-graph pins set, and
    the number of distinct honeypot locations each one deploys.

    ``pinned`` adds (u, v) honeypot locations to every allocation. They are
    deduplicated against each other and the allocation's edges; pins that
    are not edges of ``graph`` (hypothetical zero-day locations) cover
    nothing but still count as deployed, so they cost ``honeypot_cost``.
    """
    pins = {tuple(p) for p in pinned}
    pin_ids = [graph.edge_index[p] for p in pins if p in graph.edge_index]
    rows = np.zeros((len(actions), len(graph.edges)))
    sizes = np.fromiter(map(len, actions), dtype=np.intp, count=len(actions))
    edge_ids = np.fromiter(chain.from_iterable(actions), dtype=np.intp, count=int(sizes.sum()))
    rows[np.repeat(np.arange(len(actions)), sizes), edge_ids] = 1.0
    rows[:, pin_ids] = 1.0
    return rows, rows.sum(axis=1) + (len(pins) - len(pin_ids))


def pure_strategy(size: int, index: int) -> np.ndarray:
    out = np.zeros(size)
    out[index] = 1.0
    return out
