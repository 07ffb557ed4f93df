"""Zero-sum honeypot allocation game: action spaces, rewards, payoff matrix.

The defender picks a set of up to ``budget`` edges to trap with honeypots,
the attacker picks an attack path. Each non-entry node on the path pays the
defender ``cap * value`` if the edge entering it carries a honeypot and costs
``esc * value`` otherwise; the defender pays a fixed cost per deployed
honeypot and collects the attacker's per-hop movement cost. The game is
zero-sum: the attacker's reward is the exact negation.
"""

from __future__ import annotations

import copy
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
    attacker payoff matrix is ``-matrix``. ``columns`` holds the paths'
    reward-kernel table that the matrix was scored from, for later scoring
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
    columns = PathColumns(graph, paths)
    matrix = columns.payoff(params, *allocation_rows(graph, actions))
    return GameInstance(graph=graph, params=params, actions=actions, paths=paths, matrix=matrix, columns=columns)


class PathColumns:
    """Per-path data of the reward kernel, built in whole-array steps.

    ``incidence[e, j]`` is 1.0 where path j takes edge e, ``weights[e, j]``
    is then the value of the node that edge enters, and ``totals[j]`` sums
    path j's non-entry node values in path order, from 0.0, as a per-node
    loop would. ``_steps`` holds each path's edge ids in path order, padded
    with -1, which indexes the one spare edge row past the E real ones, and
    the values of the nodes they enter, padded with 0.0; the other arrays
    are scattered from it. Scoring several allocation sets against one path
    set reuses these columns, which keep neither the graph nor the paths.
    """

    def __init__(self, graph: AttackGraph, paths):
        hops = np.fromiter((path.hops for path in paths), dtype=np.intp, count=len(paths))
        width = int(hops.max(initial=1))
        walked = np.arange(width) < hops[:, None]
        positions = np.full((len(paths), width), -1, dtype=np.intp)
        positions[walked] = list(chain.from_iterable(path.edges for path in paths))
        values = np.zeros((len(paths), width))
        node_values = graph.values
        values[walked] = [node_values[node] for path in paths for node in path.nodes[1:]]
        self._fill(len(graph.edges), positions, values)

    @classmethod
    def from_steps(cls, n_edges: int, positions, values) -> "PathColumns":
        """The columns of the paths whose padded steps are ``positions``
        (edge ids below ``n_edges``, padded with -1) and ``values`` (padded
        with 0.0), laid out as ``_steps``."""
        columns = cls.__new__(cls)
        columns._fill(n_edges, positions, values)
        return columns

    def _fill(self, n_edges, positions, values):
        self._steps = positions, values
        # pads scatter into one spare edge row, which is cut off
        paths = np.arange(len(positions))[:, None]
        self.incidence = np.zeros((n_edges + 1, len(positions)))
        self.incidence[positions, paths] = 1.0
        self.incidence = self.incidence[:n_edges]
        self.weights = np.zeros((n_edges + 1, len(positions)))
        self.weights[positions, paths] = values
        self.weights = self.weights[:n_edges]
        # adds left to right, as a per-node loop would; np.sum would add long rows pairwise
        self.totals = np.zeros(len(positions))
        for column in values.T:
            self.totals += column

    def take(self, index) -> "PathColumns":
        """The columns of the paths at positions ``index``, in that order."""
        out = copy.copy(self)
        for name in ("incidence", "weights", "totals"):
            setattr(out, name, np.take(getattr(self, name), index, axis=-1))
        out._steps = tuple(np.take(steps, index, axis=0) for steps in self._steps)
        return out

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
        hops = self.incidence.sum(axis=0)
        costs = params.honeypot_cost * deployed
        if not params.terminate_on_capture:
            out = rows @ self.weights
            out *= params.cap + params.esc
            out += -params.esc * self.totals + params.attack_cost_per_hop * hops
            out -= costs[:, None]
            return out
        positions, values = self._steps
        covered = np.hstack([rows > 0, np.zeros((len(rows), 1), dtype=bool)])[:, positions]
        first = covered.argmax(axis=2)
        running = np.cumsum(np.hstack([np.zeros((len(self.totals), 1)), -params.esc * values]), axis=1)
        column = np.arange(len(self.totals))
        captured = running[column, first] + params.cap * values[column, first]
        escaped = running[column, hops.astype(int)]
        value_sums = np.where(covered.any(axis=2), captured, escaped)
        return value_sums - costs[:, None] + params.attack_cost_per_hop * hops

    def hits(self, rows) -> np.ndarray:
        """1.0 where allocation i (a row of :func:`allocation_rows`) covers an
        edge of path j, else 0.0."""
        hits = rows @ self.incidence
        return np.minimum(hits, 1.0, out=hits)


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
