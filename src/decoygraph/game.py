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
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import AttackGraph, AttackPath, EnumerationLimitError, enumerate_attack_paths, is_finite_number

DEFAULT_ACTION_LIMIT = 1_000_000

STRATEGY_SUM_TOL = 1e-9


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
    known = {
        "cap", "esc", "honeypot_cost", "attack_cost_per_hop", "budget",
        "terminate_on_capture",
    }
    unknown = set(document) - known
    if unknown:
        raise ValueError(f"unknown params keys: {sorted(unknown)}")
    return GameParams(**document)


def params_to_document(params: GameParams) -> dict:
    return {
        "cap": params.cap,
        "esc": params.esc,
        "honeypot_cost": params.honeypot_cost,
        "attack_cost_per_hop": params.attack_cost_per_hop,
        "budget": params.budget,
        "terminate_on_capture": params.terminate_on_capture,
    }


@dataclass(eq=False)
class GameInstance:
    """Enumerated action spaces plus the dense defender payoff matrix.

    ``actions[i]`` is a sorted tuple of edge ids, ``paths[j]`` an attack
    path, and ``matrix[i, j]`` the defender reward for that profile. The
    attacker payoff matrix is ``-matrix``.
    """

    graph: AttackGraph
    params: GameParams
    actions: tuple[tuple[int, ...], ...]
    paths: tuple[AttackPath, ...]
    matrix: np.ndarray


def defender_actions(
    graph: AttackGraph, params: GameParams, limit: int = DEFAULT_ACTION_LIMIT
) -> tuple[tuple[int, ...], ...]:
    """All edge subsets of size 0..budget, ordered by (size, edge ids)."""
    n_edges = len(graph.edges)
    if params.budget > n_edges:
        raise ValueError(f"budget {params.budget} exceeds edge count {n_edges}")
    total = sum(math.comb(n_edges, k) for k in range(params.budget + 1))
    if total > limit:
        raise EnumerationLimitError(f"defender action count {total} exceeds limit {limit}")
    out = []
    for k in range(params.budget + 1):
        out.extend(combinations(range(n_edges), k))
    return tuple(out)


def reward(
    graph: AttackGraph,
    params: GameParams,
    action,
    path: AttackPath,
    pinned=(),
) -> float:
    """Defender reward for one action profile.

    ``action`` is an iterable of edge ids; ``pinned`` an optional iterable of
    extra honeypot locations given as (u, v) pairs, which may name edges the
    graph does not contain (hypothetical zero-day locations). Deployments are
    deduplicated by location; each deployed honeypot costs ``honeypot_cost``.
    The entry node contributes no value term. With ``terminate_on_capture``
    the node-value sum stops after the first captured node; the per-hop
    attacker cost always counts the full path.
    """
    honeypots = {graph.edges[e] for e in action}
    honeypots.update(tuple(p) for p in pinned)
    total = 0.0
    prev = path.nodes[0]
    for node in path.nodes[1:]:
        v = graph.value(node)
        if (prev, node) in honeypots:
            total += params.cap * v
            if params.terminate_on_capture:
                break
        else:
            total -= params.esc * v
        prev = node
    total -= params.honeypot_cost * len(honeypots)
    total += params.attack_cost_per_hop * path.hops
    return total


def build_matrix(
    graph: AttackGraph,
    params: GameParams,
    *,
    entries=None,
    action_limit: int = DEFAULT_ACTION_LIMIT,
    path_limit: int = 1_000_000,
) -> GameInstance:
    """Assemble the full game: both action spaces and the payoff matrix.

    Deterministic given graph and params; ``entries`` restricts which entry
    nodes may start attack paths (compromised-entry sweeps).
    """
    actions = defender_actions(graph, params, limit=action_limit)
    paths = enumerate_attack_paths(graph, entries=entries, limit=path_limit)
    matrix = payoff_matrix(graph, params, actions, paths)
    return GameInstance(graph=graph, params=params, actions=actions, paths=paths, matrix=matrix)


def payoff_matrix(graph: AttackGraph, params: GameParams, actions, paths, pinned=()) -> np.ndarray:
    """Defender reward of every allocation in ``actions`` against every path."""
    return PathColumns(graph, paths).payoff(params, actions, pinned)


def hit_matrix(graph: AttackGraph, actions, paths, pinned=()) -> np.ndarray:
    """1.0 where allocation i, plus ``pinned``, covers an edge of path j, else 0.0."""
    return PathColumns(graph, paths).hits(actions, pinned)


class PathColumns:
    """Per-path data of the edge-additive reward kernel, built in one pass.

    ``incidence[e, j]`` is 1.0 where path j takes edge e, ``weights[e, j]``
    is then the value of the node that edge enters, and ``totals[j]`` sums
    path j's non-entry node values in path order. Scoring several allocation
    sets against one path set reuses these columns.
    """

    def __init__(self, graph: AttackGraph, paths):
        self.graph = graph
        self.paths = paths
        self.incidence = np.zeros((len(graph.edges), len(paths)))
        self.weights = np.zeros((len(graph.edges), len(paths)))
        self.totals = np.zeros(len(paths))
        for j, path in enumerate(paths):
            total_value = 0.0
            for eid, node in zip(path.edges, path.nodes[1:]):
                v = graph.value(node)
                self.incidence[eid, j] = 1.0
                self.weights[eid, j] = v
                total_value += v
            self.totals[j] = total_value

    @classmethod
    def spliced(cls, graph: AttackGraph, paths, old: "PathColumns", is_new) -> "PathColumns":
        """``PathColumns(graph, paths)`` for a path set that holds
        ``old.paths``, in order, where the bool array ``is_new`` is false.
        Those columns are copied from ``old``, which must be built on a graph
        with the same edge ids, and only the new paths are walked."""
        fresh = cls(graph, [path for path, new in zip(paths, is_new) if new])
        out = cls(graph, ())
        out.paths = paths
        for name in ("incidence", "weights", "totals"):
            merged = np.empty(getattr(old, name).shape[:-1] + (len(paths),))
            merged[..., ~is_new] = getattr(old, name)
            merged[..., is_new] = getattr(fresh, name)
            setattr(out, name, merged)
        return out

    def payoff(self, params: GameParams, actions, pinned=()) -> np.ndarray:
        """Defender reward of every allocation in ``actions`` against every path.

        ``pinned`` adds (u, v) honeypot locations to every allocation, as in
        :func:`reward`: they are deduplicated against the allocation's edges,
        and pins that are not graph edges cover nothing but still cost
        ``honeypot_cost``. The reward is additive over covered edges, so
        R[i, j] = base[j] + (cap + esc) * (covered value) - cost[i]. With
        ``terminate_on_capture`` it is not, and every cell comes from
        :func:`reward`.
        """
        if params.terminate_on_capture:
            matrix = np.empty((len(actions), len(self.paths)))
            for i, action in enumerate(actions):
                for j, path in enumerate(self.paths):
                    matrix[i, j] = reward(self.graph, params, action, path, pinned)
            return matrix
        return self.additive_payoff(params, *allocation_rows(self.graph, actions, pinned))

    def additive_payoff(self, params: GameParams, rows, deployed) -> np.ndarray:
        """:meth:`payoff` without ``terminate_on_capture``, for allocations
        given as the ``rows`` and ``deployed`` counts of
        :func:`allocation_rows`."""
        hops = self.incidence.sum(axis=0)
        base = -params.esc * self.totals + params.attack_cost_per_hop * hops
        costs = params.honeypot_cost * deployed
        return base[None, :] + (params.cap + params.esc) * (rows @ self.weights) - costs[:, None]

    def hits(self, actions, pinned=()) -> np.ndarray:
        """1.0 where allocation i, plus ``pinned``, covers an edge of path j, else 0.0."""
        rows, _ = allocation_rows(self.graph, actions, pinned)
        hits = rows @ self.incidence
        return np.minimum(hits, 1.0, out=hits)


def allocation_rows(graph: AttackGraph, actions, pinned=()):
    """Edge-indicator row of each allocation with the in-graph pins set, and
    the number of distinct honeypot locations each one deploys."""
    pins = {tuple(p) for p in pinned}
    pin_ids = [graph.edge_index[p] for p in pins if p in graph.edge_index]
    rows = np.zeros((len(actions), len(graph.edges)))
    for i, action in enumerate(actions):
        for eid in action:
            rows[i, eid] = 1.0
    rows[:, pin_ids] = 1.0
    return rows, rows.sum(axis=1) + (len(pins) - len(pin_ids))


def pure_strategy(size: int, index: int) -> np.ndarray:
    out = np.zeros(size)
    out[index] = 1.0
    return out


def uniform_strategy(size: int) -> np.ndarray:
    return np.full(size, 1.0 / size)


def check_distribution(strategy, tol: float = STRATEGY_SUM_TOL) -> np.ndarray:
    arr = np.asarray(strategy, dtype=float)
    if np.any(arr < -tol):
        raise ValueError("strategy has negative entries")
    if abs(arr.sum() - 1.0) > tol:
        raise ValueError(f"strategy sums to {arr.sum()!r}, not 1")
    return arr


def pad_strategy(x1, game1: GameInstance, game2: GameInstance) -> np.ndarray:
    """Lift a game-1 defender strategy into game 2's action ordering.

    Every game-1 action keeps its probability; actions that only exist in
    game 2 (allocations touching the new edge) get zero. Raises ValueError
    if some game-1 action is missing from game 2.
    """
    x_arr = check_distribution(x1)
    if x_arr.size != len(game1.actions):
        raise ValueError("strategy length does not match game-1 action count")
    index = {action: i for i, action in enumerate(game2.actions)}
    out = np.zeros(len(game2.actions))
    for action, prob in zip(game1.actions, x_arr):
        if action not in index:
            raise ValueError(f"defender action {action} missing from the augmented game")
        out[index[action]] = prob
    return out
