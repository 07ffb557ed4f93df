"""Zero-day edge impact analysis against a fixed base deception policy.

For each candidate edge the augmented game is built and the attacker reward
is evaluated two ways: optimistic (the attacker hedges against the defender
knowing the edge, so the padded base policy is scored against the augmented
game's equilibrium attacker strategy) and pessimistic (the attacker is sure
the defender is blind and plays a best response to the fixed base policy over
the enlarged path set). Impact is the chosen criterion's reward minus the
attacker reward of the original game.

Under the pessimistic criterion with best-response attackers no augmented
game's equilibrium enters the impact, so a candidate's optimistic value is
solved on its first read and then kept on the record.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import (
    GameInstance,
    GameParams,
    PathColumns,
    allocation_rows,
    build_matrix,
    defender_actions,
)
from .graph import AttackGraph, augment, generate_zero_day_candidates, join_added_paths
from .lp import solve_zero_sum

CRITERIA = ("pessimistic", "optimistic")
PESSIMISTIC_MODES = ("best_response", "game2_ne")

STRATEGY_SUM_TOL = 1e-9

CSV_COLUMNS = ("edge_u", "edge_v", "naive", "optimistic", "pessimistic", "impact", "y_e", "dominance")


class _ResolvedOnRead:
    """A record field whose stored value may be a :class:`_DeferredOptimistic`;
    reading it returns the float and keeps that in place of the deferral."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            raise AttributeError(self.name)  # the field has no default
        value = record.__dict__[self.name]
        if isinstance(value, _DeferredOptimistic):
            value = record.__dict__[self.name] = value.value
        return value

    def __set__(self, record, value):
        record.__dict__[self.name] = value


@dataclass(frozen=True)
class ZeroDayRecord:
    """One scanned candidate edge with its reward columns and impact.

    A pessimistic best-response scan leaves ``optimistic`` unsolved until it
    is first read; a solver error then raises on every read of it.
    """

    edge: tuple[int, int]
    status: str
    naive: float
    optimistic: float = _ResolvedOnRead()
    pessimistic: float
    impact: float
    new_path_count: int
    exploit_probability: float
    dominance: str
    criterion: str
    pessimistic_mode: str


def normalize_criterion(criterion: str) -> str:
    aliases = {"pes": "pessimistic", "opt": "optimistic"}
    criterion = aliases.get(criterion, criterion)
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    return criterion


def _classify_dominance(column_rewards, new_mask, y1, naive_mixed) -> str:
    """Strict-dominance classification of the best new path vs the old set.

    ``old_idx[k]`` is the augmented-game column of game-1 path k: sorting the
    enlarged path set preserves the relative order of the original paths.
    """
    new_idx = np.nonzero(new_mask)[0]
    if new_idx.size == 0:
        return "neither"
    old_idx = np.nonzero(~new_mask)[0]
    best_new = int(new_idx[np.argmax(column_rewards[new_idx])])
    r_new = column_rewards[best_new]
    if np.all(r_new > column_rewards[old_idx]):
        return "dominant"
    if y1 is None:
        return "neither"
    supported = [old_idx[k] for k, p in enumerate(np.asarray(y1)) if p > 1e-12]
    if supported and np.all(r_new < column_rewards[supported]) and r_new < naive_mixed:
        return "dominated"
    return "neither"


def _check_strategy(x, actions) -> np.ndarray:
    """``x`` as a float array, if it is a mixed strategy over ``actions``;
    raises ``ValueError`` otherwise."""
    x_arr = np.asarray(x, dtype=float)
    if x_arr.shape != (len(actions),):
        raise ValueError("strategy length does not match game-1 action count")
    if np.any(x_arr < -STRATEGY_SUM_TOL):
        raise ValueError("strategy has negative entries")
    if not abs(x_arr.sum() - 1.0) <= STRATEGY_SUM_TOL:
        raise ValueError(f"strategy sums to {x_arr.sum()!r}, not 1")
    return x_arr


class _Augmentation:
    """The augmented games of a list of candidate edges, built from one base
    game and independent of any defender policy.

    Every augmented graph has the base graph's E edges plus the candidate,
    which gets id E. So the defender's E+1-edge allocations are the same for
    every candidate, and all candidates' paths share one table: ``columns``
    holds the steps of the base paths, then of each candidate's new paths,
    and is scored against allocation rows over those E+1 edges. It stacks
    the steps of ``game1.columns`` and of one
    :func:`~decoygraph.graph.join_added_paths`, which pad with -1 alike.
    Row k of the padded (candidates, longest) array ``index`` lists the
    positions of candidate k's paths, in canonical order, in that table;
    its first ``lengths[k]`` entries are real and the rest hold the pad,
    the table's path count. A real entry is one of the candidate's new
    paths exactly when it is at least the base path count. A new path's
    place in its row is its rank among the base paths plus the number of
    new paths before it: canonical keys are unique, so this is the place a
    stable sort of all its paths gives it. The allocation rows under a set
    of pins differ between candidates only in whether the candidate's own
    edge is pinned: edge E is covered exactly then, and every other pin is
    a base edge or an off-graph location that only costs
    ``honeypot_cost``. So one candidate's graph per "own edge pinned" flag
    stands in for all candidates with that flag: :meth:`responses` scores a
    mixed defender on the table once per flag and reads each candidate's
    attacker response from it, and :meth:`game` builds a candidate's payoff
    matrix from that flag's allocation rows.
    A candidate that adds no path has exactly the base paths, so all such
    candidates with the same flag share one augmented game.
    """

    def __init__(self, game1: GameInstance, edges):
        self.graph, self.params, self.base_paths = game1.graph, game1.params, game1.paths
        self.base_actions = game1.actions
        self.edges = [tuple(edge) for edge in edges]
        added = join_added_paths(self.graph, self.base_paths, self.edges)
        n_base, n_new = len(self.base_paths), len(added.steps)
        base = game1.columns
        width = max(base.positions.shape[1], added.steps.shape[1])
        positions = np.full((n_base + n_new, width), -1, dtype=np.intp)
        positions[:n_base, : base.positions.shape[1]] = base.positions
        positions[n_base:, : added.steps.shape[1]] = added.steps
        values = np.zeros((n_base + n_new, width))
        values[:n_base, : base.values.shape[1]] = base.values
        values[n_base:, : added.values.shape[1]] = added.values
        self.columns = PathColumns(positions, values)

        n_candidates, counts, pad = len(self.edges), added.counts, n_base + n_new
        self.lengths = n_base + counts
        width = int(self.lengths.max(initial=n_base))
        slots = added.base_rank + np.arange(n_new) - np.repeat(np.cumsum(counts) - counts, counts)
        self.index = np.full((n_candidates, width), pad, dtype=np.intp)
        self.index[np.repeat(np.arange(n_candidates), counts), slots] = np.arange(n_base, pad)
        base_slots = (np.arange(width) < self.lengths[:, None]) & (self.index == pad)
        self.index[base_slots] = np.tile(np.arange(n_base), n_candidates)
        self._rows = {}
        self._no_path_games = {}

    def _stand_in(self, own_pinned: bool, pins=frozenset()) -> AttackGraph:
        """The augmented graph of the first candidate whose edge is in
        ``pins`` exactly when ``own_pinned``; every such candidate meets the
        same allocation rows on it as on its own augmented graph."""
        edge = next(edge for edge in self.edges if (edge in pins) == own_pinned)
        return augment(self.graph, edge)

    @cached_property
    def actions(self) -> tuple[tuple[int, ...], ...]:
        """The defender actions of every augmented game."""
        return defender_actions(self._stand_in(False), self.params)

    def responses(self, policy, pins=frozenset(), criterion="pessimistic", *, own_pinned=False):
        """Each candidate's attacker reward and capture probability, as two
        lists, and the best reward a base path gets, against the mixed
        strategy ``policy`` over the base game's actions with honeypots
        pinned at the (u, v) locations in the frozenset ``pins``, and at
        every candidate's own edge too when ``own_pinned``. The attacker
        plays the first best path in canonical order (``"pessimistic"``) or
        the pinned augmented game's equilibrium (``"optimistic"``).

        The table is scored against the allocations the policy plays, in
        action order, once on a stand-in for the candidates whose edge is
        in ``pins`` and once for the rest. Pad slots of the gathered rows
        hold reward -inf and capture 0.0, so a row's first maximum is real.
        """
        policy = np.asarray(policy)
        support = np.flatnonzero(policy > 1e-12)
        allocations = [self.base_actions[i] for i in support]
        in_pins = np.array([edge in pins for edge in self.edges])
        pinned = [pins | {edge} if own_pinned else pins for edge in self.edges]
        scores = np.empty((2, *self.index.shape))
        for flag in dict.fromkeys(in_pins.tolist()):
            chosen = in_pins == flag
            k = int(np.argmax(chosen))
            rows, deployed = allocation_rows(augment(self.graph, self.edges[k]), allocations, pinned[k])
            table = self.columns.mixed(self.params, rows, deployed, policy[support])
            scores[:, chosen] = np.hstack([table, [[-np.inf], [0.0]]])[:, self.index[chosen]]
        # no pin covers a base path, and every stand-in deploys as many
        # honeypots, so each stand-in's table scores the base paths alike
        baseline = float(np.max(table[0, : len(self.base_paths)]))
        if criterion == "optimistic":
            rewards, captures = [], []
            for k, length in enumerate(self.lengths):
                y2 = self.game(k, pinned[k]).attacker_equilibrium
                # contiguous row prefixes: a strided dot product rounds differently
                rewards.append(float(scores[0, k, :length] @ y2))
                captures.append(float(scores[1, k, :length] @ y2))
            return rewards, captures, baseline
        best = scores[0].argmax(axis=-1)
        candidates = np.arange(len(best))
        return scores[0, candidates, best].tolist(), scores[1, candidates, best].tolist(), baseline

    def game(self, k, pins=frozenset()) -> "_AugmentedGame":
        """Candidate k's augmented game with honeypots pinned at the (u, v)
        locations in the frozenset ``pins``. Only the games that candidates
        share are kept."""
        key = (self.edges[k] in pins, pins)
        adds_path = self.lengths[k] > len(self.base_paths)
        if not adds_path and key in self._no_path_games:
            return self._no_path_games[key]
        if key not in self._rows:
            self._rows[key] = allocation_rows(self._stand_in(*key), self.actions, pins)
        columns = self.columns.take(self.index[k, : self.lengths[k]])
        game2 = _AugmentedGame(columns.payoff(self.params, *self._rows[key]))
        if not adds_path:
            self._no_path_games[key] = game2
        return game2


class _AugmentedGame:
    """One augmented payoff matrix and, when first asked for, its
    equilibrium attacker strategy."""

    def __init__(self, matrix):
        self.matrix = matrix

    @cached_property
    def attacker_equilibrium(self):
        return solve_zero_sum(self.matrix).attacker_strategy


class _DeferredOptimistic:
    """Candidate k's optimistic value, solved when first asked for: the
    scan's own operations on its game, so the float is the same bits."""

    def __init__(self, shared: _Augmentation, k: int, xhat):
        self.shared, self.k, self.xhat = shared, k, xhat

    @cached_property
    def value(self) -> float:
        game2 = self.shared.game(self.k)
        return float(-(self.xhat @ game2.matrix) @ game2.attacker_equilibrium)

    def __reduce__(self):
        return float, (self.value,)


def _records(game1, x1, y1, work, *, criterion, pessimistic_mode) -> list[ZeroDayRecord]:
    """The scan record of each (edge, status) in ``work`` against the base
    policy ``x1``. Where the optimistic value enters nothing else in the
    record, its solve waits for its first read."""
    x_arr = _check_strategy(x1, game1.actions)
    shared = _Augmentation(game1, [edge for edge, _ in work])
    index = {action: i for i, action in enumerate(shared.actions)}
    xhat = np.zeros(len(shared.actions))
    xhat[[index[action] for action in game1.actions]] = x_arr
    naive = float(np.max(-(x_arr @ game1.matrix)))
    naive_mixed = float(-(x_arr @ game1.matrix @ np.asarray(y1))) if y1 is not None else None
    records = []
    for k, (edge, status) in enumerate(work):
        new_mask = shared.index[k, : shared.lengths[k]] >= len(game1.paths)
        new_path_count = int(shared.lengths[k]) - len(game1.paths)
        game2 = shared.game(k)
        column_rewards = -(xhat @ game2.matrix)

        br_index = int(np.argmax(column_rewards))
        br_value = float(column_rewards[br_index])

        # the criterion's attacker plays the augmented game's equilibrium y2
        plays_y2 = criterion == "optimistic" or pessimistic_mode == "game2_ne"
        if plays_y2:
            y2 = game2.attacker_equilibrium
            optimistic = float(column_rewards @ y2)
        elif status == "dominant":
            # a rule-dominant edge's optimistic column is its best-response value
            optimistic = br_value
        else:
            # no equilibrium strategy enters the rest of this record
            optimistic = _DeferredOptimistic(shared, k, xhat)

        pessimistic = br_value if pessimistic_mode == "best_response" else optimistic
        records.append(
            ZeroDayRecord(
                edge=shared.edges[k],
                status=status,
                naive=naive,
                optimistic=optimistic,
                pessimistic=pessimistic,
                impact=(pessimistic if criterion == "pessimistic" else optimistic) - naive,
                new_path_count=new_path_count,
                exploit_probability=float(y2[new_mask].sum()) if plays_y2 else float(new_mask[br_index]),
                dominance=_classify_dominance(column_rewards, new_mask, y1, naive_mixed),
                criterion=criterion,
                pessimistic_mode=pessimistic_mode,
            )
        )
    return records


def _check_options(criterion, pessimistic_mode) -> str:
    if pessimistic_mode not in PESSIMISTIC_MODES:
        raise ValueError(f"pessimistic_mode must be one of {PESSIMISTIC_MODES}")
    return normalize_criterion(criterion)


def evaluate_candidate(
    game1: GameInstance,
    x1,
    edge,
    *,
    criterion: str = "pessimistic",
    pessimistic_mode: str = "best_response",
    y1=None,
    status: str = "analyzed",
) -> ZeroDayRecord:
    """Build the augmented game for one candidate edge and score it.

    ``x1`` is the base deception policy (game-1 defender equilibrium). The
    optional ``y1`` (game-1 attacker equilibrium) enables the dominance
    classification against the supported old paths. A ``"dominant"``
    ``status`` (a rule-dominant entry-to-target edge) under the pessimistic
    criterion skips the equilibrium solve of the augmented game, and the
    optimistic column reports the direct best-response value. Otherwise a
    pessimistic best-response record solves that game on the first read of
    ``optimistic``, and every other record while it is scored. ``game1``
    must hold every attack path of its graph; a game built with
    ``entries=`` raises ``ValueError``.
    """
    criterion = _check_options(criterion, pessimistic_mode)
    (record,) = _records(game1, x1, y1, [(edge, status)], criterion=criterion, pessimistic_mode=pessimistic_mode)
    return record


def rank_records(records) -> list[ZeroDayRecord]:
    """Descending by impact, ties broken by ascending (u, v)."""
    return sorted(records, key=lambda r: (-r.impact, r.edge))


def scan_candidates(
    graph: AttackGraph,
    params: GameParams,
    *,
    criterion: str = "pessimistic",
    pessimistic_mode: str = "best_response",
    solution=None,
) -> list[ZeroDayRecord]:
    """Evaluate every analyzed or rule-dominant candidate edge, ranked.

    Each candidate gets the record :func:`evaluate_candidate` gives it; the
    work all candidates share is done once per call. Under the pessimistic
    criterion with best-response attackers, an analyzed candidate's
    augmented game is solved only when its ``optimistic`` value is first
    read, so a solver failure there raises at that read, not here.
    """
    criterion = _check_options(criterion, pessimistic_mode)
    game1 = build_matrix(graph, params)
    if solution is None:
        solution = solve_zero_sum(game1.matrix)

    work = [(c.edge, c.status) for c in generate_zero_day_candidates(graph) if c.status in ("analyzed", "dominant")]
    if not work:
        return []
    records = _records(
        game1,
        solution.defender_strategy,
        solution.attacker_strategy,
        work,
        criterion=criterion,
        pessimistic_mode=pessimistic_mode,
    )
    return rank_records(records)


def fmt6(value: float) -> str:
    """Six-decimal fixed-point with negative zero normalized away."""
    return f"{round(value, 6) + 0.0:.6f}"


def report_csv(records) -> str:
    """Render scan records as CSV matching the report column layout."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.edge[0],
                r.edge[1],
                fmt6(r.naive),
                fmt6(r.optimistic),
                fmt6(r.pessimistic),
                fmt6(r.impact),
                fmt6(r.exploit_probability),
                r.dominance,
            ]
        )
    return buf.getvalue()
