"""Zero-day edge impact analysis against a fixed base deception policy.

For each candidate edge the augmented game is built and the attacker reward
is evaluated two ways: optimistic (the attacker hedges against the defender
knowing the edge, so the padded base policy is scored against the augmented
game's equilibrium attacker strategy) and pessimistic (the attacker is sure
the defender is blind and plays a best response to the fixed base policy over
the enlarged path set). Impact is the chosen criterion's reward minus the
attacker reward of the original game.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

import numpy as np

from .game import (
    GameInstance,
    GameParams,
    build_matrix,
    defender_actions,
    pad_strategy,
    payoff_matrix,
    pure_strategy,
)
from .graph import AttackGraph, augment, augmented_paths, generate_zero_day_candidates
from .lp import solve_zero_sum

CRITERIA = ("pessimistic", "optimistic")
PESSIMISTIC_MODES = ("best_response", "game2_ne")

CSV_COLUMNS = ("edge_u", "edge_v", "naive", "optimistic", "pessimistic", "impact", "y_e", "dominance")


@dataclass(frozen=True)
class ZeroDayRecord:
    """One scanned candidate edge with its reward columns and impact."""

    edge: tuple[int, int]
    status: str
    naive: float
    optimistic: float
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


def evaluate_candidate(
    game1: GameInstance,
    x1,
    edge,
    *,
    criterion: str = "pessimistic",
    pessimistic_mode: str = "best_response",
    y1=None,
    status: str = "analyzed",
    compute_optimistic: bool = True,
) -> ZeroDayRecord:
    """Build the augmented game for one candidate edge and score it.

    ``x1`` is the base deception policy (game-1 defender equilibrium). The
    optional ``y1`` (game-1 attacker equilibrium) enables the dominance
    classification against the supported old paths. When
    ``compute_optimistic`` is false the equilibrium solve of the augmented
    game is skipped and the optimistic column reports the direct
    best-response value (used for rule-dominant entry-to-target edges).
    """
    criterion = normalize_criterion(criterion)
    if pessimistic_mode not in PESSIMISTIC_MODES:
        raise ValueError(f"pessimistic_mode must be one of {PESSIMISTIC_MODES}")

    graph2 = augment(game1.graph, edge)
    (paths2,) = augmented_paths(game1.graph, game1.paths, [edge])
    actions2 = defender_actions(graph2, game1.params)
    matrix2 = payoff_matrix(graph2, game1.params, actions2, paths2)
    game2 = GameInstance(graph=graph2, params=game1.params, actions=actions2, paths=paths2, matrix=matrix2)
    xhat = pad_strategy(x1, game1, game2)

    naive = float(np.max(-(np.asarray(x1) @ game1.matrix)))
    column_rewards = -(xhat @ game2.matrix)
    new_mask = np.array([len(game1.graph.edges) in path.edges for path in game2.paths])
    new_path_count = int(new_mask.sum())

    br_index = int(np.argmax(column_rewards))
    br_value = float(column_rewards[br_index])
    br_strategy = pure_strategy(len(game2.paths), br_index)

    if compute_optimistic or pessimistic_mode == "game2_ne":
        y2 = solve_zero_sum(game2.matrix).attacker_strategy
        optimistic = float(column_rewards @ y2)
    else:
        y2 = br_strategy
        optimistic = br_value

    if pessimistic_mode == "best_response":
        pessimistic, pes_strategy = br_value, br_strategy
    else:
        pessimistic, pes_strategy = optimistic, y2

    if criterion == "pessimistic":
        reward_for_criterion, strategy_for_criterion = pessimistic, pes_strategy
    else:
        reward_for_criterion, strategy_for_criterion = optimistic, y2
    impact = reward_for_criterion - naive
    exploit_probability = float(strategy_for_criterion[new_mask].sum()) if new_path_count else 0.0

    naive_mixed = float(-(np.asarray(x1) @ game1.matrix @ np.asarray(y1))) if y1 is not None else None
    dominance = _classify_dominance(column_rewards, new_mask, y1, naive_mixed)

    return ZeroDayRecord(
        edge=tuple(edge),
        status=status,
        naive=naive,
        optimistic=optimistic,
        pessimistic=pessimistic,
        impact=impact,
        new_path_count=new_path_count,
        exploit_probability=exploit_probability,
        dominance=dominance,
        criterion=criterion,
        pessimistic_mode=pessimistic_mode,
    )


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
    """Evaluate every analyzed or rule-dominant candidate edge, ranked."""
    criterion = normalize_criterion(criterion)
    game1 = build_matrix(graph, params)
    if solution is None:
        solution = solve_zero_sum(game1.matrix)
    x1 = solution.defender_strategy
    y1 = solution.attacker_strategy

    work = [c for c in generate_zero_day_candidates(graph) if c.status in ("analyzed", "dominant")]

    def run(candidate):
        skip_opt = candidate.status == "dominant" and criterion == "pessimistic"
        return evaluate_candidate(
            game1,
            x1,
            candidate.edge,
            criterion=criterion,
            pessimistic_mode=pessimistic_mode,
            y1=y1,
            status=candidate.status,
            compute_optimistic=not skip_opt,
        )

    return rank_records([run(c) for c in work])


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
