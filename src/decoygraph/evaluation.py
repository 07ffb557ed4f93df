"""Policy library and exact evaluation: rewards, capture proportion, sweeps.

Nash policies come from the equilibrium solver; greedy and random baselines
follow simple value-driven or uniform rules. All expectations are exact
bilinear computations over the mixed strategies, no sampling.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass, replace

import numpy as np

from .game import GameInstance, GameParams, allocation_rows, build_matrix, pure_strategy
from .graph import AttackGraph
from .lp import GameSolution, solve_zero_sum
from .zeroday import fmt6

POLICY_KINDS = ("nash", "greedy", "random")
SWEEP_PARAMETERS = ("esc", "cap", "honeypots", "entry_nodes")


@dataclass(frozen=True)
class SweepConfig:
    """One swept parameter, its ordered values, and the policy pairing."""

    parameter: str
    values: tuple
    params: GameParams
    defender: str = "nash"
    attacker: str = "nash"

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"parameter must be one of {SWEEP_PARAMETERS}")
        if not self.values:
            raise ValueError("sweep values must be nonempty")
        for side, kind in (("defender", self.defender), ("attacker", self.attacker)):
            if kind not in POLICY_KINDS:
                raise ValueError(f"{side} policy must be one of {POLICY_KINDS}")


@dataclass(frozen=True)
class EvalRow:
    parameter: str
    value: object
    defender_policy: str
    attacker_policy: str
    defender_reward: float
    attacker_reward: float
    capture: float


@dataclass
class EvaluationResult:
    rows: list[EvalRow]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["param", "value", "def_policy", "atk_policy", "def_reward", "atk_reward", "capture"])
        for r in self.rows:
            value = "|".join(str(v) for v in r.value) if isinstance(r.value, (tuple, list)) else r.value
            writer.writerow(
                [
                    r.parameter,
                    value,
                    r.defender_policy,
                    r.attacker_policy,
                    fmt6(r.defender_reward),
                    fmt6(r.attacker_reward),
                    fmt6(r.capture),
                ]
            )
        return buf.getvalue()


def _greedy_path_index(game: GameInstance) -> int:
    keys = [(-total, p.hops, p.nodes) for total, p in zip(game.columns.totals.tolist(), game.paths)]
    return min(range(len(game.paths)), key=lambda j: keys[j])


def make_policy(game: GameInstance, side: str, kind: str, solution: GameSolution | None = None) -> np.ndarray:
    """Mixed strategy for one side of the game.

    Greedy attacker: pure on the path with the highest total node value
    (ties: shortest, then lexicographic). Random attacker: uniform over all
    paths. Greedy defender: all honeypots on the incoming edges of the
    highest-value nodes along the greedy path. Random defender: uniform over
    the single-edge allocations. Nash requires a solved game.
    """
    if side not in ("defender", "attacker"):
        raise ValueError(f"side must be 'defender' or 'attacker', got {side!r}")
    if kind not in POLICY_KINDS:
        raise ValueError(f"kind must be one of {POLICY_KINDS}, got {kind!r}")
    if kind == "nash":
        if solution is None:
            raise ValueError("nash policy requires a game solution")
        return solution.defender_strategy if side == "defender" else solution.attacker_strategy

    if side == "attacker":
        if kind == "greedy":
            return pure_strategy(len(game.paths), _greedy_path_index(game))
        return np.full(len(game.paths), 1.0 / len(game.paths))

    if kind == "greedy":
        path = game.paths[_greedy_path_index(game)]
        ranked = sorted(
            zip(path.nodes[1:], path.edges),
            key=lambda item: (-game.graph.value(item[0]), item[0]),
        )
        chosen = tuple(sorted(eid for _, eid in ranked[: game.params.budget]))
        index = {action: i for i, action in enumerate(game.actions)}
        return pure_strategy(len(game.actions), index[chosen])

    single = [i for i, action in enumerate(game.actions) if len(action) == 1]
    if not single:
        raise ValueError("random defender policy needs budget >= 1")
    out = np.zeros(len(game.actions))
    out[single] = 1.0 / len(single)
    return out


def expected_reward(game: GameInstance, x, y) -> tuple[float, float]:
    """Exact (defender, attacker) expected rewards; they sum to zero."""
    d = float(np.asarray(x) @ game.matrix @ np.asarray(y))
    return d, -d


def capture_proportion(game: GameInstance, x, y) -> float:
    """Probability that the attack path crosses a honeypot-bearing edge."""
    rows, _ = allocation_rows(game.graph, game.actions)
    hit = game.columns.hits(rows)
    return float(np.asarray(x) @ hit @ np.asarray(y))


def evaluate_pairing(graph: AttackGraph, params: GameParams, defender: str, attacker: str, *, entries=None):
    """Exact (defender reward, attacker reward, capture proportion) of the
    defender and attacker policy kinds on the game of ``graph`` and
    ``params``; the game is solved only when a side plays ``"nash"``."""
    game = build_matrix(graph, params, entries=entries)
    solution = None
    if "nash" in (defender, attacker):
        solution = solve_zero_sum(game.matrix)
    x = make_policy(game, "defender", defender, solution)
    y = make_policy(game, "attacker", attacker, solution)
    d, a = expected_reward(game, x, y)
    return d, a, capture_proportion(game, x, y)


def _sweep_point(graph: AttackGraph, config: SweepConfig, value):
    params = config.params
    entries = None
    if config.parameter == "esc":
        params = replace(params, esc=float(value))
    elif config.parameter == "cap":
        params = replace(params, cap=float(value))
    elif config.parameter == "honeypots":
        params = replace(params, budget=int(value))
    else:
        entries = tuple(value)
    d, a, capture = evaluate_pairing(graph, params, config.defender, config.attacker, entries=entries)
    return EvalRow(
        parameter=config.parameter,
        value=value,
        defender_policy=config.defender,
        attacker_policy=config.attacker,
        defender_reward=d,
        attacker_reward=a,
        capture=capture,
    )


def sweep(graph: AttackGraph, config: SweepConfig) -> EvaluationResult:
    """Re-solve and evaluate the configured policy pair at each swept value.

    Points are independent; rows come back in the configured value order.
    """
    return EvaluationResult(rows=[_sweep_point(graph, config, v) for v in config.values])
