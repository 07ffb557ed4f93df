"""Honeypot allocation games on attack graphs.

Computes mixed-strategy equilibria for the edge honeypot placement game,
ranks hypothetical zero-day edges by their impact on the attacker's reward,
and builds mitigation plans against the most damaging ones.
"""

from .evaluation import (
    EvaluationResult,
    SweepConfig,
    capture_proportion,
    expected_reward,
    make_policy,
    sweep,
)
from .game import (
    GameInstance,
    GameParams,
    build_matrix,
    defender_actions,
    load_params,
)
from .graph import (
    AttackGraph,
    AttackPath,
    EnumerationLimitError,
    GraphError,
    NodeRecord,
    ZeroDayCandidate,
    augment,
    enumerate_attack_paths,
    generate_zero_day_candidates,
    load_graph,
)
from .lp import (
    GameSolution,
    SolverError,
    UnboundedError,
    solve_zero_sum,
)
from .mitigation import (
    MitigationPlan,
    NatureGame,
    alpha_mitigation,
    critical_point_mitigation,
    evaluate_mitigation,
    lp_mitigation,
    nature_game,
    random_mitigation,
    weighted_residual,
)
from .zeroday import (
    ZeroDayRecord,
    evaluate_candidate,
    rank_records,
    report_csv,
    scan_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "AttackGraph",
    "AttackPath",
    "EnumerationLimitError",
    "EvaluationResult",
    "GameInstance",
    "GameParams",
    "GameSolution",
    "GraphError",
    "MitigationPlan",
    "NatureGame",
    "NodeRecord",
    "SolverError",
    "SweepConfig",
    "UnboundedError",
    "ZeroDayCandidate",
    "ZeroDayRecord",
    "alpha_mitigation",
    "augment",
    "build_matrix",
    "capture_proportion",
    "critical_point_mitigation",
    "defender_actions",
    "enumerate_attack_paths",
    "evaluate_candidate",
    "evaluate_mitigation",
    "expected_reward",
    "generate_zero_day_candidates",
    "load_graph",
    "load_params",
    "lp_mitigation",
    "make_policy",
    "nature_game",
    "random_mitigation",
    "rank_records",
    "report_csv",
    "scan_candidates",
    "solve_zero_sum",
    "sweep",
    "weighted_residual",
]
