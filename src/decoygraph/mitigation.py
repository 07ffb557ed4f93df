"""Zero-day mitigation planning and evaluation.

Four planners: pin honeypots on the highest-impact candidate edges, place a
mitigating honeypot by minimizing a probability-weighted impact residual (a
continuous knapsack: candidates take the budget greedily in descending gain,
ties in report order), hedge against an adversarial choice of vulnerability
by solving an auxiliary game against nature, or reshape the base policy
itself by boosting the values of critical nodes and re-solving. Pinned
honeypots are deterministic extras layered on top of every base allocation
draw; they cost the usual per-honeypot fee and do not consume the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameInstance, GameParams, allocation_rows, build_matrix
from .graph import NodeRecord, graph_from_parts
from .lp import FEASIBILITY_TOL, GameSolution, solve_zero_sum
from .zeroday import _Augmentation, _check_strategy, normalize_criterion, rank_records

PREVENTION_TOL = 1e-6

PLAN_KINDS = ("alpha", "lp", "nature", "critical_point", "random", "none")


@dataclass(frozen=True)
class CandidateOutcome:
    edge: tuple[int, int]
    reward_before: float
    reward_after: float
    capture_before: float
    capture_after: float
    prevented: bool


@dataclass
class MitigationMetrics:
    outcomes: list[CandidateOutcome]
    effectiveness: float
    capture_before: float
    capture_after: float


@dataclass
class MitigationPlan:
    """A mitigation decision: pinned edges and/or a modified base policy."""

    kind: str
    pinned_edges: tuple[tuple[int, int], ...] = ()
    distribution: dict | None = None
    modified_policy: np.ndarray | None = None
    boosted_values: dict | None = None
    objective: float | None = None
    metrics: MitigationMetrics | None = None


@dataclass
class NatureGame:
    """Auxiliary zero-sum game: nature picks the vulnerability, the defender
    picks where to pin the mitigating honeypot."""

    locations: tuple[tuple[int, int], ...]
    matrix: np.ndarray
    solution: GameSolution


def none_mitigation() -> MitigationPlan:
    return MitigationPlan(kind="none")


def alpha_mitigation(report, k: int = 1) -> MitigationPlan:
    """Pin one extra honeypot on each of the top-k impact edges."""
    ranked = rank_records(report)
    if not ranked:
        raise ValueError("empty zero-day report")
    if not 1 <= k <= len(ranked):
        raise ValueError(f"k must be in 1..{len(ranked)}, got {k}")
    return MitigationPlan(kind="alpha", pinned_edges=tuple(r.edge for r in ranked[:k]))


def random_mitigation(report, rng) -> MitigationPlan:
    """Pin a single uniformly drawn candidate edge (seeded baseline)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rows = list(report)
    if not rows:
        raise ValueError("empty zero-day report")
    edge = rows[int(rng.integers(len(rows)))].edge
    return MitigationPlan(kind="random", pinned_edges=(edge,))


def weighted_residual(report, allocation, probabilities=None) -> float:
    """Probability-weighted impact left uncovered by an allocation x.

    Sum over candidates of P(e) * impact(e) * (1 - y(e) * x(e)); x values
    outside the allocation mapping count as zero. Raises ``ValueError`` for
    an x outside [0, 1], NaN included, or a non-finite impact.
    """
    rows = list(report)
    probs = _candidate_probabilities(rows, probabilities)
    total = 0.0
    for rec, p in zip(rows, probs):
        x_e = float(allocation.get(rec.edge, 0.0))
        if not 0.0 <= x_e <= 1.0:
            raise ValueError(f"allocation of {rec.edge} must be in [0, 1], got {x_e!r}")
        if not np.isfinite(rec.impact):
            raise ValueError(f"impact of {rec.edge} must be finite, got {rec.impact!r}")
        total += p * rec.impact * (1.0 - rec.exploit_probability * x_e)
    return total


def _candidate_probabilities(rows, probabilities):
    if not rows:
        raise ValueError("empty zero-day report")
    if probabilities is None:
        return np.full(len(rows), 1.0 / len(rows))
    probs = np.asarray(
        [probabilities[r.edge] for r in rows] if isinstance(probabilities, dict) else probabilities,
        dtype=float,
    )
    if probs.size != len(rows):
        raise ValueError("one probability per candidate required")
    if not np.all(np.isfinite(probs)) or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("candidate probabilities must be finite, nonnegative and sum to 1")
    return probs


def lp_mitigation(report, probabilities=None, budget: float = 1.0) -> MitigationPlan:
    """Minimize the weighted impact residual over fractional pin placements.

    Solves min J(x) over 0 <= x(e) <= 1 with sum x <= budget, the continuous
    knapsack max sum g(e) x(e) with gains g(e) = P(e) * impact(e) * y(e).
    Greedy (Dantzig, 1957): candidates in descending gain, ties in report
    order, each take x = 1 until the budget left is at most
    1 + FEASIBILITY_TOL, which the next one takes whole; candidates whose
    gain is not above FEASIBILITY_TOL keep x = 0. These are the pivots, and
    the values, of Dantzig's simplex rule on this LP's tableau.
    """
    rows = list(report)
    if not np.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    probs = _candidate_probabilities(rows, probabilities)
    gains = np.array([p * r.impact * r.exploit_probability for p, r in zip(probs, rows)])
    if not np.all(np.isfinite(gains)):
        raise ValueError("candidate gains P(e) * impact(e) * y(e) must be finite")
    x = np.zeros(len(rows))
    left = float(budget) + 0.0  # a budget of -0.0 places +0.0
    for i in np.argsort(-gains, kind="stable"):
        if gains[i] <= FEASIBILITY_TOL:
            break
        if left <= 1.0 + FEASIBILITY_TOL:
            x[i] = left
            break
        x[i] = 1.0
        left -= 1.0
    objective = float(gains @ x)
    allocation = {r.edge: float(v) for r, v in zip(rows, x)}
    residual = float(sum(p * r.impact for p, r in zip(probs, rows)) - objective)
    pinned = tuple(r.edge for r, v in zip(rows, x) if v > 1.0 - 1e-9)
    return MitigationPlan(kind="lp", pinned_edges=pinned, distribution=allocation, objective=residual)


def _support(actions, policy):
    """The allocations a mixed defender strategy plays, in action order, and
    their probabilities."""
    probs = np.asarray(policy)
    index = np.flatnonzero(probs > 1e-12)
    return [actions[i] for i in index], probs[index].tolist()


def _path_scores(shared: _Augmentation, support, pins):
    """Attacker reward and capture probability of every path of every
    candidate's augmented graph against a mixed defender (its support) with
    the frozenset ``pins``: the base paths' (2, paths) array, and one per
    candidate, its paths in canonical order.

    The path table is scored once per "own edge pinned" flag that some
    candidate has, on that flag's stand-in graph; each candidate takes its
    columns from its flag's scores.
    """
    flags = [edge in pins for edge in shared.edges]
    tables = {flag: _mixed_columns(shared.stand_in(flag, pins), shared.columns, shared.params, support, pins)
              for flag in dict.fromkeys(flags)}
    base = tables[flags[0]][:, : len(shared.base_paths)]
    return base, [np.take(tables[flag], index, axis=1) for flag, index in zip(flags, shared.index)]


def _mixed_columns(graph, columns, params, support, pinned):
    """Attacker reward and capture probability per path of ``columns``, as a
    (2, paths) array, against a mixed defender (its support) with
    deterministic pinned extras, whose allocation rows are laid out on
    ``graph``.

    The sums run over the support rows one at a time, in support order, and
    are vectorised across paths only. The attacker's old paths tie exactly at
    equilibrium, and a matrix product (``probs @ rows``) rounds each column
    in its own order, which moves the argmax that breaks those ties.
    """
    allocations, probs = support
    rows, deployed = allocation_rows(graph, allocations, pinned)
    scores = np.zeros((2, len(columns.paths)))
    for prob, row, hit in zip(probs, columns.payoff(params, rows, deployed), columns.hits(rows)):
        scores[0] -= prob * row
        scores[1] += prob * hit
    return scores


def nature_game(game1: GameInstance, x1, report, *, criterion: str = "pessimistic") -> NatureGame:
    """Worst-case mitigation: solve defender-vs-nature over pin locations.

    Off-diagonal cells carry the defender's unmitigated expected reward for
    nature's chosen vulnerability under the given criterion; diagonal cells
    score the base policy plus one pinned honeypot at the matching location
    against the attacker's best response on the augmented graph.
    """
    rows = list(report)
    if not rows:
        raise ValueError("no candidate locations for the nature game")
    criterion = normalize_criterion(criterion)

    n = len(rows)
    matrix = np.empty((n, n))
    for j, rec in enumerate(rows):
        unmitigated = rec.pessimistic if criterion == "pessimistic" else rec.optimistic
        matrix[:, j] = -unmitigated
    support = _support(game1.actions, _check_strategy(x1, game1.actions))
    shared = _Augmentation(game1, [rec.edge for rec in rows])
    # each location is a non-edge of the original graph: on its own augmented
    # graph its pin covers exactly the candidate's edge E, on the base paths
    # nothing, and it deploys one honeypot. So location 0's pin, on its own
    # graph, scores every candidate's paths as that candidate's own pin does
    pins = frozenset(shared.edges[:1])
    scores = _mixed_columns(shared.stand_in(True, pins), shared.columns, game1.params, support, pins)
    for i, index in enumerate(shared.index):
        matrix[i, i] = -float(np.max(scores[0, index]))
    solution = solve_zero_sum(matrix)
    return NatureGame(locations=tuple(r.edge for r in rows), matrix=matrix, solution=solution)


def critical_point_mitigation(
    game1: GameInstance,
    params: GameParams,
    report,
    *,
    kappa: float = 1.5,
    top_n: int = 10,
    add_honeypot: bool = False,
) -> MitigationPlan:
    """Reshape the base policy around critical nodes instead of pinning.

    Critical nodes are non-entry endpoints of the positive-impact candidate
    edges (up to ``top_n`` in impact order) that lie on at least two attack
    paths of the original graph. Their values are scaled by ``kappa`` and the
    base game is re-solved on the boosted values; actual rewards keep the
    true values. Optionally one honeypot is pinned on the top-impact edge.
    """
    if not math.isfinite(kappa) or kappa < 1:
        raise ValueError(f"kappa must be a finite number >= 1, got {kappa}")
    if top_n < 0:
        raise ValueError(f"top_n must be nonnegative, got {top_n}")
    ranked = rank_records(report)
    top = [r for r in ranked if r.impact > 1e-9][:top_n]

    entries = set(game1.graph.entry_ids)
    candidate_nodes = {n for r in top for n in r.edge if n not in entries}
    path_hits = {n: 0 for n in candidate_nodes}
    for path in game1.paths:
        for n in candidate_nodes & set(path.nodes):
            path_hits[n] += 1
    critical = sorted(n for n, hits in path_hits.items() if hits >= 2)

    boosted = {n: game1.graph.value(n) * kappa for n in critical}
    nodes = tuple(
        NodeRecord(id=n.id, value=boosted.get(n.id, n.value), role=n.role)
        for n in game1.graph.nodes
    )
    boosted_graph = graph_from_parts(nodes, game1.graph.edges)
    boosted_game = build_matrix(boosted_graph, params)
    solution = solve_zero_sum(boosted_game.matrix)

    pinned = ()
    if add_honeypot and top:
        pinned = (top[0].edge,)
    return MitigationPlan(
        kind="critical_point",
        pinned_edges=pinned,
        modified_policy=solution.defender_strategy,
        boosted_values=boosted,
    )


def evaluate_mitigation(
    plan: MitigationPlan,
    game1: GameInstance,
    x_base,
    report,
    *,
    criterion: str = "pessimistic",
) -> MitigationMetrics:
    """Score a plan over every scanned candidate.

    The base policy (no pins) and the mitigated defender (modified or base
    policy plus pins) are each scored once on the path table of
    :class:`~decoygraph.zeroday._Augmentation`: the original paths, then the
    paths each candidate's edge adds. Each candidate reads its paths from
    that table through its index, in canonical order. The attacker's
    criterion (``"pessimistic"``/``"pes"`` or ``"optimistic"``/``"opt"``)
    strategy is recomputed against the mitigated defender: a best response
    (pessimistic) or the equilibrium attacker strategy of the pinned
    augmented game (optimistic). A candidate counts as prevented when the
    mitigated attacker reward does not exceed what the attacker could
    already get on the original graph against the same mitigated defender
    (within ``PREVENTION_TOL``), so the zero-day yields no residual benefit.
    Capture proportions are exact expectations under both strategies.
    """
    criterion = normalize_criterion(criterion)
    x_base = _check_strategy(x_base, game1.actions)
    policy = x_base if plan.modified_policy is None else _check_strategy(plan.modified_policy, game1.actions)
    rows = list(report)
    shared = _Augmentation(game1, [rec.edge for rec in rows])
    if not rows:
        return MitigationMetrics(outcomes=[], effectiveness=0.0, capture_before=0.0, capture_after=0.0)
    pins = frozenset(tuple(p) for p in plan.pinned_edges)
    before = _support(game1.actions, x_base)
    after = _support(game1.actions, policy)
    # a pin on a candidate edge covers no original path, and deploys one
    # honeypot whether or not that candidate's edge is added
    base_after, scores_after = _path_scores(shared, after, pins)
    baseline = float(np.max(base_after[0]))
    _, scores_before = _path_scores(shared, before, frozenset())
    outcomes = []
    for k, (b, a) in enumerate(zip(scores_before, scores_after)):
        b_idx = int(np.argmax(b[0]))
        if criterion == "optimistic":
            y2 = shared.game(k, pins).attacker_equilibrium
            reward_after = float(a[0] @ y2)
            capture_after = float(a[1] @ y2)
        else:
            a_idx = int(np.argmax(a[0]))
            reward_after = float(a[0, a_idx])
            capture_after = float(a[1, a_idx])

        outcomes.append(
            CandidateOutcome(
                edge=rows[k].edge,
                reward_before=float(b[0, b_idx]),
                reward_after=reward_after,
                capture_before=float(b[1, b_idx]),
                capture_after=capture_after,
                prevented=bool(reward_after <= baseline + PREVENTION_TOL),
            )
        )
    return MitigationMetrics(
        outcomes=outcomes,
        effectiveness=sum(o.prevented for o in outcomes) / len(outcomes),
        capture_before=float(np.mean([o.capture_before for o in outcomes])),
        capture_after=float(np.mean([o.capture_after for o in outcomes])),
    )
