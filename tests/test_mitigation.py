import hashlib
import json
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import decoygraph.cli
import oracles
from decoygraph import mitigation, zeroday
from decoygraph.game import GameParams, PathColumns, allocation_rows, build_matrix, defender_actions, pure_strategy
from decoygraph.graph import (
    NodeRecord,
    augment,
    enumerate_attack_paths,
    generate_zero_day_candidates,
    graph_from_parts,
    join_added_paths,
)
from decoygraph.lp import FEASIBILITY_TOL as TOL, solve_zero_sum
from decoygraph.mitigation import (
    MitigationPlan,
    alpha_mitigation,
    critical_point_mitigation,
    evaluate_mitigation,
    lp_mitigation,
    nature_game,
    none_mitigation,
    random_mitigation,
    weighted_residual,
)
from decoygraph.zeroday import CRITERIA, PESSIMISTIC_MODES, scan_candidates
from oracles import literal_reward
from test_zeroday import _outcome, make_record, records_digest, scan_games


class TestAlpha:
    def test_pins_top_impact_edges(self):
        rows = [make_record((1, 3), 26.0), make_record((2, 5), 0.0)]
        assert alpha_mitigation(rows, k=1).pinned_edges == ((1, 3),)
        assert alpha_mitigation(rows, k=2).pinned_edges == ((1, 3), (2, 5))

    def test_k_bounds(self):
        rows = [make_record((1, 3), 1.0)]
        with pytest.raises(ValueError):
            alpha_mitigation(rows, k=0)
        with pytest.raises(ValueError):
            alpha_mitigation(rows, k=2)

    def test_line_graph_pin_turns_the_table(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)
        plan = alpha_mitigation(rows, k=1)
        assert plan.pinned_edges == ((1, 3),)
        metrics = evaluate_mitigation(plan, game, sol.defender_strategy, rows)
        by_edge = {o.edge: o for o in metrics.outcomes}
        hit = by_edge[(1, 3)]
        # former best response [1, 3] now lands on the pin and pays for it
        assert hit.reward_before == pytest.approx(10.0)
        assert hit.reward_after == pytest.approx(-15.0)
        assert hit.prevented
        assert metrics.effectiveness == pytest.approx(1.0)


class TestLpMitigation:
    def test_concentrates_on_best_weighted_candidate(self):
        rows = [make_record((1, 3), 26.0), make_record((2, 5), 0.0)]
        rows[0] = rows[0].__class__(**{**rows[0].__dict__, "exploit_probability": 1.0})
        rows[1] = rows[1].__class__(**{**rows[1].__dict__, "exploit_probability": 0.3})
        plan = lp_mitigation(rows, budget=1.0)
        assert plan.distribution[(1, 3)] == pytest.approx(1.0, abs=1e-9)
        assert plan.distribution[(2, 5)] == pytest.approx(0.0, abs=1e-9)
        assert plan.objective == pytest.approx(0.0, abs=1e-9)
        assert plan.pinned_edges == ((1, 3),)

    def test_zero_impacts_keep_zero_allocation(self):
        rows = [make_record((1, 3), 0.0), make_record((2, 5), 0.0)]
        plan = lp_mitigation(rows, budget=1.0)
        assert all(x == pytest.approx(0.0) for x in plan.distribution.values())
        assert plan.objective == pytest.approx(0.0)

    def test_zero_budget(self):
        rows = [make_record((1, 3), 26.0), make_record((2, 5), 4.0)]
        plan = lp_mitigation(rows, budget=0.0)
        assert all(x == pytest.approx(0.0) for x in plan.distribution.values())
        assert plan.objective == pytest.approx(0.5 * 26.0 + 0.5 * 4.0)

    def test_optimum_beats_random_allocations(self, tree7):
        graph, params, _, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)
        plan = lp_mitigation(rows, budget=1.0)
        rng = np.random.default_rng(17)
        no_alloc = weighted_residual(rows, {})
        assert plan.objective <= no_alloc + 1e-9
        for _ in range(100):
            raw = rng.dirichlet(np.ones(len(rows)))
            alloc = {r.edge: float(v) for r, v in zip(rows, raw)}
            assert plan.objective <= weighted_residual(rows, alloc) + 1e-9

    def test_empty_report_is_rejected(self):
        with pytest.raises(ValueError, match="empty zero-day report"):
            weighted_residual([], {})

    def test_explicit_probabilities(self):
        rows = [make_record((1, 3), 10.0), make_record((2, 5), 10.0)]
        rows[0] = rows[0].__class__(**{**rows[0].__dict__, "exploit_probability": 1.0})
        rows[1] = rows[1].__class__(**{**rows[1].__dict__, "exploit_probability": 1.0})
        plan = lp_mitigation(rows, probabilities={(1, 3): 0.1, (2, 5): 0.9}, budget=1.0)
        assert plan.distribution[(2, 5)] == pytest.approx(1.0)
        with pytest.raises(ValueError, match="sum to 1"):
            lp_mitigation(rows, probabilities=[0.4, 0.4])

    def test_picks_extreme_coefficient(self):
        # maximize 13 x1 + 0 x2 over the budgeted box
        rows = [replace(make_record((1, 3), 13.0), exploit_probability=1.0), make_record((2, 5), 0.0)]
        plan = lp_mitigation(rows, probabilities=[1.0, 0.0], budget=1.0)
        assert plan.distribution == {(1, 3): 1.0, (2, 5): 0.0}
        assert plan.pinned_edges == ((1, 3),)

    def test_non_finite_probabilities_are_rejected(self):
        rows = [replace(make_record(edge, 4.0), exploit_probability=1.0) for edge in ((1, 3), (2, 5))]
        for bad in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0]):
            with pytest.raises(ValueError, match="finite"):
                weighted_residual(rows, {}, probabilities=bad)
            with pytest.raises(ValueError, match="finite"):
                lp_mitigation(rows, probabilities=bad)

    def test_non_finite_budget_and_gains_are_rejected(self):
        rows = [replace(make_record((1, 3), 4.0), exploit_probability=1.0)]
        for budget in (np.inf, np.nan):
            with pytest.raises(ValueError, match="budget"):
                lp_mitigation(rows, budget=budget)
        assert weighted_residual(rows, {(1, 3): 1.0}) == 0.0
        assert weighted_residual(rows, {(1, 3): -0.0}) == 4.0
        for bad in (np.nan, np.inf, -np.inf, 7.0, 1.0 + 1e-12, -1e-12):
            with pytest.raises(ValueError, match=r"allocation of \(1, 3\) must be in \[0, 1\]"):
                weighted_residual(rows, {(1, 3): bad})
        for impact in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="impact of .* must be finite"):
                weighted_residual([replace(rows[0], impact=impact)], {})
        rows.append(replace(make_record((2, 5), np.inf), exploit_probability=1.0))
        with pytest.raises(ValueError, match="gains"):
            lp_mitigation(rows)


# budgets where the ratio test's tie tolerance, the sign of a zero budget
# and fractional remainders decide the placement
KNAPSACK_BUDGETS = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 2.75, 1.0 + 1e-10, 1.0 - 1e-10, 1.0 + 2e-9, 2.0 + 1e-10]
) | st.floats(0.0, 9.0)


@st.composite
def knapsacks(draw):
    """(target gains, probability weights or None, exploit probabilities,
    budget): gains from a small integer set, so ties are common, and
    around FEASIBILITY_TOL, the simplex's optimality threshold."""
    n = draw(st.integers(1, 8))
    targets = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0]) | st.sampled_from(
        [0.5 * TOL, TOL, TOL * (1 - 1e-6), TOL * (1 + 1e-6), 2 * TOL]
    )
    gains = draw(st.lists(targets, min_size=n, max_size=n))
    weights = draw(st.none() | st.lists(st.integers(1, 4), min_size=n, max_size=n))
    ys = draw(st.lists(st.sampled_from([1.0, 0.5, 0.25]), min_size=n, max_size=n))
    return gains, weights, ys, draw(KNAPSACK_BUDGETS)


def reference_knapsack(gains, budget):
    """The knapsack's optimum by the reference two-phase simplex: max
    gains @ x s.t. sum x <= budget, 0 <= x <= 1, with the bounds as unit
    rows after the budget row; ``0.0 + u`` as the bound substitution
    x = 0 + 1 * u gave."""
    n = gains.size
    u, _ = oracles._solve_canonical(
        -gains, np.vstack([np.ones((1, n)), np.eye(n)]), np.concatenate([[budget], np.ones(n)]),
        np.zeros((0, n)), np.zeros(0),
    )
    return 0.0 + u


@given(case=knapsacks())
@example(case=([1.0, 2.0, 2.0], None, [1.0] * 3, 1.0))  # ties go to the earliest
@example(case=([1.0, 1.0], None, [1.0] * 2, 1.0 + 1e-10))  # tie with the budget row
@example(case=([0.5 * TOL, 1.0], None, [1.0] * 2, 2.0))  # gains at or below the tolerance
@example(case=([1.0], None, [1.0], -0.0))  # a -0.0 budget places +0.0
@settings(max_examples=300, deadline=None)
def test_lp_mitigation_matches_reference_simplex(case):
    targets, weights, ys, budget = case
    n = len(targets)
    probs = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, float) / sum(weights)
    rows = [
        replace(make_record((i, 100 + i), g / (p * y)), exploit_probability=y)
        for i, (g, p, y) in enumerate(zip(targets, probs, ys))
    ]
    plan = lp_mitigation(rows, probabilities=None if weights is None else list(probs), budget=budget)
    gains = np.array([p * r.impact * r.exploit_probability for p, r in zip(probs, rows)])
    x = reference_knapsack(gains, budget)
    assert np.array(list(plan.distribution.values())).tobytes() == x.tobytes()
    assert plan.pinned_edges == tuple(r.edge for r, v in zip(rows, x) if v > 1.0 - 1e-9)
    residual = float(sum(p * r.impact for p, r in zip(probs, rows)) - float(gains @ x))
    assert plan.objective.hex() == residual.hex()


class TestNatureGame:
    def test_single_location_is_pure(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)[:1]
        result = nature_game(game, sol.defender_strategy, rows)
        assert result.locations == ((1, 3),)
        assert result.solution.defender_strategy == pytest.approx([1.0])

    def test_diagonal_reflects_pinning(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)[:2]
        result = nature_game(game, sol.defender_strategy, rows)
        # nature exploiting (1, 3) against an unmitigated defender nets -10
        assert result.matrix[1, 0] == pytest.approx(-10.0)
        # mitigating the right location restores the defender's reward
        assert result.matrix[0, 0] == pytest.approx(15.0)

    def test_value_bracket(self, tree7):
        graph, params, game, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)[:4]
        result = nature_game(game, sol.defender_strategy, rows)
        maximin = np.max(np.min(result.matrix, axis=1))
        best_diag = np.max(np.diag(result.matrix))
        assert result.solution.value >= maximin - 1e-9
        assert result.solution.value <= best_diag + 1e-9

    def test_rejects_unknown_kinds(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)[:1]
        with pytest.raises(ValueError, match="criterion"):
            nature_game(game, sol.defender_strategy, rows, criterion="hopeful")

    def test_bad_strategy_is_rejected_before_any_solve(self, net20, monkeypatch):
        # the optimistic column reads each record's deferred value, which
        # solves an augmented game; a bad x1 must raise before the first one
        graph, params, game, sol = net20
        rows = scan_candidates(graph, params, solution=sol)[:10]
        calls = []

        def counted(matrix, **kwargs):
            calls.append(matrix.shape)
            return solve_zero_sum(matrix, **kwargs)

        monkeypatch.setattr(zeroday, "solve_zero_sum", counted)
        with pytest.raises(ValueError, match="sums to"):
            nature_game(game, 5 * sol.defender_strategy, rows, criterion="optimistic")
        assert calls == []
        nature_game(game, sol.defender_strategy, rows, criterion="optimistic")
        assert calls


def diamond():
    nodes = [
        NodeRecord(1, 0.0, "entry"),
        NodeRecord(2, 4.0, "intermediate"),
        NodeRecord(3, 1.0, "intermediate"),
        NodeRecord(4, 3.0, "target"),
    ]
    return graph_from_parts(nodes, [(1, 2), (1, 3), (2, 4), (3, 4)])


class TestCriticalPoint:
    def test_kappa_one_reproduces_base_game(self, tree7):
        graph, params, game, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)
        plan = critical_point_mitigation(game, params, rows, kappa=1.0)
        rebuilt = build_matrix(graph, params)
        re_sol = solve_zero_sum(rebuilt.matrix)
        assert re_sol.value == sol.value
        assert plan.modified_policy == pytest.approx(sol.defender_strategy)

    def test_line_graph_critical_set_empty(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)
        plan = critical_point_mitigation(game, params, rows, kappa=2.0)
        assert plan.boosted_values == {}
        assert plan.modified_policy == pytest.approx(sol.defender_strategy)

    def test_diamond_shifts_mass_to_boosted_node(self):
        graph = diamond()
        params = GameParams(cap=10, esc=5, honeypot_cost=1, attack_cost_per_hop=1, budget=1)
        game = build_matrix(graph, params)
        sol = solve_zero_sum(game.matrix)
        rows = scan_candidates(graph, params, solution=sol)
        plan = critical_point_mitigation(game, params, rows, kappa=2.0)
        assert plan.boosted_values == {4: 6.0}

        def coverage(x):
            ids = {graph.edge_index[(2, 4)], graph.edge_index[(3, 4)]}
            return sum(p for a, p in zip(game.actions, x) if ids & set(a))

        assert coverage(plan.modified_policy) > coverage(sol.defender_strategy) + 0.1

    def test_kappa_validation(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)
        for kappa in (0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="kappa must be a finite number >= 1"):
                critical_point_mitigation(game, params, rows, kappa=kappa)

    def test_negative_top_n_rejected(self, tree7):
        graph, params, game, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)
        with pytest.raises(ValueError, match="top_n must be nonnegative"):
            critical_point_mitigation(game, params, rows, top_n=-3)
        assert critical_point_mitigation(game, params, rows, top_n=0).boosted_values == {}

    def test_add_honeypot_variant(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)
        plan = critical_point_mitigation(game, params, rows, kappa=1.5, add_honeypot=True)
        assert plan.pinned_edges == ((1, 3),)


class TestEvaluateMitigation:
    def test_none_plan_prevents_only_flat_candidates(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)
        metrics = evaluate_mitigation(none_mitigation(), game, sol.defender_strategy, rows)
        flags = {o.edge: o.prevented for o in metrics.outcomes}
        assert flags[(1, 3)] is False
        assert all(flags[e] for e in flags if e != (1, 3))
        assert metrics.effectiveness == pytest.approx(0.75)

    def test_pin_never_decreases_capture_for_fixed_attacker(self, tree7):
        graph, params, game, sol = tree7
        from decoygraph.evaluation import capture_proportion

        def capture(pins):
            return sol.defender_strategy @ game.columns.hits(allocation_rows(graph, game.actions, pins)[0]) @ y

        rng = np.random.default_rng(9)
        for _ in range(25):
            y = rng.dirichlet(np.ones(len(game.paths)))
            base = capture_proportion(game, sol.defender_strategy, y)
            assert capture(()) == base
            pinned = capture([(2, 3)])
            edge = graph.edges[int(rng.integers(len(graph.edges)))]
            pinned_real = capture([edge])
            assert pinned >= base - 1e-12
            assert pinned_real >= base - 1e-12

    def test_tied_best_responses_keep_path_order_tie_break(self, tree7):
        # In 21 of tree7's 36 outcomes the attacker's best paths tie exactly
        # against the pinned base policy; the first in path order is scored.
        # Summing the support as one matrix-vector product rounds the tied
        # columns apart and gives 0.391975 overall and 0.481481 on the ties.
        graph, params, game, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)
        plan = alpha_mitigation(rows, k=1)
        metrics = evaluate_mitigation(plan, game, sol.defender_strategy, rows)
        assert metrics.capture_after == pytest.approx(0.413580, abs=1e-6)
        support = [(a, p) for a, p in zip(game.actions, sol.defender_strategy) if p > 1e-12]
        tied = []
        for o in metrics.outcomes:
            graph2 = augment(graph, o.edge)
            attacker = [
                -sum(p * literal_reward(graph.values, graph2.edges, params, a, path.nodes,
                                        plan.pinned_edges) for a, p in support)
                for path in enumerate_attack_paths(graph2)
            ]
            if sum(r >= max(attacker) - 1e-9 for r in attacker) > 1:
                tied.append(o.capture_after)
        assert len(tied) == 21
        assert np.mean(tied) == pytest.approx(0.518519, abs=1e-6)

    def test_random_plan_is_seeded(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)
        a = random_mitigation(rows, 42)
        b = random_mitigation(rows, 42)
        assert a.pinned_edges == b.pinned_edges
        assert a.pinned_edges[0] in {r.edge for r in rows}

    def test_alpha_full_coverage_prevents_everything(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)
        plan = alpha_mitigation(rows, k=len(rows))
        metrics = evaluate_mitigation(plan, game, sol.defender_strategy, rows)
        assert metrics.effectiveness == pytest.approx(1.0)

    def test_optimistic_criterion_runs(self, line3):
        graph, params, game, sol = line3
        rows = scan_candidates(graph, params, solution=sol)
        plan = alpha_mitigation(rows, k=1)
        metrics = evaluate_mitigation(plan, game, sol.defender_strategy, rows, criterion="optimistic")
        assert 0.0 <= metrics.capture_after <= 1.0
        assert len(metrics.outcomes) == len(rows)

    def test_criterion_aliases_and_unknown_values(self, tree7):
        graph, params, game, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)[:4]
        plan = alpha_mitigation(rows, k=1)
        x = sol.defender_strategy
        optimistic = evaluate_mitigation(plan, game, x, rows, criterion="optimistic")
        pessimistic = evaluate_mitigation(plan, game, x, rows, criterion="pessimistic")
        assert optimistic.outcomes != pessimistic.outcomes
        assert evaluate_mitigation(plan, game, x, rows, criterion="opt").outcomes == optimistic.outcomes
        assert evaluate_mitigation(plan, game, x, rows, criterion="pes").outcomes == pessimistic.outcomes
        with pytest.raises(ValueError, match="criterion"):
            evaluate_mitigation(plan, game, x, rows, criterion="hopeful")

    @pytest.mark.parametrize("criterion", ["pessimistic", "optimistic"])
    def test_empty_report_gives_zero_metrics(self, tree7, criterion):
        _, _, game, sol = tree7
        metrics = evaluate_mitigation(none_mitigation(), game, sol.defender_strategy, [], criterion=criterion)
        assert metrics == mitigation.MitigationMetrics(outcomes=[], effectiveness=0.0, capture_before=0.0,
                                                       capture_after=0.0)

    @pytest.mark.parametrize("criterion", ["pessimistic", "optimistic"])
    def test_empty_report_joins_no_paths(self, tree7, monkeypatch, criterion):
        _, _, game, sol = tree7
        joins = []

        def counted(*args):
            joins.append(args)
            return join_added_paths(*args)

        monkeypatch.setattr(zeroday, "join_added_paths", counted)
        evaluate_mitigation(none_mitigation(), game, sol.defender_strategy, [], criterion=criterion)
        assert joins == []
        with pytest.raises(ValueError, match="sums to"):
            evaluate_mitigation(none_mitigation(), game, 5 * sol.defender_strategy, [], criterion=criterion)

    def test_bad_strategies_are_rejected(self, tree7):
        graph, params, game, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)
        x = sol.defender_strategy
        assert len(game.actions) == 7
        plan = alpha_mitigation(rows, k=1)
        cases = [
            (pure_strategy(3, 0), none_mitigation(), "length"),
            (5 * x, none_mitigation(), "sums to"),
            (np.append(x, 0.0), none_mitigation(), "length"),
            (x, MitigationPlan(kind="critical_point", modified_policy=pure_strategy(2, 0)), "length"),
            (x, MitigationPlan(kind="critical_point", modified_policy=x - pure_strategy(7, 0)), "negative"),
        ]
        for x_base, bad_plan, message in cases:
            for criterion in ("pessimistic", "optimistic"):
                with pytest.raises(ValueError, match=message):
                    evaluate_mitigation(bad_plan, game, x_base, rows, criterion=criterion)
        with pytest.raises(ValueError, match="sums to"):
            nature_game(game, 5 * x, rows[:3])
        with pytest.raises(ValueError, match="length"):
            nature_game(game, pure_strategy(3, 0), rows[:3])
        assert evaluate_mitigation(plan, game, x, rows).outcomes


def oracle_columns(graph, params, policy, actions, edge, pins):
    """Attacker reward and capture probability of every path of the graph
    augmented with ``edge``, against ``policy`` plus ``pins``, from the
    literal per-node reward and a set intersection per allocation."""
    graph2 = augment(graph, edge)
    support = [(a, p) for a, p in zip(actions, policy) if p > 1e-12]
    rewards, captures = [], []
    for path in enumerate_attack_paths(graph2):
        hops = set(zip(path.nodes, path.nodes[1:]))
        rewards.append(-sum(p * literal_reward(graph.values, graph2.edges, params, a, path.nodes, pins)
                            for a, p in support))
        captures.append(sum(p for a, p in support
                            if hops & ({graph2.edges[e] for e in a} | set(pins))))
    return rewards, captures


def best_response_captures(rewards, captures):
    best = max(rewards)
    return [c for r, c in zip(rewards, captures) if r >= best - 1e-9]


@pytest.mark.parametrize("name, stride", [("line3", 1), ("tree7", 1), ("net20", 12)])
def test_pessimistic_outcomes_match_literal_oracle(request, name, stride):
    graph, params, game, sol = request.getfixturevalue(name)
    rows = scan_candidates(graph, params, solution=sol)
    sample = rows[::stride]
    # critical-point boosting leaves the fixtures' equilibria unchanged, so
    # one plan also moves half the base policy's mass onto the last action
    shifted = (sol.defender_strategy + pure_strategy(len(game.actions), len(game.actions) - 1)) / 2
    plans = (
        none_mitigation(),
        alpha_mitigation(rows, k=1),
        critical_point_mitigation(game, params, rows, add_honeypot=True),
        MitigationPlan(kind="critical_point", pinned_edges=(rows[-1].edge,), modified_policy=shifted),
    )
    for plan in plans:
        policy = sol.defender_strategy if plan.modified_policy is None else plan.modified_policy
        metrics = evaluate_mitigation(plan, game, sol.defender_strategy, sample)
        assert [o.edge for o in metrics.outcomes] == [r.edge for r in sample]
        for o in metrics.outcomes:
            before = oracle_columns(graph, params, sol.defender_strategy, game.actions, o.edge, ())
            after = oracle_columns(graph, params, policy, game.actions, o.edge, plan.pinned_edges)
            assert o.reward_before == pytest.approx(max(before[0]), rel=1e-12, abs=1e-9)
            assert o.reward_after == pytest.approx(max(after[0]), rel=1e-12, abs=1e-9)
            assert any(o.capture_before == pytest.approx(c, abs=1e-12) for c in best_response_captures(*before))
            assert any(o.capture_after == pytest.approx(c, abs=1e-12) for c in best_response_captures(*after))


@st.composite
def mitigation_cases(draw):
    """A ``scan_games`` game, a report of 1-8 of its non-edges in drawn
    order, 0-3 pins among the report's edges plus maybe one base-graph edge,
    and a plan policy: the base policy, or its mix with a pure action (as an
    index into the actions and a weight)."""
    graph, params = draw(scan_games())
    non_edges = [c.edge for c in generate_zero_day_candidates(graph)]
    assume(non_edges)
    edges = draw(st.lists(st.sampled_from(non_edges), unique=True, min_size=1, max_size=8))
    pins = draw(st.lists(st.sampled_from(edges), unique=True, max_size=3))
    if draw(st.booleans()):
        pins.append(draw(st.sampled_from(graph.edges)))
    mix = draw(st.none() | st.tuples(st.integers(min_value=0, max_value=10**6), st.sampled_from((0.25, 0.5, 0.9))))
    return graph, params, edges, tuple(pins), mix


def recording(solved):
    """``solve_zero_sum`` that first appends the matrix it is given to
    ``solved``."""
    def solve(matrix, **kwargs):
        solved.append(np.array(matrix))
        return solve_zero_sum(matrix, **kwargs)

    return solve


@given(mitigation_cases())
@settings(max_examples=60, deadline=None)
def test_mitigation_and_nature_match_literal_oracles(case):
    # evaluate_mitigation and nature_game against per-candidate games built
    # from scratch: augment -> full enumeration -> literal rewards, and the
    # pinned augmented game -> solve_zero_sum for the optimistic criterion
    graph, params, edges, pins, mix = case
    game = build_matrix(graph, params)
    sol = _outcome(lambda: solve_zero_sum(game.matrix))
    assume(not isinstance(sol, tuple))
    x = sol.defender_strategy
    policy = x
    if mix is not None:
        index, weight = mix
        policy = (1 - weight) * x + weight * pure_strategy(len(x), index % len(x))
    report = [make_record(edge, 0.0) for edge in edges]
    plan = MitigationPlan(kind="critical_point", pinned_edges=pins, modified_policy=policy)
    before = [oracle_columns(graph, params, x, game.actions, edge, ()) for edge in edges]
    after = [oracle_columns(graph, params, policy, game.actions, edge, pins) for edge in edges]

    metrics = evaluate_mitigation(plan, game, x, report)
    assert [o.edge for o in metrics.outcomes] == edges
    for o, b, a in zip(metrics.outcomes, before, after):
        assert o.reward_before == pytest.approx(max(b[0]), rel=1e-12, abs=1e-9)
        assert o.reward_after == pytest.approx(max(a[0]), rel=1e-12, abs=1e-9)
        assert any(o.capture_before == pytest.approx(c, abs=1e-12) for c in best_response_captures(*b))
        assert any(o.capture_after == pytest.approx(c, abs=1e-12) for c in best_response_captures(*a))

    games = []
    for edge in edges:
        graph2 = augment(graph, edge)
        columns = PathColumns.of_paths(graph2, enumerate_attack_paths(graph2))
        games.append(columns.payoff(params, *allocation_rows(graph2, defender_actions(graph2, params), pins)))
    expected = _outcome(lambda: [solve_zero_sum(matrix).attacker_strategy for matrix in games])
    solved = []
    with patch.object(mitigation, "solve_zero_sum", recording(solved)), \
            patch.object(zeroday, "solve_zero_sum", recording(solved)):
        metrics = _outcome(lambda: evaluate_mitigation(plan, game, x, report, criterion="optimistic"))
    bits = {(m.shape, m.tobytes()) for m in games}
    assert {(m.shape, m.tobytes()) for m in solved} <= bits
    if isinstance(expected, tuple):
        assert metrics == expected
    else:
        assert {(m.shape, m.tobytes()) for m in solved} == bits
        for o, b, a, y2 in zip(metrics.outcomes, before, after, expected):
            assert o.reward_before == pytest.approx(max(b[0]), rel=1e-12, abs=1e-9)
            assert o.reward_after == pytest.approx(np.dot(a[0], y2), rel=1e-12, abs=1e-9)
            assert o.capture_after == pytest.approx(np.dot(a[1], y2), abs=1e-12)

    solved = []
    with patch.object(mitigation, "solve_zero_sum", recording(solved)):
        _outcome(lambda: nature_game(game, policy, report))
    (matrix,) = solved
    for i, edge in enumerate(edges):
        rewards, _ = oracle_columns(graph, params, policy, game.actions, edge, (edge,))
        assert matrix[i, i] == pytest.approx(-max(rewards), rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("criterion", ["pessimistic", "optimistic"])
def test_paths_enumerated_once_per_candidate(tree7, monkeypatch, criterion):
    # each candidate's new paths come from one join for the whole report,
    # never from a full enumeration of an augmented graph, and the join
    # searches once from each entry and once from each target
    graph, params, game, sol = tree7
    rows = scan_candidates(graph, params, solution=sol)
    plan = alpha_mitigation(rows, k=1)
    full, incremental, walks = [], [], []

    def counted(calls, function):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return function(*args, **kwargs)

        return wrapper

    for module in (decoygraph.graph, decoygraph.game, decoygraph.zeroday, decoygraph.mitigation, decoygraph.cli):
        if hasattr(module, "enumerate_attack_paths"):
            monkeypatch.setattr(module, "enumerate_attack_paths", counted(full, module.enumerate_attack_paths))
    monkeypatch.setattr(zeroday, "join_added_paths", counted(incremental, zeroday.join_added_paths))
    monkeypatch.setattr(decoygraph.graph, "_simple_walks", counted(walks, decoygraph.graph._simple_walks))
    searches = len(graph.entry_ids) + len(graph.target_ids)
    assert searches == 3
    first = evaluate_mitigation(plan, game, sol.defender_strategy, rows, criterion=criterion)
    assert full == []
    assert len(walks) == searches
    assert [[tuple(e) for e in args[2]] for args in incremental] == [[r.edge for r in rows]]
    again = evaluate_mitigation(plan, game, sol.defender_strategy, rows, criterion=criterion)
    assert full == []
    assert len(walks) == 2 * searches
    assert again.outcomes == first.outcomes


def test_tied_best_paths_keep_the_first_in_canonical_order():
    # against a honeypot on 1 -> 3, candidate (0, 1)'s new path 0 -> 1 -> 3
    # (captured) and the base path 0 -> 2 -> 3 (not captured) both give the
    # attacker exactly 9.0; the new path comes first in canonical order, so
    # it is the best response whose capture is reported. A pin off both
    # paths adds its cost, 1.0, to both rewards and keeps the tie
    nodes = [NodeRecord(0, 0.0, "entry"), NodeRecord(1, 4.0, "intermediate"),
             NodeRecord(2, 1.0, "intermediate"), NodeRecord(3, 1.0, "target")]
    graph = graph_from_parts(nodes, [(0, 2), (2, 3), (1, 3)])
    game = build_matrix(graph, GameParams(cap=10.0, esc=5.0, honeypot_cost=1.0, attack_cost_per_hop=1.0))
    x = pure_strategy(len(game.actions), game.actions.index((2,)))
    report = [make_record((0, 1), 0.0)]
    for plan in (none_mitigation(), MitigationPlan(kind="lp", pinned_edges=((1, 2),))):
        (outcome,) = evaluate_mitigation(plan, game, x, report).outcomes
        assert outcome.reward_before == 9.0 and outcome.capture_before == 1.0
        assert outcome.capture_after == 1.0
    assert outcome.reward_after == 10.0


def test_one_lp_per_distinct_pinned_game(net20, monkeypatch):
    # an optimistic plan solves each candidate's pinned game once, and one
    # game for all the candidates that add no path
    graph, params, game, sol = net20
    rows = scan_candidates(graph, params, solution=sol)
    calls = []

    def counted(matrix, **kwargs):
        calls.append(matrix.shape)
        return solve_zero_sum(matrix, **kwargs)

    monkeypatch.setattr(zeroday, "solve_zero_sum", counted)
    metrics = evaluate_mitigation(alpha_mitigation(rows, k=1), game, sol.defender_strategy, rows,
                                  criterion="optimistic")
    assert len(metrics.outcomes) == len(rows) == 358
    with_paths = sum(r.new_path_count > 0 for r in rows)
    assert len(calls) == with_paths + 1 == 235


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _outcomes_digest(metrics):
    lines = [
        f"{o.edge} {o.reward_before.hex()} {o.reward_after.hex()} "
        f"{o.capture_before.hex()} {o.capture_after.hex()} {o.prevented}"
        for o in metrics.outcomes
    ]
    lines.append(f"{metrics.effectiveness.hex()} {metrics.capture_before.hex()} {metrics.capture_after.hex()}")
    return _sha256_lines(lines)


def _nature_digest(nature):
    return _sha256_lines(" ".join(float(v).hex() for v in row) for row in nature.matrix)


def mitigation_digests(name, graph, params, game, sol):
    """sha256 over hex-float outcomes of every pinned plan kind under both
    criteria, the nature matrix over the top 10 candidates, and the
    pessimistic scan report the plans are built from. Optimistic plans are
    scored on every third candidate, because each one solves a game."""
    rows = scan_candidates(graph, params, solution=sol)
    x = sol.defender_strategy
    plans = {
        "none": none_mitigation(),
        "alpha1": alpha_mitigation(rows, k=1),
        "alpha3": alpha_mitigation(rows, k=3),
        "lp": lp_mitigation(rows, budget=1.0),
        "critical+honeypot": critical_point_mitigation(game, params, rows, add_honeypot=True),
        "random": random_mitigation(rows, 7),
    }
    out = {
        f"{name} scan": _sha256_lines(
            f"{r.edge} {r.status} {r.naive.hex()} {r.optimistic.hex()} {r.pessimistic.hex()} "
            f"{r.impact.hex()} {r.new_path_count} {r.exploit_probability.hex()} {r.dominance}"
            for r in rows
        )
    }
    for criterion in ("pessimistic", "optimistic"):
        for label, plan in plans.items():
            subset = rows if criterion == "pessimistic" else rows[::3]
            metrics = evaluate_mitigation(plan, game, x, subset, criterion=criterion)
            out[f"{name} {label} {criterion}"] = _outcomes_digest(metrics)
        out[f"{name} nature {criterion}"] = _nature_digest(nature_game(game, x, rows[:10], criterion=criterion))
    return out


MITIGATION_DIGESTS = json.loads((Path(__file__).parent / "mitigation_digests.json").read_text())


@pytest.mark.parametrize("name", ["line3", "tree7", "net20"])
def test_mitigation_outcomes_match_golden_digest(request, name):
    digests = mitigation_digests(name, *request.getfixturevalue(name))
    assert digests == {k: v for k, v in MITIGATION_DIGESTS.items() if k.split()[0] == name}


TERMINATE_BUDGETS = {"line3": (1, 2), "tree7": (1, 2), "net20": (1,)}


def terminate_digests(name, graph, params):
    """sha256 over hex floats of what the program outputs with
    ``terminate_on_capture`` at each budget: scan records under both criteria
    and both pessimistic modes, the outcomes of three pinned plan kinds under
    both criteria (optimistic ones on every 6th net20 candidate) and the
    nature matrices over the top 10 candidates."""
    out = {}
    for budget in TERMINATE_BUDGETS[name]:
        key = f"{name} H{budget}"
        params_t = replace(params, budget=budget, terminate_on_capture=True)
        game = build_matrix(graph, params_t)
        sol = solve_zero_sum(game.matrix)
        x = sol.defender_strategy
        for criterion in CRITERIA:
            for mode in PESSIMISTIC_MODES:
                scanned = scan_candidates(graph, params_t, criterion=criterion, pessimistic_mode=mode, solution=sol)
                out[f"{key} {criterion} {mode}"] = records_digest(scanned)
                if (criterion, mode) == ("pessimistic", "best_response"):
                    rows = scanned
        plans = {
            "alpha1": alpha_mitigation(rows, k=1),
            "random": random_mitigation(rows, 3),
            "critical+honeypot": critical_point_mitigation(game, params_t, rows, add_honeypot=True),
        }
        for criterion in ("pessimistic", "optimistic"):
            subset = rows if criterion == "pessimistic" or name != "net20" else rows[::6]
            for label, plan in plans.items():
                metrics = evaluate_mitigation(plan, game, x, subset, criterion=criterion)
                out[f"{key} {label} {criterion}"] = _outcomes_digest(metrics)
            out[f"{key} nature {criterion}"] = _nature_digest(nature_game(game, x, rows[:10], criterion=criterion))
    return out


TERMINATE_DIGESTS = json.loads((Path(__file__).parent / "terminate_digests.json").read_text())


@pytest.mark.parametrize("name", ["line3", "tree7", "net20"])
def test_terminate_on_capture_outputs_match_golden_digest(request, name):
    graph, params, _, _ = request.getfixturevalue(name)
    digests = terminate_digests(name, graph, params)
    assert digests == {k: v for k, v in TERMINATE_DIGESTS.items() if k.split()[0] == name}


@pytest.mark.parametrize("fixture", ["tree7", "net20"])
def test_sparse_and_huge_node_ids_change_nothing(fixture, request):
    # node ids are read only through their order: relabelled in the same
    # order, with gaps and ids of 2**63 and above, every scan record, alpha
    # outcome and nature game is the same with its edges mapped. An array
    # indexed by node id would fail on these ids or put them out of place
    graph, params, game, sol = request.getfixturevalue(fixture)
    ids = sorted(graph.node_ids)
    half = len(ids) // 2
    relabel = dict(zip(ids, [7 * k + 3 for k in range(half)] + [2**63 + 11 * k for k in range(len(ids) - half)]))
    graph2 = graph_from_parts([replace(node, id=relabel[node.id]) for node in graph.nodes],
                              [(relabel[u], relabel[v]) for u, v in graph.edges])
    game2 = build_matrix(graph2, params)
    assert np.array_equal(game2.matrix, game.matrix)
    sol2 = solve_zero_sum(game2.matrix)

    def mapped(edge):
        return relabel[edge[0]], relabel[edge[1]]

    for criterion in CRITERIA:
        for mode in PESSIMISTIC_MODES:
            report, report2 = (
                scan_candidates(g, params, criterion=criterion, pessimistic_mode=mode, solution=s)
                for g, s in ((graph, sol), (graph2, sol2))
            )
            # replace() reads every field, so deferred optimistic values are solved
            assert [replace(r, edge=mapped(r.edge)) for r in report] == [replace(r) for r in report2]
        plan, plan2 = alpha_mitigation(report, k=1), alpha_mitigation(report2, k=1)
        assert plan2.pinned_edges == tuple(mapped(edge) for edge in plan.pinned_edges)
        outcomes = evaluate_mitigation(plan, game, sol.defender_strategy, report, criterion=criterion).outcomes
        outcomes2 = evaluate_mitigation(plan2, game2, sol2.defender_strategy, report2, criterion=criterion).outcomes
        assert [replace(o, edge=mapped(o.edge)) for o in outcomes] == outcomes2
        nature = nature_game(game, sol.defender_strategy, report, criterion=criterion)
        nature2 = nature_game(game2, sol2.defender_strategy, report2, criterion=criterion)
        assert nature2.locations == tuple(mapped(edge) for edge in nature.locations)
        assert np.array_equal(nature2.matrix, nature.matrix)
        assert np.array_equal(nature2.solution.defender_strategy, nature.solution.defender_strategy)
