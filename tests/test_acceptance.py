"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the assertions make plain ``pytest`` fail loudly on any regression.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from decoygraph import fixtures, mitigation
from decoygraph.evaluation import SweepConfig, capture_proportion, expected_reward, make_policy, sweep
from decoygraph.game import GameParams, build_matrix
from decoygraph.graph import augment
from decoygraph.lp import solve_zero_sum
from decoygraph.zeroday import evaluate_candidate, scan_candidates
from oracles import best_response, literal_reward, pad_strategy, solve_2x2_exact, verify_equilibrium


def report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_equilibrium_correctness():
    start = time.time()
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        shape = (int(rng.integers(1, 13)), int(rng.integers(1, 13)))
        matrix = rng.uniform(-10.0, 10.0, shape)
        solution = solve_zero_sum(matrix)
        check = verify_equilibrium(matrix, solution, tol=1e-6)
        assert check.passed, f"gap failure on {shape} matrix"
    for entries in itertools.product(range(-3, 4), repeat=4):
        matrix = [[float(entries[0]), float(entries[1])], [float(entries[2]), float(entries[3])]]
        got = solve_zero_sum(matrix).value
        want = solve_2x2_exact(matrix)
        assert abs(got - want) <= 1e-9, f"2x2 mismatch on {matrix}: {got} vs {want}"
    elapsed = time.time() - start
    report(1, elapsed < 60.0, f"1000 random + 2401 closed-form games in {elapsed:.1f}s")


def test_criterion_2_reward_oracle_equivalence(tree7, net20):
    for graph, params, game, _ in (tree7, net20):
        values = {n.id: n.value for n in graph.nodes}
        for i, action in enumerate(game.actions):
            for j, path in enumerate(game.paths):
                want = literal_reward(values, graph.edges, params, action, path.nodes)
                assert game.matrix[i, j] == want, (action, path.nodes)
    report(2, True, "payoff matrices bit-exact against the per-cell oracle on both fixtures")


def test_criterion_3_esc_cap_structure(tree7):
    graph, params, _, _ = tree7
    worst_margin = np.inf
    for parameter in ("esc", "cap"):
        for value in range(1, 11):
            game = build_matrix(graph, replace(params, **{parameter: float(value)}))
            solution = solve_zero_sum(game.matrix)
            for attacker in ("greedy", "random"):
                y = make_policy(game, "attacker", attacker)
                defender_reward, _ = expected_reward(game, solution.defender_strategy, y)
                worst_margin = min(worst_margin, defender_reward - solution.value)
                assert defender_reward >= solution.value - 1e-6

    base = build_matrix(graph, replace(params, cap=1.0))
    base_solution = solve_zero_sum(base.matrix)
    pairs = [
        (base_solution.defender_strategy, base_solution.attacker_strategy),
        (make_policy(base, "defender", "greedy"), make_policy(base, "attacker", "random")),
    ]
    caps = np.arange(1.0, 11.0)
    max_residual = 0.0
    for x, y in pairs:
        rewards = []
        for cap in caps:
            game = build_matrix(graph, replace(params, cap=float(cap)))
            rewards.append(expected_reward(game, x, y)[0])
        coeffs = np.polyfit(caps, rewards, 1)
        max_residual = max(max_residual, float(np.max(np.abs(np.polyval(coeffs, caps) - rewards))))
    assert max_residual < 1e-9
    report(3, True, f"guarantee margin >= {worst_margin:.3e}, affine residual {max_residual:.2e}")


def test_criterion_4_budget_and_entry_monotonicity(tree7, net20):
    for name, (graph, params, _, _) in (("tree7", tree7), ("net20", net20)):
        rewards = []
        for budget in (0, 1, 2, 3):
            game = build_matrix(graph, replace(params, budget=budget))
            rewards.append(-solve_zero_sum(game.matrix).value)
        assert all(b <= a + 1e-9 for a, b in zip(rewards, rewards[1:])), (name, rewards)

    graph, params, _, _ = net20
    config = SweepConfig(parameter="entry_nodes", values=((0,), (0, 1), (0, 1, 2)), params=params)
    entry_rewards = [row.attacker_reward for row in sweep(graph, config).rows]
    assert all(b >= a - 1e-9 for a, b in zip(entry_rewards, entry_rewards[1:])), entry_rewards
    report(4, True, f"attacker reward monotone in budget and entries ({entry_rewards})")


def test_criterion_5_zero_day_scan_properties(tree7, net20):
    details = []
    for name, (graph, params, _, solution) in (("tree7", tree7), ("net20", net20)):
        start = time.time()
        rows = scan_candidates(graph, params, solution=solution)
        elapsed = time.time() - start
        analyzed = [r for r in rows if r.status == "analyzed"]
        assert analyzed, name
        assert all(r.pessimistic >= r.naive - 1e-9 for r in analyzed), name
        assert len({round(r.naive, 9) for r in rows}) == 1, name
        assert any(r.impact > 1e-9 for r in rows), name
        assert any(abs(r.impact) <= 1e-9 for r in rows), name
        if name == "net20":
            assert params.budget == 2
            assert elapsed < 600.0, f"scan took {elapsed:.1f}s"
            details.append(f"net20 H=2 scan: {len(rows)} candidates in {elapsed:.1f}s")
    report(5, True, "; ".join(details))


def test_criterion_6_dominance_classification(line3):
    from test_zeroday import dominated_fixture

    _, _, game, solution = line3
    record = evaluate_candidate(
        game, solution.defender_strategy, (1, 3), y1=solution.attacker_strategy
    )
    assert record.dominance == "dominant"
    game2 = build_matrix(augment(game.graph, (1, 3)), game.params)
    padded = pad_strategy(solution.defender_strategy, game, game2)
    index, _ = best_response(game2.matrix, padded, "column")
    assert game2.paths[index].edges[-1] == 2  # the new edge: y[a_e] = 1

    graph = dominated_fixture()
    params = GameParams(cap=10, esc=5, honeypot_cost=1, attack_cost_per_hop=13.0, budget=1)
    game_d = build_matrix(graph, params)
    sol_d = solve_zero_sum(game_d.matrix)
    record_d = evaluate_candidate(
        game_d, sol_d.defender_strategy, (1, 4), y1=sol_d.attacker_strategy
    )
    assert record_d.dominance == "dominated"
    game2_d = build_matrix(augment(graph, (1, 4)), params)
    padded_d = pad_strategy(sol_d.defender_strategy, game_d, game2_d)
    index_d, _ = best_response(game2_d.matrix, padded_d, "column")
    new_edge = len(graph.edges)
    assert new_edge not in game2_d.paths[index_d].edges  # y[a_e] = 0
    report(6, True, "dominant and dominated instances classified and best responses agree")


def test_criterion_7_mitigation_trends(tree7, net20):
    details = []
    for name, (graph, params, game, solution) in (("tree7", tree7), ("net20", net20)):
        rows = scan_candidates(graph, params, solution=solution)
        x1 = solution.defender_strategy

        none_metrics = mitigation.evaluate_mitigation(mitigation.none_mitigation(), game, x1, rows)
        alpha_metrics = mitigation.evaluate_mitigation(mitigation.alpha_mitigation(rows, 1), game, x1, rows)

        rng = np.random.default_rng(0)
        random_captures = []
        random_residuals = []
        for _ in range(100):
            plan = mitigation.random_mitigation(rows, rng)
            metrics = mitigation.evaluate_mitigation(plan, game, x1, rows)
            random_captures.append(metrics.capture_after)
            random_residuals.append(
                mitigation.weighted_residual(rows, {plan.pinned_edges[0]: 1.0})
            )
        random_capture = float(np.mean(random_captures))

        alpha_gap = alpha_metrics.capture_after - none_metrics.capture_after
        assert alpha_metrics.capture_after >= random_capture - 1e-9, name
        assert abs(random_capture - none_metrics.capture_after) < alpha_gap, name

        lp_plan = mitigation.lp_mitigation(rows, budget=1.0)
        no_mitigation_residual = mitigation.weighted_residual(rows, {})
        assert lp_plan.objective <= no_mitigation_residual + 1e-9, name
        assert lp_plan.objective <= float(np.mean(random_residuals)) + 1e-9, name
        details.append(
            f"{name}: alpha {alpha_metrics.capture_after:.3f} >= random {random_capture:.3f}"
            f" (none {none_metrics.capture_after:.3f})"
        )
    report(7, True, "; ".join(details))


def test_criterion_8_critical_point_trends(tree7, net20):
    graph_t, params_t, game_t, solution_t = tree7
    rows_t = scan_candidates(graph_t, params_t, solution=solution_t)
    plan_identity = mitigation.critical_point_mitigation(game_t, params_t, rows_t, kappa=1.0)
    rebuilt = solve_zero_sum(build_matrix(graph_t, params_t).matrix)
    assert rebuilt.value == solution_t.value  # exact reproduction at kappa = 1
    assert plan_identity.modified_policy == pytest.approx(solution_t.defender_strategy)

    graph, params, _, _ = net20
    captures = []
    for budget in (1, 2, 3):
        p = replace(params, budget=budget)
        game = build_matrix(graph, p)
        solution = solve_zero_sum(game.matrix)
        rows = scan_candidates(graph, p, solution=solution)
        x1 = solution.defender_strategy
        none_c = mitigation.evaluate_mitigation(mitigation.none_mitigation(), game, x1, rows).capture_after
        crit = mitigation.critical_point_mitigation(game, p, rows, kappa=1.5)
        crit_c = mitigation.evaluate_mitigation(crit, game, x1, rows).capture_after
        crit_hp = mitigation.critical_point_mitigation(game, p, rows, kappa=1.5, add_honeypot=True)
        crit_hp_c = mitigation.evaluate_mitigation(crit_hp, game, x1, rows).capture_after
        assert crit_c >= none_c - 1e-9, (budget, none_c, crit_c)
        assert crit_hp_c >= crit_c - 1e-9, (budget, crit_c, crit_hp_c)
        captures.append((budget, round(none_c, 4), round(crit_c, 4), round(crit_hp_c, 4)))
    report(8, True, f"(H, none, crit, crit+hp) = {captures}")


def test_criterion_9_line_graph_golden_values(line3):
    graph, params, game, solution = line3
    assert solution.value == pytest.approx(16.0, abs=1e-6)

    record = evaluate_candidate(
        game, solution.defender_strategy, (1, 3), y1=solution.attacker_strategy
    )
    assert record.impact == pytest.approx(26.0, abs=1e-6)

    optimistic = evaluate_candidate(
        game, solution.defender_strategy, (1, 3), criterion="optimistic",
        y1=solution.attacker_strategy,
    )
    assert optimistic.optimistic == pytest.approx(-3.0, abs=1e-6)

    game2 = build_matrix(augment(graph, (1, 3)), params)
    solution2 = solve_zero_sum(game2.matrix)
    assert solution2.value == pytest.approx(3.0, abs=1e-6)
    assert solution2.attacker_strategy == pytest.approx([0.5, 0.5], abs=1e-6)
    expected_mix = np.zeros(4)
    expected_mix[game2.actions.index((1,))] = 17 / 30
    expected_mix[game2.actions.index((2,))] = 13 / 30
    assert solution2.defender_strategy == pytest.approx(expected_mix, abs=1e-6)

    padded = pad_strategy(solution.defender_strategy, game, game2)
    capture = capture_proportion(game2, padded, solution2.attacker_strategy)
    assert capture == pytest.approx(0.5, abs=1e-6)
    report(9, True, "value 16, impact 26, optimistic -3, game-2 (3, y=(1/2,1/2)), capture 1/2")
