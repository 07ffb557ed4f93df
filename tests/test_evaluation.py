import numpy as np
import pytest

from decoygraph.evaluation import (
    SweepConfig,
    capture_proportion,
    expected_reward,
    make_policy,
    sweep,
)
from decoygraph.game import GameParams, build_matrix, pure_strategy
from decoygraph.graph import augment
from decoygraph.lp import solve_zero_sum


class TestPolicies:
    def test_greedy_attacker_prefers_value_sum(self, line3):
        graph, params, _, _ = line3
        game2 = build_matrix(augment(graph, (1, 3)), params)
        y = make_policy(game2, "attacker", "greedy")
        assert game2.paths[int(np.argmax(y))].nodes == (1, 2, 3)

    def test_random_attacker_uniform(self, line3):
        graph, params, _, _ = line3
        game2 = build_matrix(augment(graph, (1, 3)), params)
        assert make_policy(game2, "attacker", "random") == pytest.approx([0.5, 0.5])

    def test_greedy_defender_guards_top_node(self, line3):
        _, _, game, _ = line3
        x = make_policy(game, "defender", "greedy")
        assert game.actions[int(np.argmax(x))] == (1,)  # honeypot on (2, 3)

    def test_greedy_defender_uses_full_budget(self, tree7):
        graph, _, _, _ = tree7
        params = GameParams(budget=2)
        game = build_matrix(graph, params)
        x = make_policy(game, "defender", "greedy")
        action = game.actions[int(np.argmax(x))]
        # greedy path is 1-3-6-7 (value sum 13); top two nodes are 7 and 6
        pairs = {graph.edges[e] for e in action}
        assert pairs == {(6, 7), (3, 6)}

    def test_random_defender_single_edges(self, line3):
        _, _, game, _ = line3
        x = make_policy(game, "defender", "random")
        assert x == pytest.approx([0.0, 0.5, 0.5])

    def test_random_defender_needs_budget(self, line3):
        graph, _, _, _ = line3
        game0 = build_matrix(graph, GameParams(budget=0))
        with pytest.raises(ValueError, match="budget"):
            make_policy(game0, "defender", "random")

    def test_nash_requires_solution(self, line3):
        _, _, game, sol = line3
        assert make_policy(game, "defender", "nash", sol) is sol.defender_strategy
        with pytest.raises(ValueError, match="requires a game solution"):
            make_policy(game, "defender", "nash")


class TestExpectedReward:
    def test_matrix_entry(self, line3):
        _, _, game, _ = line3
        d, a = expected_reward(game, [0.0, 0.0, 1.0], [1.0])
        assert (d, a) == (16.0, -16.0)

    def test_uniform_matching_pennies_style(self, line3):
        _, _, game, _ = line3
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.dirichlet(np.ones(3))
            y = np.ones(1)
            d, a = expected_reward(game, x, y)
            assert d + a == 0.0


class TestCaptureProportion:
    def test_certain_intersection(self, line3):
        _, _, game, _ = line3
        x = pure_strategy(3, 2)
        assert capture_proportion(game, x, [1.0]) == pytest.approx(1.0)

    def test_disjoint(self, line3):
        graph, params, _, _ = line3
        game2 = build_matrix(augment(graph, (1, 3)), params)
        x = np.zeros(4)
        x[game2.actions.index((1,))] = 1.0
        y = np.zeros(2)
        y[[p.nodes for p in game2.paths].index((1, 3))] = 1.0
        assert capture_proportion(game2, x, y) == pytest.approx(0.0)

    def test_half_mix(self, line3):
        graph, params, _, _ = line3
        game2 = build_matrix(augment(graph, (1, 3)), params)
        x = np.zeros(4)
        x[game2.actions.index((1,))] = 1.0
        assert capture_proportion(game2, x, [0.5, 0.5]) == pytest.approx(0.5)


class TestSweep:
    def test_config_validation(self, line3):
        _, params, _, _ = line3
        with pytest.raises(ValueError, match="parameter"):
            SweepConfig(parameter="widgets", values=(1,), params=params)
        with pytest.raises(ValueError, match="nonempty"):
            SweepConfig(parameter="esc", values=(), params=params)
        with pytest.raises(ValueError, match="policy"):
            SweepConfig(parameter="esc", values=(1,), params=params, defender="psychic")

    def test_honeypot_sweep_line_graph_values(self, line3):
        graph, params, _, _ = line3
        config = SweepConfig(parameter="honeypots", values=(0, 1, 2), params=params)
        rows = sweep(graph, config).rows
        assert [r.attacker_reward for r in rows] == pytest.approx([13.0, -16.0, -30.0])
        diffs = np.diff([r.attacker_reward for r in rows])
        assert np.all(diffs <= 1e-9)

    def test_esc_sweep_guarantee_vs_naive_attackers(self, tree7):
        graph, params, _, _ = tree7
        for attacker in ("greedy", "random"):
            config = SweepConfig(
                parameter="esc", values=(1.0, 4.0, 9.0), params=params, attacker=attacker
            )
            for row in sweep(graph, config).rows:
                from dataclasses import replace

                game = build_matrix(graph, replace(params, esc=row.value))
                value = solve_zero_sum(game.matrix).value
                assert row.defender_reward >= value - 1e-6

    def test_cap_sweep_affine_at_fixed_strategies(self, tree7):
        graph, params, _, _ = tree7
        config = SweepConfig(
            parameter="cap", values=tuple(float(c) for c in range(1, 8)),
            params=params, defender="greedy", attacker="random",
        )
        rows = sweep(graph, config).rows
        xs = np.array([r.value for r in rows])
        ys = np.array([r.defender_reward for r in rows])
        coeffs = np.polyfit(xs, ys, 1)
        residual = np.max(np.abs(np.polyval(coeffs, xs) - ys))
        assert residual < 1e-9

    def test_entry_sweep_monotone(self, net20):
        graph, params, _, _ = net20
        config = SweepConfig(
            parameter="entry_nodes", values=((0,), (0, 1), (0, 1, 2)), params=params
        )
        rows = sweep(graph, config).rows
        rewards = [r.attacker_reward for r in rows]
        assert rewards == sorted(rewards) or all(
            b >= a - 1e-9 for a, b in zip(rewards, rewards[1:])
        )

    def test_entry_sweep_rejects_non_entries(self, net20):
        graph, params, _, _ = net20
        config = SweepConfig(parameter="entry_nodes", values=((3,),), params=params)
        with pytest.raises(Exception, match="not an entry node"):
            sweep(graph, config)

    def test_csv_rendering(self, line3):
        graph, params, _, _ = line3
        config = SweepConfig(parameter="honeypots", values=(0, 1), params=params)
        text = sweep(graph, config).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "param,value,def_policy,atk_policy,def_reward,atk_reward,capture"
        assert lines[1].startswith("honeypots,0,nash,nash,")
