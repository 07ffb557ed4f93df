import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoygraph import game as game_module
from decoygraph.game import (
    GameParams,
    PathColumns,
    allocation_rows,
    build_matrix,
    defender_actions,
    load_params,
    params_to_document,
)
from decoygraph.graph import (
    EnumerationLimitError,
    NodeRecord,
    augment,
    enumerate_attack_paths,
    generate_zero_day_candidates,
    graph_from_parts,
)
from decoygraph import fixtures
from oracles import allocation_rows_loop, literal_reward, pad_strategy, path_columns
from test_graph import role_digraphs


def test_params_round_trip():
    doc = {
        "cap": 10,
        "esc": 5,
        "honeypot_cost": 1,
        "attack_cost_per_hop": 1,
        "budget": 1,
        "terminate_on_capture": False,
    }
    params = load_params(json.dumps(doc))
    assert params.cap == 10
    assert params_to_document(params)["budget"] == 1


def test_params_validation():
    with pytest.raises(ValueError, match="cap"):
        GameParams(cap=-1)
    with pytest.raises(ValueError, match="budget"):
        GameParams(budget=-2)
    with pytest.raises(ValueError, match="unknown params keys"):
        load_params({"cap": 1, "bogus": 2})
    with pytest.raises(ValueError, match="invalid params document"):
        load_params("{nope")


@pytest.mark.parametrize(
    "field, value",
    [
        ("cap", "x"),
        ("cap", math.nan),
        ("esc", math.inf),
        ("honeypot_cost", None),
        ("honeypot_cost", -math.inf),
        ("attack_cost_per_hop", True),
        ("terminate_on_capture", "no"),
        ("terminate_on_capture", 1),
    ],
)
def test_params_reject_non_finite_and_mistyped_fields(field, value):
    with pytest.raises(ValueError, match=field):
        load_params({field: value})


def test_action_counts_small(line3):
    graph, params, _, _ = line3
    actions = defender_actions(graph, params)
    assert actions == ((), (0,), (1,))
    assert defender_actions(graph, GameParams(budget=0)) == ((),)


def test_action_count_binomial_sum(net20):
    graph, params, _, _ = net20
    actions = defender_actions(graph, params)
    assert len(actions) == 1 + 22 + math.comb(22, 2) == 254
    sizes = [len(a) for a in actions]
    assert sizes == sorted(sizes)
    # lexicographic within each size class
    pairs = [a for a in actions if len(a) == 2]
    assert pairs == sorted(pairs)


def test_action_budget_and_limit_checks(line3, monkeypatch):
    graph, _, _, _ = line3
    with pytest.raises(ValueError, match="exceeds edge count"):
        defender_actions(graph, GameParams(budget=5))
    monkeypatch.setattr(game_module, "DEFAULT_ACTION_LIMIT", 2)
    with pytest.raises(EnumerationLimitError, match="defender action count 3 exceeds limit 2"):
        defender_actions(graph, GameParams(budget=1))


def payoff_matrix(graph, params, actions, paths, pinned=()):
    """Defender reward of every allocation in ``actions`` plus the ``pinned``
    locations against every path, from one path table."""
    return PathColumns(graph, paths).payoff(params, *allocation_rows(graph, actions, pinned))


def cell(graph, params, action, path, pinned=()):
    """One cell of the payoff matrix: the defender reward of one profile."""
    return payoff_matrix(graph, params, [action], [path], pinned)[0, 0]


def test_reward_examples(line3):
    graph, params, game, _ = line3
    path = game.paths[0]
    assert cell(graph, params, (0,), path) == pytest.approx(1.0)
    assert cell(graph, params, (), path) == pytest.approx(-13.0)
    assert cell(graph, params, (1,), path) == pytest.approx(16.0)


def test_reward_terminate_on_capture(line3):
    graph, _, game, _ = line3
    params = GameParams(cap=10, esc=5, honeypot_cost=1, attack_cost_per_hop=1, budget=1,
                        terminate_on_capture=True)
    path = game.paths[0]
    # capture at node 2 stops the value sum before node 3
    assert cell(graph, params, (0,), path) == pytest.approx(10.0 - 1.0 + 2.0)
    # no capture: identical to the default mode
    assert cell(graph, params, (), path) == pytest.approx(-13.0)
    game_t = build_matrix(graph, params)
    assert game_t.matrix[1, 0] == pytest.approx(11.0)


def test_reward_honeypot_cost_monotonicity():
    rng = np.random.default_rng(5)
    graph = fixtures.tree7_graph()
    params = GameParams(budget=3)
    game = build_matrix(graph, params)
    for _ in range(50):
        path = game.paths[rng.integers(len(game.paths))]
        off_path = [e for e in range(len(graph.edges)) if e not in path.edges]
        extra = int(rng.choice(off_path))
        action = tuple(rng.choice(len(graph.edges), size=1))
        if extra in action:
            continue
        base = cell(graph, params, action, path)
        more = cell(graph, params, tuple(set(action) | {extra}), path)
        assert more == pytest.approx(base - params.honeypot_cost)


def test_reward_capture_dominance_per_cell(tree7):
    graph, params, game, _ = tree7
    path = game.paths[0]
    for eid, node in zip(path.edges, path.nodes[1:]):
        without = cell(graph, params, (), path)
        with_hp = cell(graph, params, (eid,), path)
        swing = (params.cap + params.esc) * graph.value(node) - params.honeypot_cost
        assert with_hp - without == pytest.approx(swing)


def test_matrix_line_graph(line3):
    _, _, game, _ = line3
    assert game.matrix.tolist() == [[-13.0], [1.0], [16.0]]


def test_matrix_matches_literal_oracle_exactly(line3, tree7, net20):
    for graph, params, game, _ in (line3, tree7, net20):
        values = {n.id: n.value for n in graph.nodes}
        for i, action in enumerate(game.actions):
            for j, path in enumerate(game.paths):
                expected = literal_reward(values, graph.edges, params, action, path.nodes)
                assert game.matrix[i, j] == expected  # bit-exact


def test_matrix_oracle_on_terminate_mode(tree7):
    graph, _, _, _ = tree7
    params = GameParams(cap=3, esc=2, honeypot_cost=1, attack_cost_per_hop=1,
                        budget=2, terminate_on_capture=True)
    game = build_matrix(graph, params)
    values = {n.id: n.value for n in graph.nodes}
    for i, action in enumerate(game.actions):
        for j, path in enumerate(game.paths):
            assert game.matrix[i, j] == literal_reward(values, graph.edges, params, action, path.nodes)


def literal_hits(graph, actions, paths, pinned):
    """Capture indicator by set intersection of honeypot and path hops."""
    out = np.zeros((len(actions), len(paths)))
    for i, action in enumerate(actions):
        honeypots = {graph.edges[e] for e in action} | {tuple(p) for p in pinned}
        for j, path in enumerate(paths):
            if honeypots & set(zip(path.nodes, path.nodes[1:])):
                out[i, j] = 1.0
    return out


def literal_matrix(graph, params, actions, paths, pinned):
    values = {n.id: n.value for n in graph.nodes}
    return np.array([
        [literal_reward(values, graph.edges, params, a, p.nodes, pinned) for p in paths]
        for a in actions
    ])


@st.composite
def pinned_games(draw):
    """Small DAG with non-integer values and costs, its action space, and
    pins that include an allocation edge, a non-edge and a repeat."""
    n = draw(st.integers(min_value=2, max_value=6))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=10))
    if (0, n - 1) not in edges:
        edges.append((0, n - 1))
    value = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)
    nodes = [
        NodeRecord(i, 0.0 if i == 0 else draw(value),
                   "entry" if i == 0 else "target" if i == n - 1 else "intermediate")
        for i in range(n)
    ]
    graph = graph_from_parts(nodes, edges)
    cost = st.floats(min_value=0.0, max_value=15.0, allow_nan=False, allow_infinity=False)
    params = GameParams(cap=draw(cost), esc=draw(cost), honeypot_cost=draw(cost),
                        attack_cost_per_hop=draw(cost),
                        budget=draw(st.integers(min_value=0, max_value=min(2, len(edges)))))
    on_graph = draw(st.sampled_from(graph.edges))
    off_graph = draw(st.sampled_from([(v, u) for u, v in possible] + [(0, n + 3)]))
    pins = draw(st.permutations([on_graph, off_graph, on_graph]))
    return graph, params, pins


@given(pinned_games())
@settings(max_examples=80, deadline=None)
def test_payoff_and_hit_kernels_match_literal_definitions(case):
    graph, params, pins = case
    actions = defender_actions(graph, params)
    paths = enumerate_attack_paths(graph)
    for pinned in ((), pins):
        expected = literal_matrix(graph, params, actions, paths, pinned)
        got = payoff_matrix(graph, params, actions, paths, pinned)
        scale = max(1.0, float(np.abs(expected).max()))
        assert np.abs(got - expected).max() <= 1e-12 * scale
        rows, _ = allocation_rows(graph, actions, pinned)
        assert np.array_equal(PathColumns(graph, paths).hits(rows),
                              literal_hits(graph, actions, paths, pinned))
        terminate = replace(params, terminate_on_capture=True)
        assert np.array_equal(payoff_matrix(graph, terminate, actions, paths, pinned),
                              literal_matrix(graph, terminate, actions, paths, pinned))


@given(role_digraphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_allocation_rows_match_per_action_loop(graph, data):
    # the one scatter sets the same rows and counts, bit for bit, as setting
    # each allocation's edges one at a time, with pins on the graph, off it
    # (a reversed edge or an unknown node) and repeated
    budget = data.draw(st.integers(min_value=0, max_value=min(3, len(graph.edges))))
    actions = defender_actions(graph, GameParams(budget=budget))
    off_graph = [(v, u) for u, v in graph.edges if (v, u) not in graph.edge_index] + [(0, max(graph.node_ids) + 1)]
    location = st.sampled_from(graph.edges) | st.sampled_from(off_graph)
    on, off = data.draw(st.sampled_from(graph.edges)), data.draw(st.sampled_from(off_graph))
    pins = data.draw(st.permutations([on, off, on, *data.draw(st.lists(location, max_size=2))]))
    for pinned in ((), pins, [list(p) for p in pins]):
        rows, deployed = allocation_rows(graph, actions, pinned)
        expected_rows, expected_deployed = allocation_rows_loop(graph, actions, pinned)
        assert rows.tobytes() == expected_rows.tobytes()
        assert deployed.tobytes() == expected_deployed.tobytes()


def test_pinned_kernel_exact_on_fixtures(line3, tree7, net20):
    # integer node values and costs: every regrouping is exact, so tied
    # attacker rewards stay tied in the mitigation layer
    for graph, params, game, _ in (line3, tree7, net20):
        new_edge = next(c.edge for c in generate_zero_day_candidates(graph) if c.status == "analyzed")
        graph2 = augment(graph, new_edge)
        paths2 = enumerate_attack_paths(graph2)
        pins = (new_edge, graph.edges[0], new_edge)
        assert np.array_equal(payoff_matrix(graph2, params, game.actions, paths2, pins),
                              literal_matrix(graph2, params, game.actions, paths2, pins))
        assert np.array_equal(payoff_matrix(graph, params, game.actions, game.paths, pins),
                              literal_matrix(graph, params, game.actions, game.paths, pins))


@given(role_digraphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_path_columns_match_per_path_loop(g, data):
    # node values in hundredths, most of them inexact in binary: the totals
    # depend on the order they are summed in
    value = st.integers(min_value=0, max_value=2000).map(lambda c: c / 100)
    graph = graph_from_parts([NodeRecord(n.id, data.draw(value), n.role) for n in g.nodes], g.edges)
    paths = enumerate_attack_paths(graph)
    columns = PathColumns(graph, paths)
    got = (columns.incidence, columns.weights, columns.totals, *columns._steps)
    for array, expected in zip(got, path_columns(graph, paths)):
        assert array.dtype == expected.dtype and array.shape == expected.shape
        assert array.tobytes() == expected.tobytes()
    index = data.draw(st.lists(st.integers(min_value=0, max_value=len(paths) - 1), max_size=2 * len(paths)))
    taken, fresh = columns.take(index), PathColumns(graph, [paths[j] for j in index])
    # totals own their data: no table keeps the running-sum array alive
    assert columns.totals.base is None and taken.totals.base is None and fresh.totals.base is None
    for name in ("incidence", "weights", "totals"):
        assert getattr(taken, name).tobytes() == getattr(fresh, name).tobytes()
    # taken rows keep the table's padding, wider than the fresh table's
    # when the longest path is not taken
    width = fresh._steps[0].shape[1]
    for steps, fresh_steps, pad in zip(taken._steps, fresh._steps, (-1, 0.0)):
        assert steps[:, :width].tobytes() == fresh_steps.tobytes()
        assert (steps[:, width:] == pad).all()


def test_augment_grows_columns(line3):
    graph, params, game, _ = line3
    game2 = build_matrix(augment(graph, (1, 3)), params)
    assert game2.matrix.shape[1] == game.matrix.shape[1] + 1
    assert game2.matrix.shape[0] == len(game.actions) + 1


def test_pinned_reward_covers_non_graph_edge(line3):
    graph, params, game, _ = line3
    g2 = augment(graph, (1, 3))
    short = enumerate_attack_paths(g2)[1]
    assert short.nodes == (1, 3)
    # pin on the hypothetical edge, scored on the graph that has it: capture
    # node 3, pay for both honeypots
    got = cell(g2, params, (1,), short, pinned=[(1, 3)])
    assert got == pytest.approx(10 * 2.0 - 2.0 + 1.0)
    # on the graph without that edge the pin covers nothing but still costs
    path = game.paths[0]
    assert cell(graph, params, (1,), path, pinned=[(1, 3)]) == pytest.approx(16.0 - params.honeypot_cost)


def test_pad_strategy_examples(line3):
    graph, params, game, _ = line3
    game2 = build_matrix(augment(graph, (1, 3)), params)
    padded = pad_strategy([0.0, 0.0, 1.0], game, game2)
    assert padded.tolist() == [0.0, 0.0, 1.0, 0.0]
    uniform = pad_strategy(np.full(3, 1 / 3), game, game2)
    assert uniform == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0])
    assert np.argmax(uniform) == np.argmax(np.full(3, 1 / 3))
    identity = pad_strategy([0.0, 0.0, 1.0], game, game)
    assert identity.tolist() == [0.0, 0.0, 1.0]


def test_pad_strategy_rejects_misaligned(line3):
    graph, params, game, _ = line3
    game2 = build_matrix(augment(graph, (1, 3)), params)
    with pytest.raises(ValueError, match="missing from the augmented game"):
        pad_strategy([0.0, 0.0, 1.0, 0.0], game2, game)
    with pytest.raises(ValueError, match="sums to"):
        pad_strategy([0.5, 0.0, 0.0], game, game2)
