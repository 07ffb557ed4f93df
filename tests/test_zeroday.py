import copy
import dataclasses
import gc
import hashlib
import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoygraph import mitigation, zeroday
from decoygraph.game import GameParams, build_matrix, pure_strategy
from decoygraph.graph import (
    NodeRecord,
    augment,
    generate_zero_day_candidates,
    graph_from_parts,
)
from decoygraph.lp import SolverError, solve_zero_sum
from decoygraph.zeroday import (
    CRITERIA,
    PESSIMISTIC_MODES,
    ZeroDayRecord,
    evaluate_candidate,
    rank_records,
    report_csv,
    scan_candidates,
)
from oracles import pad_strategy, path_columns
from test_game import literal_matrix
from test_graph import role_digraphs


def make_record(edge, impact):
    return ZeroDayRecord(
        edge=edge, status="analyzed", naive=0.0, optimistic=0.0, pessimistic=impact,
        impact=impact, new_path_count=1, exploit_probability=0.0, dominance="neither",
        criterion="pessimistic", pessimistic_mode="best_response",
    )


class TestEvaluateCandidate:
    def test_line_graph_pessimistic_impact(self, line3):
        _, _, game, sol = line3
        rec = evaluate_candidate(game, sol.defender_strategy, (1, 3), y1=sol.attacker_strategy)
        assert rec.naive == pytest.approx(-16.0, abs=1e-9)
        assert rec.pessimistic == pytest.approx(10.0, abs=1e-9)
        assert rec.impact == pytest.approx(26.0, abs=1e-9)
        assert rec.new_path_count == 1
        assert rec.exploit_probability == pytest.approx(1.0)

    def test_line_graph_optimistic_value(self, line3):
        _, _, game, sol = line3
        rec = evaluate_candidate(game, sol.defender_strategy, (1, 3), criterion="optimistic",
                                 y1=sol.attacker_strategy)
        assert rec.optimistic == pytest.approx(-3.0, abs=1e-6)
        assert rec.impact == pytest.approx(13.0, abs=1e-6)

    def test_no_new_path_candidate_is_flat(self, line3):
        _, _, game, sol = line3
        rec = evaluate_candidate(game, sol.defender_strategy, (3, 2), y1=sol.attacker_strategy)
        assert rec.new_path_count == 0
        assert rec.optimistic == pytest.approx(rec.naive, abs=1e-9)
        assert rec.pessimistic == pytest.approx(rec.naive, abs=1e-9)
        assert rec.impact == pytest.approx(0.0, abs=1e-9)
        assert rec.exploit_probability == 0.0

    def test_game2_ne_mode_matches_padded_formula(self, line3):
        _, _, game, sol = line3
        rec = evaluate_candidate(
            game, sol.defender_strategy, (1, 3), pessimistic_mode="game2_ne",
            y1=sol.attacker_strategy,
        )
        # with the equilibrium attacker strategy both criteria coincide
        assert rec.pessimistic == pytest.approx(rec.optimistic, abs=1e-9)

    def test_rejects_unknown_criterion(self, line3):
        _, _, game, sol = line3
        with pytest.raises(ValueError, match="criterion"):
            evaluate_candidate(game, sol.defender_strategy, (1, 3), criterion="hopeful")


class TestScan:
    def test_naive_column_constant(self, tree7):
        graph, params, _, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)
        naives = {round(r.naive, 9) for r in rows}
        assert len(naives) == 1

    def test_pessimistic_monotonicity(self, tree7):
        graph, params, _, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)
        assert all(r.pessimistic >= r.naive - 1e-9 for r in rows)

    def test_zero_and_positive_impacts_present(self, tree7):
        graph, params, _, sol = tree7
        rows = scan_candidates(graph, params, solution=sol)
        assert any(r.impact > 1e-9 for r in rows)
        assert any(abs(r.impact) <= 1e-9 for r in rows)

    def test_csv_layout(self, line3):
        graph, params, _, sol = line3
        rows = scan_candidates(graph, params, solution=sol)
        text = report_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "edge_u,edge_v,naive,optimistic,pessimistic,impact,y_e,dominance"
        assert lines[1].startswith("1,3,-16.000000,")
        assert "26.000000" in lines[1]


class TestRanking:
    def test_tie_break_on_edge(self):
        rows = [make_record((2, 5), 26.0), make_record((9, 9), 0.0), make_record((1, 3), 26.0)]
        ranked = rank_records(rows)
        assert [r.edge for r in ranked] == [(1, 3), (2, 5), (9, 9)]

    def test_singleton(self):
        rows = [make_record((1, 2), 5.0)]
        assert rank_records(rows) == rows


def dominated_fixture():
    """Chain 1-2-3 plus a costly zero-value detour 4-5-6 into the target."""
    nodes = [
        NodeRecord(1, 0.0, "entry"),
        NodeRecord(2, 1.0, "intermediate"),
        NodeRecord(3, 2.0, "target"),
        NodeRecord(4, 0.0, "intermediate"),
        NodeRecord(5, 0.0, "intermediate"),
        NodeRecord(6, 0.0, "intermediate"),
    ]
    edges = [(1, 2), (2, 3), (4, 5), (5, 6), (6, 3)]
    return graph_from_parts(nodes, edges)


class TestDominance:
    def test_dominant_case_agrees_with_best_response(self, line3):
        _, _, game, sol = line3
        rec = evaluate_candidate(game, sol.defender_strategy, (1, 3), y1=sol.attacker_strategy)
        assert rec.dominance == "dominant"
        # the fixed-defender best response indeed plays the new path
        assert rec.exploit_probability == pytest.approx(1.0)

    @pytest.mark.parametrize("hop_cost, expected", [(13.0, "dominated"), (12.5, "neither")])
    def test_dominated_and_boundary(self, hop_cost, expected):
        graph = dominated_fixture()
        params = GameParams(cap=10, esc=5, honeypot_cost=1, attack_cost_per_hop=hop_cost, budget=1)
        game = build_matrix(graph, params)
        sol = solve_zero_sum(game.matrix)
        assert sol.defender_strategy[game.actions.index((1,))] == pytest.approx(1.0)
        rec = evaluate_candidate(game, sol.defender_strategy, (1, 4), y1=sol.attacker_strategy)
        assert rec.dominance == expected
        if expected == "dominated":
            # best response keeps zero probability on the new path
            assert rec.exploit_probability == pytest.approx(0.0)
            assert rec.impact == pytest.approx(0.0, abs=1e-9)


def test_candidate_independence_matches_itemwise(line3):
    graph, params, game, sol = line3
    rows = scan_candidates(graph, params, solution=sol)
    for rec in rows:
        again = evaluate_candidate(game, sol.defender_strategy, rec.edge, y1=sol.attacker_strategy, status=rec.status)
        assert again == rec


def records_digest(rows):
    """sha256 over every field of every scan record, floats in hex."""
    lines = [
        f"{r.edge} {r.status} {r.naive.hex()} {r.optimistic.hex()} {r.pessimistic.hex()} "
        f"{r.impact.hex()} {r.new_path_count} {r.exploit_probability.hex()} {r.dominance} "
        f"{r.criterion} {r.pessimistic_mode}"
        for r in rows
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def scan_digests(name, graph, params):
    """:func:`records_digest` of the scan for both criteria and both
    pessimistic modes."""
    return {
        f"{name} {criterion} {mode}": records_digest(
            scan_candidates(graph, params, criterion=criterion, pessimistic_mode=mode)
        )
        for criterion in CRITERIA
        for mode in PESSIMISTIC_MODES
    }


SCAN_DIGESTS = json.loads((Path(__file__).parent / "scan_digests.json").read_text())


@pytest.mark.parametrize("name", ["line3", "tree7", "net20"])
def test_scan_records_match_golden_digest(request, name):
    graph, params, _, _ = request.getfixturevalue(name)
    assert scan_digests(name, graph, params) == {k: v for k, v in SCAN_DIGESTS.items() if k.split()[0] == name}


def counted_solves(monkeypatch):
    """The matrices ``zeroday.solve_zero_sum`` is asked to solve, from now on."""
    calls = []

    def counted(matrix, **kwargs):
        calls.append(matrix)
        return solve_zero_sum(matrix, **kwargs)

    monkeypatch.setattr(zeroday, "solve_zero_sum", counted)
    return calls


def test_one_shared_lp_for_candidates_that_add_no_path(net20, monkeypatch):
    graph, params, _, _ = net20
    calls = counted_solves(monkeypatch)
    rows = scan_candidates(graph, params)
    for r in rows:
        r.optimistic
    with_paths = sum(r.status == "analyzed" and r.new_path_count > 0 for r in rows)
    assert any(r.new_path_count == 0 for r in rows)
    # the base game, one per analyzed candidate that adds a path, and one
    # for all the candidates that add none
    assert len(calls) == 1 + with_paths + 1 == 227


def test_pessimistic_scan_solves_an_augmented_game_when_read(net20, monkeypatch):
    graph, params, _, sol = net20
    calls = counted_solves(monkeypatch)
    rows = scan_candidates(graph, params, solution=sol)
    assert calls == []
    for _ in range(2):
        for r in rows:
            r.optimistic
    assert len(calls) == 225 + 1
    # each distinct game once: no two solved matrices are equal
    assert len({(m.shape, m.tobytes()) for m in calls}) == len(calls)


@pytest.mark.parametrize("criterion, mode", [("optimistic", "best_response"), ("optimistic", "game2_ne"),
                                             ("pessimistic", "game2_ne")])
def test_other_scans_solve_every_game_while_scanning(net20, monkeypatch, criterion, mode):
    # every analyzed or dominant candidate's game, the no-path game shared
    graph, params, _, sol = net20
    calls = counted_solves(monkeypatch)
    rows = scan_candidates(graph, params, criterion=criterion, pessimistic_mode=mode, solution=sol)
    assert len(calls) == 225 + 9 + 1
    for r in rows:
        r.optimistic
    assert len(calls) == 225 + 9 + 1


def fresh_deferred(graph, params, sol):
    """An unread record of a pessimistic best-response scan whose optimistic
    value waits for its solve."""
    rows = scan_candidates(graph, params, solution=sol)
    return next(r for r in rows if not isinstance(r.__dict__["optimistic"], float))


def test_deferred_record_behaves_as_its_eager_twin(tree7):
    graph, params, _, sol = tree7
    read = fresh_deferred(graph, params, sol)
    eager = ZeroDayRecord(**{f.name: getattr(read, f.name) for f in dataclasses.fields(ZeroDayRecord)})
    assert isinstance(eager.__dict__["optimistic"], float)

    def fresh():
        return fresh_deferred(graph, params, sol)

    assert fresh() == eager and eager == fresh()
    assert hash(fresh()) == hash(eager)
    assert repr(fresh()) == repr(eager)
    assert dataclasses.replace(fresh()) == eager
    assert dataclasses.replace(fresh(), impact=1.0) == dataclasses.replace(eager, impact=1.0)
    assert dataclasses.asdict(fresh()) == dataclasses.asdict(eager)
    assert copy.copy(fresh()) == eager
    # a deep copy or a pickle carries the float, not the scan's shared game data
    for row in (copy.deepcopy(fresh()), pickle.loads(pickle.dumps(fresh()))):
        assert isinstance(row.__dict__["optimistic"], float) and row == eager
    row = fresh()
    row.optimistic
    assert row.__dict__["optimistic"] == eager.optimistic
    row = fresh()
    assert row.__class__(**row.__dict__) == eager
    row = fresh()
    assert row.__class__(**{**row.__dict__, "exploit_probability": 0.5}) == dataclasses.replace(
        eager, exploit_probability=0.5
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        fresh().optimistic = 0.0


def fail_on_game(monkeypatch, graph, params, edge):
    """Make ``zeroday.solve_zero_sum`` raise a :class:`SolverError` on the
    augmented game of ``edge`` only; returns the error it raises."""
    target = build_matrix(augment(graph, edge), params).matrix
    error = SolverError("simplex iteration limit reached")

    def failing(matrix, **kwargs):
        if matrix.shape == target.shape and np.array_equal(matrix, target):
            raise error
        return solve_zero_sum(matrix, **kwargs)

    monkeypatch.setattr(zeroday, "solve_zero_sum", failing)
    return error


def test_failed_solve_raises_on_every_read_of_its_record(net20, monkeypatch):
    graph, params, _, sol = net20
    eager = {r.edge: r.optimistic for r in scan_candidates(graph, params, solution=sol)}
    error = fail_on_game(monkeypatch, graph, params, (0, 1))
    rows = scan_candidates(graph, params, solution=sol)
    failed = next(r for r in rows if r.edge == (0, 1))
    for _ in range(2):
        with pytest.raises(SolverError) as raised:
            failed.optimistic
        assert raised.value is error
    with pytest.raises(SolverError):
        repr(failed)
    assert all(r.optimistic == eager[r.edge] for r in rows if r is not failed)
    monkeypatch.undo()
    assert failed.optimistic == eager[(0, 1)]


def test_shared_path_table_keeps_steps_not_edge_path_arrays():
    # entry 0 -> target 1, and the entry -> each of 7 intermediates joined
    # as a complete digraph: 50 edges, 15 candidates and 13,700 paths in the
    # shared table. Its steps take about 2 MiB; dense edge x path arrays
    # kept beside them would take 10 MiB more
    ids = range(2, 9)
    nodes = [NodeRecord(0, 1.0, "entry"), NodeRecord(1, 1.0, "target"),
             *(NodeRecord(i, 1.0, "intermediate") for i in ids)]
    edges = [(0, 1), *((0, i) for i in ids), *((u, v) for u in ids for v in ids if u != v)]
    graph = graph_from_parts(nodes, edges)
    game1 = build_matrix(graph, GameParams(budget=1))
    work = [c.edge for c in generate_zero_day_candidates(graph) if c.status in ("analyzed", "dominant")]
    assert (len(graph.edges), len(work)) == (50, 15)
    gc.collect()
    tracemalloc.start()
    try:
        shared = zeroday._Augmentation(game1, work)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(shared.columns.totals) == 13_700
    assert kept < 6 * 2**20


def test_game_restricted_by_entries_is_rejected(net20):
    graph, params, _, _ = net20
    game = build_matrix(graph, params, entries=(0,))
    sol = solve_zero_sum(game.matrix)
    x, y = sol.defender_strategy, sol.attacker_strategy
    with pytest.raises(ValueError, match="every attack path"):
        evaluate_candidate(game, x, (0, 1), y1=y)
    report = scan_candidates(graph, params)
    for plan in (mitigation.none_mitigation(), mitigation.alpha_mitigation(report, k=1)):
        for criterion in CRITERIA:
            with pytest.raises(ValueError, match="every attack path"):
                mitigation.evaluate_mitigation(plan, game, x, report, criterion=criterion)
    for rows in (report[:1], report[:3], report):
        with pytest.raises(ValueError, match="every attack path"):
            mitigation.nature_game(game, x, rows)


@st.composite
def scan_games(draw):
    """A digraph of ``role_digraphs`` (cycles, several entries and targets)
    with drawn node values, all integers (exact ties) or not, and drawn
    params in either reward mode."""
    g = draw(role_digraphs())
    if draw(st.booleans()):
        value = st.integers(min_value=0, max_value=9).map(float)
    else:
        value = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)
    graph = graph_from_parts([NodeRecord(n.id, draw(value), n.role) for n in g.nodes], g.edges)
    cost = st.floats(min_value=0.0, max_value=15.0, allow_nan=False, allow_infinity=False)
    params = GameParams(cap=draw(cost), esc=draw(cost), honeypot_cost=draw(cost),
                        attack_cost_per_hop=draw(cost),
                        budget=draw(st.integers(min_value=1, max_value=min(2, len(graph.edges)))),
                        terminate_on_capture=draw(st.booleans()))
    return graph, params


def expected_record(game1, sol, game2, edge, status, criterion, mode):
    """The scan record of one candidate, recomputed from the augmented game
    built from scratch."""
    x1, y1 = sol.defender_strategy, sol.attacker_strategy
    new_mask = np.array([len(game1.graph.edges) in path.edges for path in game2.paths])
    column = -(pad_strategy(x1, game1, game2) @ game2.matrix)
    naive = float(np.max(-(x1 @ game1.matrix)))
    br = int(np.argmax(column))
    if mode == "game2_ne" or not (status == "dominant" and criterion == "pessimistic"):
        y2 = solve_zero_sum(game2.matrix).attacker_strategy
        optimistic = float(column @ y2)
    else:
        y2, optimistic = pure_strategy(len(column), br), float(column[br])
    if mode == "best_response":
        pessimistic, pes_y = float(column[br]), pure_strategy(len(column), br)
    else:
        pessimistic, pes_y = optimistic, y2
    chosen, strategy = (pessimistic, pes_y) if criterion == "pessimistic" else (optimistic, y2)
    dominance = "neither"
    new, old = np.flatnonzero(new_mask), np.flatnonzero(~new_mask)
    if new.size:
        r_new = column[new[np.argmax(column[new])]]
        supported = old[np.asarray(y1) > 1e-12]
        if all(r_new > column[j] for j in old):
            dominance = "dominant"
        elif supported.size and all(r_new < column[j] for j in supported) and r_new < -(x1 @ game1.matrix @ y1):
            dominance = "dominated"
    return ZeroDayRecord(
        edge=edge, status=status, naive=naive, optimistic=optimistic, pessimistic=pessimistic,
        impact=chosen - naive, new_path_count=int(new_mask.sum()),
        exploit_probability=float(strategy[new_mask].sum()) if new.size else 0.0,
        dominance=dominance, criterion=criterion, pessimistic_mode=mode,
    )


def _outcome(compute):
    """What ``compute()`` returns, or the solver error it raises."""
    try:
        return compute()
    except SolverError as exc:
        return type(exc).__name__, str(exc)


@given(scan_games())
@settings(max_examples=90, deadline=None)
def test_scan_fast_path_matches_full_rebuild(case):
    # the scan's shared stand-in graph, path table rows, per-candidate
    # columns taken from it and shared no-path game against augment ->
    # build_matrix for every candidate, bit for bit; where the rebuilt game's
    # solve fails, the scan must fail the same way
    graph, params = case
    game1 = build_matrix(graph, params)
    sol = _outcome(lambda: solve_zero_sum(game1.matrix))
    if isinstance(sol, tuple):
        assert _outcome(lambda: scan_candidates(graph, params)) == sol
        return
    work = [c for c in generate_zero_day_candidates(graph) if c.status in ("analyzed", "dominant")]
    if not work:
        return
    shared = zeroday._Augmentation(game1, [c.edge for c in work])
    games2 = [build_matrix(augment(graph, c.edge), params) for c in work]
    for k, game2 in enumerate(games2):
        index = shared.index[k, : shared.lengths[k]]
        row = shared.columns.take(index)
        incidence, weights, totals, hops, positions, values = path_columns(game2.graph, game2.paths)
        width = positions.shape[1]
        assert row.positions[:, :width].tobytes() == positions.tobytes() and (row.positions[:, width:] == -1).all()
        assert row.values[:, :width].tobytes() == values.tobytes() and not row.values[:, width:].any()
        assert row.totals.tobytes() == totals.tobytes() and row.hops.tobytes() == hops.tobytes()
        n_edges = len(game2.graph.edges)
        assert row.scatter(n_edges, 1.0).tobytes() == incidence.tobytes()
        assert row.scatter(n_edges, row.values).tobytes() == weights.tobytes()
        assert [len(graph.edges) in path.edges for path in game2.paths] == (index >= len(game1.paths)).tolist()
        assert (shared.index[k, len(index):] == len(shared.columns.totals)).all()
        matrix = shared.game(k).matrix
        assert np.array_equal(matrix, game2.matrix)
        if params.terminate_on_capture:
            assert np.array_equal(matrix, literal_matrix(game2.graph, params, game2.actions, game2.paths, ()))
    for criterion in CRITERIA:
        for mode in PESSIMISTIC_MODES:
            # replace() reads every field, so an optimistic value whose
            # solve waits for its first read is solved inside _outcome
            scanned = _outcome(lambda: {
                r.edge: dataclasses.replace(r)
                for r in scan_candidates(graph, params, criterion=criterion, pessimistic_mode=mode, solution=sol)
            })
            expected = _outcome(lambda: {
                c.edge: expected_record(game1, sol, game2, c.edge, c.status, criterion, mode)
                for c, game2 in zip(work, games2)
            })
            assert scanned == expected
