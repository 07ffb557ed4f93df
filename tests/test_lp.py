import itertools
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from decoygraph import lp
from decoygraph.game import GameParams, build_matrix
from decoygraph.graph import augment, load_graph
from decoygraph.lp import solve_zero_sum
from oracles import best_response, solve_2x2_exact, verify_equilibrium


class TestZeroSum:
    def test_degenerate_single_cell(self):
        sol = solve_zero_sum([[0.0]])
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert sol.defender_strategy == pytest.approx([1.0])
        assert sol.attacker_strategy == pytest.approx([1.0])

    def test_matching_pennies(self):
        sol = solve_zero_sum([[1.0, -1.0], [-1.0, 1.0]])
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert sol.defender_strategy == pytest.approx([0.5, 0.5], abs=1e-9)
        assert sol.attacker_strategy == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_two_by_two_mixed(self):
        m = [[5.0, -2.0], [-4.0, 6.0]]
        sol = solve_zero_sum(m)
        assert sol.value == pytest.approx(22 / 17, abs=1e-9)
        assert sol.defender_strategy == pytest.approx([10 / 17, 7 / 17], abs=1e-9)
        assert sol.attacker_strategy == pytest.approx([8 / 17, 9 / 17], abs=1e-9)

    def test_single_column_picks_max_row(self):
        sol = solve_zero_sum([[-13.0], [1.0], [16.0]])
        assert sol.value == pytest.approx(16.0, abs=1e-9)
        assert sol.defender_strategy == pytest.approx([0.0, 0.0, 1.0], abs=1e-9)

    def test_saddle_point(self):
        sol = solve_zero_sum([[1.0, 2.0], [0.0, 3.0]])
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        check = verify_equilibrium([[1.0, 2.0], [0.0, 3.0]], sol)
        assert check.passed

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_zero_sum(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            solve_zero_sum([[np.nan]])

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-5, 5, (4, 6))
        base = solve_zero_sum(m)
        shifted = solve_zero_sum(m + 7.25)
        assert shifted.value == pytest.approx(base.value + 7.25, abs=1e-7)
        support = lambda s: frozenset(np.nonzero(s > 1e-8)[0])
        assert support(shifted.defender_strategy) == support(base.defender_strategy)
        assert support(shifted.attacker_strategy) == support(base.attacker_strategy)

    def test_minimax_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.uniform(-10, 10, (int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            assert solve_zero_sum(m).value == pytest.approx(
                -solve_zero_sum(-m.T).value, abs=1e-6
            )

    def test_two_by_two_grid_against_closed_form(self):
        span = range(-2, 3)
        for a, b, c, d in itertools.product(span, repeat=4):
            m = [[float(a), float(b)], [float(c), float(d)]]
            sol = solve_zero_sum(m)
            assert sol.value == pytest.approx(solve_2x2_exact(m), abs=1e-9), m

    def test_random_batch_verifies(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            m = rng.uniform(-10, 10, (4, 4))
            sol = solve_zero_sum(m)
            assert verify_equilibrium(m, sol).passed


class TestBestResponse:
    def test_matching_pennies_counter(self):
        idx, value = best_response([[1.0, -1.0], [-1.0, 1.0]], [1.0, 0.0], "column")
        assert idx == 1
        assert value == pytest.approx(1.0)

    def test_line_game2_column_scan(self, line3):
        from decoygraph.game import build_matrix
        from decoygraph.graph import augment

        graph, params, game, _ = line3
        game2 = build_matrix(augment(graph, (1, 3)), params)
        fixed = np.zeros(len(game2.actions))
        fixed[game2.actions.index((1,))] = 1.0  # pure on honeypot at (2, 3)
        idx, value = best_response(game2.matrix, fixed, "column")
        assert game2.paths[idx].nodes == (1, 3)
        assert value == pytest.approx(10.0)

    def test_tie_breaks_to_lowest_index(self):
        idx, _ = best_response([[2.0, 2.0], [2.0, 2.0]], [0.5, 0.5], "column")
        assert idx == 0
        idx, _ = best_response([[1.0], [1.0]], [1.0], "row")
        assert idx == 0

    def test_row_side(self):
        idx, value = best_response([[5.0, -2.0], [-4.0, 6.0]], [1.0, 0.0], "row")
        assert idx == 0
        assert value == pytest.approx(5.0)

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            best_response([[1.0]], [1.0], "diagonal")


class TestVerify:
    def test_detects_non_equilibrium(self):
        m = np.array([[5.0, -2.0], [-4.0, 6.0]])
        from decoygraph.lp import GameSolution

        fake = GameSolution(
            defender_strategy=np.array([0.5, 0.5]),
            attacker_strategy=np.array([0.5, 0.5]),
            value=1.25,
            defender_gap=0.0,
            attacker_gap=0.0,
        )
        check = verify_equilibrium(m, fake)
        assert not check.passed
        assert check.defender_gap == pytest.approx(0.25)
        assert check.attacker_gap == pytest.approx(0.75)

    def test_accepts_solver_output(self):
        m = np.array([[3.0, -1.0, 2.0], [0.0, 4.0, -2.0]])
        check = verify_equilibrium(m, solve_zero_sum(m))
        assert check.passed
        assert check.value_residual <= 1e-9


def _outcome(solve, *args):
    """Every bit of a solver result, or the error it raised."""
    try:
        result = solve(*args)
    except lp.SolverError as exc:
        return type(exc).__name__, str(exc)
    return tuple(np.asarray(v).tobytes() for v in vars(result).values())


# the package's pivot routine is swapped for the reference's, or the
# package's game path for the reference's, which runs on the reference loop
REFERENCE_LOOP = {
    "_iterate": lambda tableau, basis, tol, max_iter: oracles._iterate(
        tableau, basis, np.ones(tableau.shape[1] - 1, dtype=bool), tol, max_iter
    ),
    "_pivot": lambda tableau, basis, row, col, block: oracles._pivot(tableau, basis, row, col),
}
REFERENCE_GAME_PATH = {"_game_sides": oracles.reference_game_sides}
# so few floats per row block that every tableau is updated in several blocks
SMALL_BLOCK = 8


def _against_reference(streak, block, reference, solve, *args):
    """(package, reference) outcomes of ``solve(*args)``, where the reference
    run swaps the functions of ``reference`` into ``lp``. With ``streak`` 0
    Bland's rule runs from the first pivot in both; ``block`` sets the
    package's row-block size."""
    with pytest.MonkeyPatch.context() as mp:
        if streak is not None:
            mp.setattr(lp, "_DEGENERATE_STREAK", streak)
            mp.setattr(oracles, "_DEGENERATE_STREAK", streak)
        if block is not None:
            mp.setattr(lp, "_BLOCK_ELEMENTS", block)
        fast = _outcome(solve, *args)
        for name, function in reference.items():
            mp.setattr(lp, name, function)
        return fast, _outcome(solve, *args)


# entries from a tiny integer range make ties and degenerate pivots common
small_games = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(lambda n: arrays(float, (m, n), elements=st.integers(-2, 2)))
)


@pytest.mark.parametrize("block", [None, SMALL_BLOCK])
@pytest.mark.parametrize("streak", [None, 0])
@given(matrix=small_games)
@settings(max_examples=150, deadline=None)
def test_simplex_loop_matches_reference_on_games(streak, block, matrix):
    for oriented in (matrix, -matrix.T):
        fast, reference = _against_reference(streak, block, REFERENCE_LOOP, solve_zero_sum, oriented)
        assert fast == reference


@pytest.mark.parametrize("streak", [None, 0])
@given(matrix=small_games)
@settings(max_examples=150, deadline=None)
def test_game_path_matches_reference(streak, matrix):
    for oriented in (matrix, -matrix.T):
        fast, reference = _against_reference(
            streak, SMALL_BLOCK, REFERENCE_GAME_PATH, solve_zero_sum, oriented
        )
        assert fast == reference


@st.composite
def pivots(draw):
    """A small tableau with signed zeros, and a (row, col) with a nonzero entry."""
    shape = (draw(st.integers(2, 6)), draw(st.integers(1, 6)))
    entries = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    tableau = draw(arrays(float, shape, elements=entries))
    row, col = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
    assume(tableau[row, col] != 0.0)
    return tableau, row, col


@given(case=pivots())
# row 1 gets -0.0 - 1 * (-0.0) = +0.0; a later block that read the pivot
# row after its own update made it +0.0 would get -0.0 - 1 * 0.0 = -0.0
@example(case=(np.array([[1.0, -0.0, 0.0, 0.0, 0.0], [1.0, -0.0, 0.0, 0.0, 0.0]]), 0, 0))
@settings(max_examples=100, deadline=None)
def test_blocked_pivot_matches_reference_bit_for_bit(case):
    # game outcomes cannot show the sign of a zero in the tableau, so this
    # pins every entry, -0.0 included, of one blocked pivot
    tableau, row, col = case
    expected = tableau.copy()
    oracles._pivot(expected, list(range(len(tableau))), row, col)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_BLOCK_ELEMENTS", SMALL_BLOCK)
        lp._pivot(tableau, list(range(len(tableau))), row, col, lp._row_block(tableau))
    assert tableau.tobytes() == expected.tobytes()


def _simplex_loop(c, a, b):
    """The final tableau and basis of the package's simplex loop on
    min c @ x s.t. a @ x <= b, x >= 0, started from the slack basis."""
    m, n = a.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[np.arange(m), np.arange(n, n + m)] = 1.0
    tableau[:m, -1] = b
    tableau[-1, :n] = c
    basis = list(range(n, n + m))
    lp._iterate(tableau, basis, lp.FEASIBILITY_TOL, 100 + 50 * (m + n))
    return SimpleNamespace(tableau=tableau, basis=np.asarray(basis))


@st.composite
def small_lps(draw):
    """(c, a, b) with b >= 0, so the slack basis is feasible: the form of the
    game tableaux, but with free signs in a and c, so that unbounded
    objectives and many more degenerate pivots occur."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    coefficients = st.integers(-2, 2)
    return (
        draw(arrays(float, n, elements=coefficients)),
        draw(arrays(float, (m, n), elements=coefficients)),
        draw(arrays(float, m, elements=st.integers(0, 2))),
    )


@pytest.mark.parametrize("block", [None, SMALL_BLOCK])
@pytest.mark.parametrize("streak", [None, 0])
@given(program=small_lps())
@settings(max_examples=150, deadline=None)
def test_simplex_loop_matches_reference_on_lps(streak, block, program):
    fast, reference = _against_reference(streak, block, REFERENCE_LOOP, _simplex_loop, *program)
    assert fast == reference


def test_game_solve_peak_memory_stays_near_one_tableau():
    # the LP of a 4000x40 game has 40 rows; its tableau is the one
    # game-sized array the solve may hold, next to a row block and vectors
    matrix = np.random.default_rng(14).integers(-20, 21, size=(4000, 40)).astype(float)
    m, n = min(matrix.shape), max(matrix.shape)
    tableau_bytes = (m + 1) * (n + m + 1) * 8
    tracemalloc.start()
    try:
        solve_zero_sum(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * tableau_bytes


# The two halves of the ratio test, each on an LP where only that half
# decides the pivot row (x is the one structural column, so column 0).
def test_ratio_test_skips_entries_small_beside_the_column():
    # 1e-7 is above FEASIBILITY_TOL but not above FEASIBILITY_TOL * 1000:
    # pivoting on it would read the row 1e-7 x <= 0 as binding
    final = _simplex_loop(np.array([-1.0]), np.array([[1e-7], [1000.0]]), np.array([0.0, 1.0]))
    assert final.basis.tolist() == [1, 0]
    assert final.tableau[1, -1] == 1.0 / 1000.0


def test_ratio_test_reads_negative_right_hand_sides_as_zero():
    # the ratio -1e-12 / 1e-4 = -1e-8 is further below the tie band's 1e-9
    # than row 0's ratio 0.0: taken as it is, it pivots on 1e-4 and sets
    # x = -1e-8; read as 0.0 it ties with row 0, whose basic variable has
    # the smaller index
    final = _simplex_loop(np.array([-1.0]), np.array([[1.0], [1e-4]]), np.array([0.0, -1e-12]))
    assert final.basis.tolist() == [0, 2]
    assert final.tableau[0, -1] == 0.0


# Two augmented games that an earlier ratio test could not solve. It pivoted
# on column entries just above FEASIBILITY_TOL and took ratios from
# right-hand sides that rounding had left slightly negative, which moved the
# iterate off the feasible region.
def _augmented_game(graph_document, params, edge):
    return build_matrix(augment(load_graph(graph_document), edge), params).matrix


def test_near_tie_game_solves():
    # ended with an attacker gap of 2.0
    graph = {
        "nodes": [
            {"id": 0, "value": 0.0, "role": "entry"},
            {"id": 1, "value": 0.0, "role": "target"},
            {"id": 2, "value": 0.0, "role": "intermediate"},
            {"id": 3, "value": 2.0, "role": "target"},
        ],
        "edges": [[3, 1], [0, 1], [0, 2], [0, 3]],
    }
    params = GameParams(cap=7.0, esc=1.0, honeypot_cost=0.0, attack_cost_per_hop=1.192092896e-07, budget=1)
    matrix = _augmented_game(graph, params, (2, 3))
    assert matrix.shape == (6, 5)
    assert verify_equilibrium(matrix, solve_zero_sum(matrix)).passed


def test_terminate_on_capture_game_solves_before_the_iteration_limit():
    # pivoted on entries of 1e-9, drove right-hand sides to -98 and hit the
    # iteration limit after about 34,000 pivots
    graph = (Path(__file__).parent / "layered_m30.json").read_text()
    params = GameParams(cap=10.0, esc=5.0, honeypot_cost=1.0, attack_cost_per_hop=4.0, budget=2,
                        terminate_on_capture=True)
    matrix = _augmented_game(graph, params, (13, 2))
    assert matrix.shape == (497, 70)
    assert verify_equilibrium(matrix, solve_zero_sum(matrix)).passed
