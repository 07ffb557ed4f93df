"""Equilibria of zero-sum matrix games by a dense simplex.

Each game is solved as one LP whose slack columns start the basis, so there
is no phase 1. Self-contained on purpose: a dependency-free solver keeps
runs reproducible bit for bit. A game's tableau, up to tens of thousands of
columns, is the only game-sized array its solve holds, and pivots update it
in cache-sized row blocks. Pivoting is Dantzig's rule with a permanent
switch to Bland's rule after a long degenerate streak, so the solver is
deterministic and cannot cycle. The ratio test pivots only on column
entries above ``tol`` times the column's largest magnitude (at least 1), and
reads right-hand sides that rounding left below zero as zero, so the
iterate stays feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
GAP_TOL = 1e-6

_DEGENERATE_STREAK = 100
# floats in _pivot's row-block buffer (256 KiB): the update of one block
# stays in cache, where a whole large tableau would not
_BLOCK_ELEMENTS = 1 << 15


class SolverError(RuntimeError):
    """Numerical failure inside the solver; never a silent wrong answer."""


class UnboundedError(SolverError):
    """The objective is unbounded in the optimization direction."""


@dataclass
class GameSolution:
    """Mixed-strategy equilibrium of a zero-sum matrix game.

    ``value`` is the row maximizer's expected payoff; gaps are the best pure
    deviation improvements (both ~0 at equilibrium).
    """

    defender_strategy: np.ndarray
    attacker_strategy: np.ndarray
    value: float
    defender_gap: float
    attacker_gap: float


def _row_block(tableau: np.ndarray) -> np.ndarray:
    """Scratch space for :func:`_pivot`: whole tableau rows, at least one."""
    rows = min(len(tableau), max(1, _BLOCK_ELEMENTS // tableau.shape[1]))
    return np.empty((rows, tableau.shape[1]))


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int, block: np.ndarray) -> None:
    """Pivot on (row, col), updating the tableau one row block at a time
    through ``block`` (from :func:`_row_block`)."""
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    step = len(block)
    # the pivot row's own zero-factor update turns its -0.0 entries into
    # +0.0, so blocks after it must read a copy taken before that update
    pivot_row = tableau[row] if step == len(tableau) else tableau[row].copy()
    for start in range(0, len(tableau), step):
        part = tableau[start : start + step]
        part -= np.multiply(factors[start : start + step, None], pivot_row, out=block[: len(part)])
    basis[row] = col


def _iterate(tableau, basis, tol, max_iter):
    """Run simplex pivots until the (minimization) objective row is optimal.

    The tableau is updated in place, so the views taken here stay current,
    and every pivot reuses the same ratio and row-block buffers.
    """
    m = tableau.shape[0] - 1
    reduced = tableau[-1, :-1]
    rhs = tableau[:m, -1]
    eligible = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    block = _row_block(tableau)
    bland = False
    streak = 0
    for _ in range(max_iter):
        if bland:
            candidates = (reduced < -tol).nonzero()[0]
            if candidates.size == 0:
                return
            col = int(candidates[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -tol:
                return
        column = tableau[:m, col]
        # entries this small beside the column's largest are mostly rounding
        # residue, and dividing by them throws the iterate far off
        np.greater(column, tol * float(np.abs(column).max(initial=1.0)), out=eligible)
        if not eligible.any():
            raise UnboundedError("objective is unbounded")
        ratios.fill(np.inf)
        # a right-hand side that rounding left below zero counts as zero
        np.divide(np.maximum(rhs, 0.0), column, out=ratios, where=eligible)
        best = ratios.min()
        # tie-break on the smallest basis variable index (anti-cycling aid)
        tied = (ratios <= best + tol * max(1.0, abs(best))).nonzero()[0]
        row = int(tied[0]) if tied.size == 1 else min(tied.tolist(), key=basis.__getitem__)
        if best <= tol:
            streak += 1
            if streak > _DEGENERATE_STREAK:
                bland = True
        else:
            streak = 0
        _pivot(tableau, basis, row, col, block)
    raise SolverError("simplex iteration limit reached")


def _normalize_strategy(raw: np.ndarray) -> np.ndarray:
    strategy = np.clip(raw, 0.0, None)
    total = strategy.sum()
    if total <= 0.0:
        raise SolverError("degenerate strategy mass in matrix-game transformation")
    return strategy / total


def _game_sides(m_arr: np.ndarray, transposed: bool, tol: float):
    """Both equilibrium strategies (row player's first) of the game G, which
    is ``m_arr``, or ``-m_arr.T`` if ``transposed``, via one LP.

    After the classical constant shift to a positive matrix G', the column
    player solves max 1'q s.t. G'q <= 1 (optimum 1/V', strategy q/1'q); the
    multipliers of those rows, from B'y = c_B on the optimal basis B of
    [G' | I], normalize into the row player's strategy.
    """
    game, sign = (m_arr.T, -1.0) if transposed else (m_arr, 1.0)
    shift = max(0.0, 1.0 - float(-m_arr.max() if transposed else m_arr.min()))
    m, n = game.shape
    tableau = np.zeros((m + 1, n + m + 1))
    np.multiply(game, sign, out=tableau[:m, :n])
    tableau[:m, :n] += shift
    tableau[np.arange(m), np.arange(n, n + m)] = 1.0
    tableau[:m, -1] = 1.0
    tableau[-1, :n] = -1.0
    basis = list(range(n, n + m))
    _iterate(tableau, basis, tol, 2000 + 50 * (2 * m + n))

    basic = np.asarray(basis)
    structural = basic < n
    q = np.zeros(n)
    q[basic[structural]] = tableau[:m, -1][structural]
    basis_matrix = np.zeros((m, m))
    basis_matrix[:, structural] = game[:, basic[structural]] * sign + shift
    basis_matrix[basic[~structural] - n, ~structural] = 1.0
    try:
        y = np.linalg.solve(basis_matrix.T, np.where(structural, -1.0, 0.0))
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular optimal basis during dual extraction") from exc
    if q.sum() <= tol:
        raise SolverError("degenerate scale in matrix-game transformation")
    return _normalize_strategy(-y), _normalize_strategy(q)


def solve_zero_sum(matrix) -> GameSolution:
    """Equilibrium of the zero-sum game whose row player maximizes ``matrix``.

    Oriented so the LP has min(rows, columns) constraints; the other side's
    strategy falls out of the optimal dual multipliers. The reported value
    and gaps are recomputed from the strategies themselves, so a solver
    defect surfaces as a loud gap failure rather than a wrong answer.
    """
    m_arr = np.asarray(matrix, dtype=float)
    if m_arr.ndim != 2 or m_arr.size == 0:
        raise ValueError("payoff matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(m_arr)):
        raise ValueError("payoff matrix contains non-finite entries")

    if m_arr.shape[0] <= m_arr.shape[1]:
        defender, attacker = _game_sides(m_arr, False, FEASIBILITY_TOL)
    else:
        attacker, defender = _game_sides(m_arr, True, FEASIBILITY_TOL)
    value = float(defender @ m_arr @ attacker)
    defender_gap = max(0.0, float(np.max(m_arr @ attacker)) - value)
    attacker_gap = max(0.0, value - float(np.min(defender @ m_arr)))
    if max(defender_gap, attacker_gap) > GAP_TOL:
        raise SolverError(
            f"equilibrium gaps exceed tolerance (defender {defender_gap:.3e}, "
            f"attacker {attacker_gap:.3e})"
        )
    return GameSolution(
        defender_strategy=defender,
        attacker_strategy=attacker,
        value=value,
        defender_gap=defender_gap,
        attacker_gap=attacker_gap,
    )
