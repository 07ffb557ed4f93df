"""Dense two-phase simplex for small LPs and zero-sum matrix games.

Self-contained on purpose: a dependency-free solver keeps runs reproducible
bit for bit. A game's tableau, up to tens of thousands of columns, is the
only game-sized array its solve holds, and pivots update it in cache-sized
row blocks. Pivoting is Dantzig's rule with a permanent switch to Bland's
rule after a long degenerate streak, so the solver is deterministic and
cannot cycle.
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


class InfeasibleError(SolverError):
    """The feasible region is empty."""


class UnboundedError(SolverError):
    """The objective is unbounded in the optimization direction."""


@dataclass
class LinearProgram:
    """min (or max) objective @ x subject to lhs_ineq @ x <= rhs_ineq,
    lhs_eq @ x == rhs_eq and box bounds on x.

    ``bounds`` is either a single (lo, hi) pair applied to every variable or
    one pair per variable; ``None`` means unbounded on that side. Default is
    x >= 0.
    """

    objective: np.ndarray
    lhs_ineq: np.ndarray | None = None
    rhs_ineq: np.ndarray | None = None
    lhs_eq: np.ndarray | None = None
    rhs_eq: np.ndarray | None = None
    bounds: tuple | list = (0.0, None)
    maximize: bool = False


@dataclass
class LpSolution:
    x: np.ndarray
    objective: float


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


def _iterate(tableau, basis, allowed, tol, max_iter):
    """Run simplex pivots until the (minimization) objective row is optimal.

    The tableau is updated in place, so the views taken here stay current,
    and every pivot reuses the same ratio and row-block buffers.
    """
    m = tableau.shape[0] - 1
    every_allowed = bool(allowed.all())
    reduced = tableau[-1, :-1]
    rhs = tableau[:m, -1]
    eligible = np.empty(m, dtype=bool)
    ratios = np.empty(m)
    block = _row_block(tableau)
    bland = False
    streak = 0
    for _ in range(max_iter):
        if bland:
            candidates = ((reduced < -tol) & allowed).nonzero()[0]
            if candidates.size == 0:
                return
            col = int(candidates[0])
        else:
            masked = reduced if every_allowed else np.where(allowed, reduced, np.inf)
            col = int(masked.argmin())
            if masked[col] >= -tol:
                return
        column = tableau[:m, col]
        np.greater(column, tol, out=eligible)
        if not eligible.any():
            raise UnboundedError("objective is unbounded")
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=eligible)
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


def _price_out(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    tableau[-1, :] = 0.0
    tableau[-1, : cost.size] = cost
    for i, b in enumerate(basis):
        cb = tableau[-1, b]
        if cb != 0.0:
            tableau[-1] -= cb * tableau[i]


def _solve_canonical(c, a_ub, b_ub, a_eq, b_eq, tol=FEASIBILITY_TOL):
    """min c @ x s.t. a_ub x <= b_ub, a_eq x == b_eq, x >= 0.

    Slack columns start the basis wherever the right-hand side allows; other
    rows get artificial variables and a phase-1 clean-up.
    """
    n = c.size
    rows = []
    for a, b in zip(a_ub, b_ub):
        if b >= 0:
            rows.append((a, b, "le"))
        else:
            rows.append((-a, -b, "ge"))
    for a, b in zip(a_eq, b_eq):
        rows.append((a, b, "eq") if b >= 0 else (-a, -b, "eq"))

    m = len(rows)
    if m == 0:
        # feasible region is the nonnegative orthant
        if np.any(c < -tol):
            raise UnboundedError("objective is unbounded")
        return np.zeros(n)

    n_slack = sum(1 for _, _, kind in rows if kind == "le")
    n_surplus = sum(1 for _, _, kind in rows if kind == "ge")
    n_art = sum(1 for _, _, kind in rows if kind in ("ge", "eq"))
    width = n + n_slack + n_surplus + n_art

    tableau = np.zeros((m + 1, width + 1))
    basis = [-1] * m
    slack_at = n
    surplus_at = n + n_slack
    art_at = n + n_slack + n_surplus
    art_cols = []
    for i, (a, b, kind) in enumerate(rows):
        tableau[i, :n] = a
        tableau[i, -1] = b
        if kind == "le":
            tableau[i, slack_at] = 1.0
            basis[i] = slack_at
            slack_at += 1
        else:
            if kind == "ge":
                tableau[i, surplus_at] = -1.0
                surplus_at += 1
            tableau[i, art_at] = 1.0
            basis[i] = art_at
            art_cols.append(art_at)
            art_at += 1

    max_iter = 2000 + 50 * (m + width)

    if art_cols:
        cost1 = np.zeros(width)
        cost1[art_cols] = 1.0
        _price_out(tableau, basis, cost1)
        allowed = np.ones(width, dtype=bool)
        _iterate(tableau, basis, allowed, tol, max_iter)
        if -tableau[-1, -1] > 1e-7:
            raise InfeasibleError("constraints are infeasible")
        # drive leftover artificials out of the basis, dropping redundant rows
        art_set = set(art_cols)
        keep_rows = []
        for i in range(m):
            if basis[i] in art_set:
                structural = np.nonzero(np.abs(tableau[i, : n + n_slack + n_surplus]) > tol)[0]
                if structural.size:
                    _pivot(tableau, basis, i, int(structural[0]), _row_block(tableau))
                    keep_rows.append(i)
                # else: redundant row, drop it
            else:
                keep_rows.append(i)
        tableau = tableau[keep_rows + [m], :]
        basis = [basis[i] for i in keep_rows]
        m = len(basis)
        allowed = np.ones(width, dtype=bool)
        allowed[art_cols] = False
    else:
        allowed = np.ones(width, dtype=bool)

    cost2 = np.zeros(width)
    cost2[:n] = c
    _price_out(tableau, basis, cost2)
    _iterate(tableau, basis, allowed, tol, max_iter)

    x = np.zeros(width)
    for i, b in enumerate(basis):
        x[b] = tableau[i, -1]

    return x[:n]


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve a small dense LP; raises Infeasible/Unbounded errors distinctly."""
    c = np.asarray(lp.objective, dtype=float).ravel()
    n = c.size
    a_ub = np.zeros((0, n)) if lp.lhs_ineq is None else np.atleast_2d(np.asarray(lp.lhs_ineq, float))
    b_ub = np.zeros(0) if lp.rhs_ineq is None else np.asarray(lp.rhs_ineq, float).ravel()
    a_eq = np.zeros((0, n)) if lp.lhs_eq is None else np.atleast_2d(np.asarray(lp.lhs_eq, float))
    b_eq = np.zeros(0) if lp.rhs_eq is None else np.asarray(lp.rhs_eq, float).ravel()
    if a_ub.shape[0] != b_ub.size or (a_ub.size and a_ub.shape[1] != n):
        raise ValueError("inequality constraint dimensions do not match")
    if a_eq.shape[0] != b_eq.size or (a_eq.size and a_eq.shape[1] != n):
        raise ValueError("equality constraint dimensions do not match")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a_ub)) and np.all(np.isfinite(b_ub))
            and np.all(np.isfinite(a_eq)) and np.all(np.isfinite(b_eq))):
        raise ValueError("linear program contains non-finite data")

    bounds = lp.bounds
    if isinstance(bounds, tuple):
        bounds = [bounds] * n
    if len(bounds) != n:
        raise ValueError("one bound pair per variable required")

    # substitute x = offset + sign * u with u >= 0; free variables split in two
    col_sign = []
    offset = np.zeros(n)
    extra_rows = []  # (unit column index, upper value) for finite widths
    split = []
    for j, (lo, hi) in enumerate(bounds):
        lo_f = -np.inf if lo is None else float(lo)
        hi_f = np.inf if hi is None else float(hi)
        if lo_f > hi_f:
            raise InfeasibleError(f"variable {j} has lower bound above upper bound")
        if np.isfinite(lo_f):
            offset[j] = lo_f
            col_sign.append(1.0)
            if np.isfinite(hi_f):
                extra_rows.append((j, hi_f - lo_f))
        elif np.isfinite(hi_f):
            offset[j] = hi_f
            col_sign.append(-1.0)
        else:
            col_sign.append(1.0)
            split.append(j)

    sign = np.asarray(col_sign)
    c_work = (-c if lp.maximize else c).copy()

    def transform_matrix(a):
        if a.size == 0:
            return np.zeros((a.shape[0], n + len(split)))
        base = a * sign
        extra = -a[:, split] if split else np.zeros((a.shape[0], 0))
        return np.hstack([base, extra])

    g = transform_matrix(a_ub)
    h = b_ub - a_ub @ offset if a_ub.size else b_ub.copy()
    if extra_rows:
        unit = np.zeros((len(extra_rows), n + len(split)))
        caps = np.zeros(len(extra_rows))
        for k, (j, width_j) in enumerate(extra_rows):
            unit[k, j] = 1.0
            caps[k] = width_j
        g = np.vstack([g, unit]) if g.size else unit
        h = np.concatenate([h, caps])
    e = transform_matrix(a_eq)
    f = b_eq - a_eq @ offset if a_eq.size else b_eq.copy()

    c_std = np.concatenate([c_work * sign, -c_work[split]]) if split else c_work * sign

    u = _solve_canonical(c_std, g, h, e, f)
    x = offset + sign * u[:n]
    for k, j in enumerate(split):
        x[j] -= u[n + k]
    objective = float(c @ x)
    return LpSolution(x=x, objective=objective)


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
    _iterate(tableau, basis, np.ones(n + m, dtype=bool), tol, 2000 + 50 * (2 * m + n))

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


def solve_zero_sum(matrix, *, tol: float = FEASIBILITY_TOL) -> GameSolution:
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
        defender, attacker = _game_sides(m_arr, False, tol)
    else:
        attacker, defender = _game_sides(m_arr, True, tol)
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
