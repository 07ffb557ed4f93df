"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the model
definitions (brute-force recursion, literal per-node reward sums, the 2x2
closed form, best responses and equilibrium gaps recomputed from a matrix,
strategy padding by action lookup), or frozen as a verbatim copy of an
earlier implementation (the simplex loop), and must stay independent of the
library code paths it checks.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from decoygraph.lp import FEASIBILITY_TOL, GAP_TOL, SolverError, UnboundedError


def brute_force_paths(node_ids, edges, entry_ids, target_ids, max_hops=None):
    """Every simple entry-to-target path by exhaustive permutation search.

    Only viable for tiny graphs (<= 8 nodes). Returns sorted tuples of node
    sequences matching the library's (entry, target, lexicographic) order.
    """
    edge_set = set(edges)
    found = set()
    nodes = list(node_ids)
    for k in range(2, len(nodes) + 1):
        for seq in permutations(nodes, k):
            if seq[0] not in entry_ids or seq[-1] not in target_ids:
                continue
            if max_hops is not None and len(seq) - 1 > max_hops:
                continue
            if all((seq[i], seq[i + 1]) in edge_set for i in range(len(seq) - 1)):
                found.add(seq)
    return sorted(found, key=lambda s: (s[0], s[-1], s))


def literal_reward(values, edge_pairs, params, action_edge_ids, path_nodes, pinned=()):
    """Per-node evaluation of the reward sum, term by term.

    ``action_edge_ids`` index into ``edge_pairs``; ``pinned`` holds extra
    honeypot locations as pairs. Mirrors the defender reward definition
    without any algebraic regrouping.
    """
    honeypots = {edge_pairs[e] for e in action_edge_ids}
    honeypots |= {tuple(p) for p in pinned}
    total = 0.0
    for k in range(1, len(path_nodes)):
        node = path_nodes[k]
        covered = (path_nodes[k - 1], node) in honeypots
        if covered:
            total += params.cap * values[node]
        else:
            total -= params.esc * values[node]
        if covered and params.terminate_on_capture:
            break
    total -= params.honeypot_cost * len(honeypots)
    total += params.attack_cost_per_hop * (len(path_nodes) - 1)
    return total


def pad_strategy(x1, game1, game2) -> np.ndarray:
    """Lift a game-1 defender strategy into game 2's action ordering.

    Every game-1 action keeps its probability; actions that only exist in
    game 2 (allocations touching the new edge) get zero. Raises ValueError
    if some game-1 action is missing from game 2.
    """
    x_arr = np.asarray(x1, dtype=float)
    if np.any(x_arr < -1e-9):
        raise ValueError("strategy has negative entries")
    if abs(x_arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"strategy sums to {x_arr.sum()!r}, not 1")
    if x_arr.size != len(game1.actions):
        raise ValueError("strategy length does not match game-1 action count")
    index = {action: i for i, action in enumerate(game2.actions)}
    out = np.zeros(len(game2.actions))
    for action, prob in zip(game1.actions, x_arr):
        if action not in index:
            raise ValueError(f"defender action {action} missing from the augmented game")
        out[index[action]] = prob
    return out


def best_response(matrix, fixed, side: str) -> tuple[int, float]:
    """Best pure reply to a fixed mixed strategy; ties go to the lowest index.

    ``side`` names the responder: "row" responds to a fixed column strategy
    and maximizes ``matrix``; "column" responds to a fixed row strategy and
    maximizes ``-matrix``. Returns (action index, responder payoff).
    """
    m_arr = np.asarray(matrix, dtype=float)
    fixed_arr = np.asarray(fixed, dtype=float)
    if side == "row":
        payoffs = m_arr @ fixed_arr
    elif side == "column":
        payoffs = -(fixed_arr @ m_arr)
    else:
        raise ValueError(f"side must be 'row' or 'column', got {side!r}")
    idx = int(np.argmax(payoffs))
    return idx, float(payoffs[idx])


@dataclass
class EquilibriumCheck:
    passed: bool
    defender_gap: float
    attacker_gap: float
    value_residual: float


def verify_equilibrium(matrix, solution, tol: float = GAP_TOL) -> EquilibriumCheck:
    """Recompute best-response gaps from scratch and check value consistency."""
    m_arr = np.asarray(matrix, dtype=float)
    x = np.asarray(solution.defender_strategy, dtype=float)
    y = np.asarray(solution.attacker_strategy, dtype=float)
    value = float(x @ m_arr @ y)
    defender_gap = max(0.0, float(np.max(m_arr @ y)) - value)
    attacker_gap = max(0.0, value - float(np.min(x @ m_arr)))
    residual = abs(value - solution.value)
    distributions_ok = (
        np.all(x >= -FEASIBILITY_TOL)
        and np.all(y >= -FEASIBILITY_TOL)
        and abs(x.sum() - 1.0) <= 1e-9
        and abs(y.sum() - 1.0) <= 1e-9
    )
    passed = bool(distributions_ok and defender_gap <= tol and attacker_gap <= tol and residual <= tol)
    return EquilibriumCheck(
        passed=passed,
        defender_gap=defender_gap,
        attacker_gap=attacker_gap,
        value_residual=residual,
    )


def solve_2x2_exact(matrix):
    """Closed-form value of a 2x2 zero-sum game, exact over rationals.

    Checks for a saddle point first; otherwise applies the mixed-strategy
    indifference formula value = (ad - bc) / (a - b - c + d).
    """
    (a, b), (c, d) = [[Fraction(x).limit_denominator(10**9) for x in row] for row in matrix]
    lower = max(min(a, b), min(c, d))
    upper = min(max(a, c), max(b, d))
    if lower == upper:
        return float(lower)
    denom = a - b - c + d
    return float((a * d - b * c) / denom)


# The simplex loop of ``decoygraph.lp`` as it was before its per-pivot
# overhead was cut, copied verbatim: the reference that the faster loop must
# match bit for bit, pivot for pivot. Tests swap both functions into
# ``decoygraph.lp`` (and may patch ``_DEGENERATE_STREAK`` in both modules).
_DEGENERATE_STREAK = 100


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] = tableau[row] / tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _iterate(tableau, basis, allowed, tol, max_iter):
    """Run simplex pivots until the (minimization) objective row is optimal."""
    m = tableau.shape[0] - 1
    bland = False
    streak = 0
    for _ in range(max_iter):
        reduced = tableau[-1, :-1]
        if bland:
            candidates = np.nonzero((reduced < -tol) & allowed)[0]
            if candidates.size == 0:
                return
            col = int(candidates[0])
        else:
            masked = np.where(allowed, reduced, np.inf)
            col = int(np.argmin(masked))
            if masked[col] >= -tol:
                return
        column = tableau[:m, col]
        rhs = tableau[:m, -1]
        eligible = column > tol
        if not np.any(eligible):
            raise UnboundedError("objective is unbounded")
        ratios = np.full(m, np.inf)
        ratios[eligible] = rhs[eligible] / column[eligible]
        best = np.min(ratios)
        # tie-break on the smallest basis variable index (anti-cycling aid)
        tied = np.nonzero(ratios <= best + tol * max(1.0, abs(best)))[0]
        row = int(min(tied, key=lambda i: basis[i]))
        if best <= tol:
            streak += 1
            if streak > _DEGENERATE_STREAK:
                bland = True
        else:
            streak = 0
        _pivot(tableau, basis, row, col)
    raise SolverError("simplex iteration limit reached")
