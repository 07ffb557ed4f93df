"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the model
definitions (brute-force recursion, literal per-node reward sums, the 2x2
closed form, best responses and equilibrium gaps recomputed from a matrix,
strategy padding by action lookup), or frozen as a verbatim copy of an
earlier implementation (the simplex loop, the two-phase simplex and the
zero-sum game path), and
must stay independent of the library code paths it checks. The one
exception is ``added_paths``, a view of the library's path join as
``AttackPath`` tuples for comparison with full enumeration.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from decoygraph.graph import AttackPath, join_added_paths
from decoygraph.lp import FEASIBILITY_TOL, GAP_TOL, SolverError, UnboundedError


class InfeasibleError(SolverError):
    """The feasible region is empty (raised by ``_solve_canonical`` only)."""


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


def breadth_first_paths(edges, starts, target_ids, max_hops=None):
    """Every simple path from a node of ``starts`` to a target node, as
    (node sequence, edge ids) pairs sorted by (entry, target, nodes).

    Node sequences grow one edge per round, breadth first, by scanning the
    whole ``edges`` list (edge id = list position) for edges leaving their
    last node towards a node not yet on them.
    """
    layer = [((start,), ()) for start in starts]
    found = []
    hops = 0
    while layer and (max_hops is None or hops < max_hops):
        hops += 1
        layer = [
            (nodes + (v,), eids + (eid,))
            for nodes, eids in layer
            for eid, (u, v) in enumerate(edges)
            if u == nodes[-1] and v not in nodes
        ]
        found.extend(path for path in layer if path[0][-1] in target_ids)
    return sorted(found, key=lambda path: (path[0][0], path[0][-1], path[0]))


def reachable_closure(edges, sources):
    """Smallest node set that holds ``sources`` and the head of every edge
    whose tail it holds, grown to a fixed point."""
    closure = set(sources)
    while True:
        grown = closure | {v for u, v in edges if u in closure}
        if grown == closure:
            return closure
        closure = grown


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


def added_paths(graph, base_paths, edges) -> list[tuple[AttackPath, ...]]:
    """For each edge (u, v) in ``edges``, the attack paths that
    ``augment(graph, (u, v))`` has and ``graph`` lacks, in the canonical
    order: the paths of ``join_added_paths``, with its checks and errors."""
    added = join_added_paths(graph, base_paths, edges)
    ids = sorted(graph.node_ids)
    lengths = (added.nodes >= 0).sum(axis=1).tolist()
    paths = [
        AttackPath(nodes=tuple(ids[i] for i in nodes[:length]), edges=tuple(steps[: length - 1]))
        for nodes, steps, length in zip(added.nodes.tolist(), added.steps.tolist(), lengths)
    ]
    ends = np.cumsum(added.counts).tolist()
    return [tuple(paths[start:end]) for start, end in zip([0, *ends], ends)]


def path_columns(graph, paths):
    """The incidence and weights that ``PathColumns.of_paths(graph, paths)``
    scatters over the graph's edges, then its ``totals``, ``hops``,
    ``positions`` and ``values``, stored one path edge at a time, with each
    total summed left to right from 0.0 in a Python loop."""
    incidence = np.zeros((len(graph.edges), len(paths)))
    weights = np.zeros((len(graph.edges), len(paths)))
    totals = np.zeros(len(paths))
    hops = np.zeros(len(paths), dtype=np.intp)
    width = max((path.hops for path in paths), default=1)
    positions = np.full((len(paths), width), -1)
    values = np.zeros((len(paths), width))
    for j, path in enumerate(paths):
        total_value = 0.0
        for k, (eid, node) in enumerate(zip(path.edges, path.nodes[1:])):
            v = graph.value(node)
            incidence[eid, j] = 1.0
            weights[eid, j] = v
            positions[j, k] = eid
            values[j, k] = v
            total_value += v
            hops[j] += 1
        totals[j] = total_value
    return incidence, weights, totals, hops, positions, values


def allocation_rows_loop(graph, actions, pinned=()):
    """``allocation_rows`` one allocation at a time: each allocation's edge
    indicators set edge by edge, then the in-graph pins, and the distinct
    locations deployed."""
    pins = {tuple(p) for p in pinned}
    pin_ids = [graph.edge_index[p] for p in pins if p in graph.edge_index]
    rows = np.zeros((len(actions), len(graph.edges)))
    for i, action in enumerate(actions):
        for eid in action:
            rows[i, eid] = 1.0
    rows[:, pin_ids] = 1.0
    return rows, rows.sum(axis=1) + (len(pins) - len(pin_ids))


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


# The zero-sum game path of ``decoygraph.lp`` as it was before its tableau
# was built in place and its duals read from the basic columns only, copied
# verbatim: it builds the shifted matrix and the full dual-extraction matrix
# and runs on the reference loop above. Tests swap ``_game_sides`` into
# ``decoygraph.lp`` through ``reference_game_sides``. ``_solve_canonical``
# is also the general two-phase simplex that the ``lp`` mitigation plan's
# knapsack was once solved with, and is that plan's reference.
def _price_out(tableau: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    tableau[-1, :] = 0.0
    tableau[-1, : cost.size] = cost
    for i, b in enumerate(basis):
        cb = tableau[-1, b]
        if cb != 0.0:
            tableau[-1] -= cb * tableau[i]


def _solve_canonical(c, a_ub, b_ub, a_eq, b_eq, tol=FEASIBILITY_TOL, want_duals=False):
    """min c @ x s.t. a_ub x <= b_ub, a_eq x == b_eq, x >= 0.

    Returns (x, duals) where ``duals`` are the nonnegative multipliers of the
    inequality rows, extracted from the optimal basis. Dual extraction is
    only supported on the pure-inequality fast path (every b_ub >= 0, no
    equalities); elsewhere it returns None. Slack columns start the basis
    wherever the right-hand side allows; other rows get artificial variables
    and a phase-1 clean-up.
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
        return np.zeros(n), np.zeros(0)

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
                    _pivot(tableau, basis, i, int(structural[0]))
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

    duals = None
    if want_duals and not art_cols:
        # pure <= system: initial matrix is [G | I]; duals come from the
        # optimal basis through B' y = c_B, negated to the >= 0 convention
        initial = np.zeros((m, width))
        for i, (a, _, _) in enumerate(rows):
            initial[i, :n] = a
            initial[i, n + i] = 1.0
        cost_basis = cost2[basis]
        try:
            y = np.linalg.solve(initial[:, basis].T, cost_basis)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular optimal basis during dual extraction") from exc
        duals = -y
    return x[:n], duals


def _normalize_strategy(raw: np.ndarray) -> np.ndarray:
    strategy = np.clip(raw, 0.0, None)
    total = strategy.sum()
    if total <= 0.0:
        raise SolverError("degenerate strategy mass in matrix-game transformation")
    return strategy / total


def _game_sides(matrix: np.ndarray, tol: float):
    """Both equilibrium strategies of the game ``matrix`` via one LP.

    After the classical constant shift to a positive matrix M', the column
    player solves max 1'q s.t. M'q <= 1 (optimum 1/V', strategy q/1'q); the
    multipliers of those rows solve the covering dual and normalize into the
    row player's strategy.
    """
    shift = max(0.0, 1.0 - float(matrix.min()))
    shifted = matrix + shift
    m, n = shifted.shape
    q, duals = _solve_canonical(
        -np.ones(n), shifted, np.ones(m), np.zeros((0, n)), np.zeros(0), tol=tol, want_duals=True
    )
    scale = q.sum()
    if scale <= tol:
        raise SolverError("degenerate scale in matrix-game transformation")
    return _normalize_strategy(duals), _normalize_strategy(q)


def reference_game_sides(m_arr, transposed, tol):
    """The reference ``_game_sides`` behind the package's signature."""
    return _game_sides(-m_arr.T if transposed else m_arr, tol)
