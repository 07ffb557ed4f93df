"""Reference computations for the benchmark's output checks.

Written from the model's definition, not from the library: graphs and
parameters arrive as the plain documents the program reads, attack paths
come from this module's own depth-first search, and every payoff is the
literal per-node reward sum. Nothing here imports ``decoygraph``.

Model: the defender traps up to ``budget`` edges; the attacker walks a
simple path from an entry node to a target node. Each non-entry node on the
path adds ``cap * value`` to the defender's reward when the edge entering it
is trapped (with ``terminate_on_capture`` the value sum stops there) and
``-esc * value`` otherwise. Each honeypot, counted once per location, costs
``honeypot_cost``; each hop of the path adds ``attack_cost_per_hop``.

Equilibrium certificates accept any equilibrium: for the program's mixed
strategies (x, y) the defender's best reply to y, taken over every
allocation, bounds the game value from above, and the attacker's best reply
to x, taken over every path, bounds it from below. Both use only rows x
supp(y) and supp(x) x columns of this module's payoffs.
"""

from __future__ import annotations

from itertools import combinations


class CheckFailed(Exception):
    """An output of the program failed a benchmark check."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Model:
    """One game: graph document plus params document."""

    def __init__(self, graph_doc: dict, params_doc: dict):
        self.values = {n["id"]: float(n["value"]) for n in graph_doc["nodes"]}
        self.entries = sorted(n["id"] for n in graph_doc["nodes"] if n["role"] == "entry")
        self.targets = {n["id"] for n in graph_doc["nodes"] if n["role"] == "target"}
        self.edges = [tuple(e) for e in graph_doc["edges"]]
        self.cap = float(params_doc["cap"])
        self.esc = float(params_doc["esc"])
        self.fee = float(params_doc["honeypot_cost"])
        self.hop = float(params_doc["attack_cost_per_hop"])
        self.budget = int(params_doc["budget"])
        self.terminate = bool(params_doc.get("terminate_on_capture", False))
        self._hops: dict = {}
        self._cells: dict = {}

    def paths(self, extra_edge=None) -> list[tuple[int, ...]]:
        """Every simple entry-to-target path, as node tuples."""
        succ: dict[int, list[int]] = {}
        for u, v in self.edges + ([tuple(extra_edge)] if extra_edge else []):
            succ.setdefault(u, []).append(v)
        found = []
        stack = [(e, (e,)) for e in self.entries]
        while stack:
            node, seq = stack.pop()
            if node in self.targets and len(seq) > 1:
                found.append(seq)
            for nxt in succ.get(node, ()):
                if nxt not in seq:
                    stack.append((nxt, seq + (nxt,)))
        return sorted(found)

    def reward(self, honeypots: frozenset, path: tuple[int, ...]) -> float:
        """Defender reward when ``honeypots`` (a set of (u, v) locations)
        meets ``path``, summed node by node."""
        total = 0.0
        for k in range(1, len(path)):
            value = self.values[path[k]]
            if (path[k - 1], path[k]) in honeypots:
                total += self.cap * value
                if self.terminate:
                    break
            else:
                total -= self.esc * value
        total -= self.fee * len(honeypots)
        total += self.hop * (len(path) - 1)
        return total

    def hops(self, path: tuple[int, ...]) -> frozenset:
        """The (u, v) locations a path crosses."""
        hops = self._hops.get(path)
        if hops is None:
            hops = self._hops[path] = frozenset(zip(path, path[1:]))
        return hops

    def cell(self, honeypots: frozenset, path: tuple[int, ...]) -> float:
        """``reward`` memoised on what it depends on: the honeypots on the
        path's own hops and the honeypot count."""
        key = (path, honeypots & self.hops(path), len(honeypots))
        value = self._cells.get(key)
        if value is None:
            value = self._cells[key] = self.reward(honeypots, path)
        return value

    def allocations(self) -> list[frozenset]:
        """Every defender allocation: edge sets of size 0..budget."""
        return [
            frozenset(self.edges[i] for i in combo)
            for k in range(self.budget + 1)
            for combo in combinations(range(len(self.edges)), k)
        ]

    def scan_candidates(self) -> set[tuple[int, int]]:
        """Non-edges (u, v) a zero-day scan must score: u reachable from an
        entry and v able to reach a target."""
        succ: dict[int, set[int]] = {}
        pred: dict[int, set[int]] = {}
        for u, v in self.edges:
            succ.setdefault(u, set()).add(v)
            pred.setdefault(v, set()).add(u)
        forward = _closure(self.entries, succ)
        backward = _closure(self.targets, pred)
        present = set(self.edges)
        return {
            (u, v)
            for u in forward
            for v in backward
            if u != v and (u, v) not in present
        }

    def attacker_rewards(self, policy: dict, paths, pins=()) -> dict:
        """Attacker's expected reward on each of ``paths`` against a mixed
        defender ``policy`` {allocation: probability} plus pinned extras."""
        pins = frozenset(tuple(p) for p in pins)
        return {
            path: -sum(p * self.cell(alloc | pins, path) for alloc, p in policy.items())
            for path in paths
        }

    def attacker_best(self, policy: dict, paths, pins=()) -> float:
        """Attacker's best expected reward over ``paths``."""
        return max(self.attacker_rewards(policy, paths, pins).values())

    def capture(self, x: dict, y: dict, pins=()) -> float:
        """Probability that the attacker's path crosses a trapped location:
        the sum of p * q over allocations of ``x`` (plus pins) and paths of
        ``y`` that share a hop."""
        pins = frozenset(tuple(p) for p in pins)
        return sum(
            p * q
            for alloc, p in x.items()
            for path, q in y.items()
            if (alloc | pins) & self.hops(path)
        )

    def best_response_captures(self, policy: dict, paths, pins=(), tol: float = 1e-9) -> list[float]:
        """Capture of every path that is a best response to ``policy`` plus
        pins within ``tol``; a best-response capture must be one of them,
        whichever of the tied paths the program picked."""
        rewards = self.attacker_rewards(policy, paths, pins)
        best = max(rewards.values())
        return [
            self.capture(policy, {path: 1.0}, pins)
            for path, value in rewards.items()
            if value >= best - tol
        ]

    def certify(self, x: dict, y: dict, tol: float) -> tuple[float, float]:
        """(lower, upper) bounds on the game value from the program's
        strategies; raises CheckFailed unless they form an equilibrium
        within ``tol``. ``x`` maps allocations, ``y`` node tuples, to
        probabilities."""
        rows = self.allocations()
        cols = self.paths()
        _check_distribution(x, set(rows), "defender", tol)
        _check_distribution(y, set(cols), "attacker", tol)
        upper = max(sum(q * self.cell(row, path) for path, q in y.items()) for row in rows)
        lower = min(sum(p * self.cell(alloc, col) for alloc, p in x.items()) for col in cols)
        require(upper - lower <= tol, f"equilibrium gap {upper - lower:.3e} exceeds {tol:.1e}")
        return lower, upper


def _closure(start, adjacency) -> set[int]:
    seen = set(start)
    frontier = list(start)
    while frontier:
        for nxt in adjacency.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _check_distribution(strategy: dict, space: set, side: str, tol: float) -> None:
    unknown = [s for s in strategy if s not in space]
    require(not unknown, f"{side} strategy uses actions outside the game: {unknown[:3]}")
    require(all(p >= -tol for p in strategy.values()), f"negative {side} probability")
    require(abs(sum(strategy.values()) - 1.0) <= 1e-9, f"{side} strategy does not sum to 1")
