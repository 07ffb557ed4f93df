"""The three workloads: inputs, set-up, jobs and output checks.

A workload is built in three steps. The constructor makes the inputs from
the seed with the benchmark's own code and is not timed. ``setup`` is the
timed set-up: it holds only work the program does (parsing the inputs and,
for ``mitigate``, the base solves and scans the plans are scored over).
``setup`` returns the state that ``jobs`` and ``check`` take. ``jobs``
lists one round of jobs; each job is one call into a public entry point of
the program. ``check`` compares the outputs of a round with
``oracle`` and with properties the method must have, and raises
``CheckFailed`` on the first mismatch.

Every call into the program goes through a module attribute looked up at
call time (``dg.evaluation.sweep``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import gen
from oracle import Model, require

TOL = 2e-6
# attacker rewards this close count as a tie between best-response paths
TIE_TOL = 1e-7
CSV_TOL = 5.01e-7
SCALE = 1e4


class JobFailed(RuntimeError):
    """A job ended without a usable result."""


@dataclass
class Job:
    label: str
    call: object
    collect: object = None
    expected_failure: bool = False


@dataclass
class Game:
    """One input: the documents the program reads, plus how it is used."""

    name: str
    graph_doc: dict
    params_doc: dict
    ladder: tuple = ()
    scale: float = 1.0
    unscaled: "Game | None" = None
    expected_failure: bool = False

    def model(self) -> Model:
        return Model(self.graph_doc, self.params_doc)


def fixture_games(dg) -> dict[str, Game]:
    out = {}
    for name, (graph_fn, params_fn) in dg.fixtures.FIXTURES.items():
        out[name] = Game(
            name,
            dg.graph.graph_to_document(graph_fn()),
            dg.game.params_to_document(params_fn()),
        )
    return out


def seeded_game(seed: int, name: str, shape, budget: int = 0, ladder=(), **params) -> Game:
    widths, n_edges, window = shape
    doc = gen.layered_graph(f"{seed}/{name}", widths, n_edges, window)
    return Game(name, doc, gen.params_document(budget, **params), ladder=tuple(ladder))


def policy_map(graph, actions, strategy) -> dict:
    """A defender strategy as {set of (u, v) locations: probability}."""
    return {
        frozenset(graph.edges[e] for e in action): float(p)
        for action, p in zip(actions, strategy)
        if p > 0.0
    }


def equilibrium(dg, game: Game, budget: int | None = None):
    """Solve the game (at ``budget`` if given) with the program. Returns the
    oracle's model of that game and the program's strategies x, y."""
    params_doc = game.params_doc if budget is None else dict(game.params_doc, budget=budget)
    graph = dg.graph.load_graph(game.graph_doc)
    instance = dg.game.build_matrix(graph, dg.game.load_params(params_doc))
    solution = dg.lp.solve_zero_sum(instance.matrix)
    x = policy_map(graph, instance.actions, solution.defender_strategy)
    y = {p.nodes: float(q) for p, q in zip(instance.paths, solution.attacker_strategy) if q > 0.0}
    return Model(game.graph_doc, params_doc), x, y


def certified(dg, game: Game, budget: int | None = None):
    """``equilibrium``, certified by the oracle. Returns the model, x, y and
    the oracle's lower and upper bounds on the value."""
    model, x, y = equilibrium(dg, game, budget)
    return (model, x, y, *model.certify(x, y, TOL))


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol + 1e-12 * max(abs(a), abs(b))


# --------------------------------------------------------------------- solve

# name: (layer widths, edges, path-count window), largest budget, copies.
# The large games top out at 10701, 31931 and 12951 defender actions. The
# simplex's pivot count, and so a game's solve time, varies by tens of
# percent from graph to graph; two copies of each large game and many
# medium ones (4526) average that out.
SOLVE_SHAPES = {
    "e40": (((3, 4, 4, 4, 4, 3), 40, (118, 122)), 3, 2),
    "e30": (((3, 4, 4, 4, 3), 30, (44, 46)), 4, 2),
    "e24": (((2, 4, 4, 4, 2), 24, (19, 21)), 4, 2),
    "m30": (((3, 4, 4, 4, 3), 30, (44, 46)), 3, 8),
}
# generator seeds of the x1e4 games that fail today at budget 2; fixed, so
# the failing share of every run is the same whatever --seed is
FAILING_SCALED = (0, 1)
FAILING_SHAPE = ((3, 4, 4, 4, 3), 30, (40, 50))


class Solve:
    setup_repeats = 3

    def __init__(self, seed: int, out_dir: Path, dg):
        fx = fixture_games(dg)
        net20 = replace(fx["net20"], ladder=tuple(range(5)))
        games = [
            replace(fx["line3"], ladder=(0, 1, 2)),
            replace(fx["tree7"], ladder=tuple(range(7))),
            net20,
            Game("net20-x1e4", *gen.scaled(net20.graph_doc, net20.params_doc, SCALE),
                 ladder=net20.ladder, scale=SCALE, unscaled=net20),
            replace(net20, name="net20-terminate", ladder=tuple(range(4)),
                    params_doc=dict(net20.params_doc, terminate_on_capture=True)),
        ]
        for k in FAILING_SCALED:
            base = seeded_game(k, f"failing{k}", FAILING_SHAPE, ladder=(0, 1, 2))
            games.append(Game(f"failing{k}-x1e4", *gen.scaled(base.graph_doc, base.params_doc, SCALE),
                              ladder=base.ladder, scale=SCALE, unscaled=base, expected_failure=True))
        for name, (shape, top, copies) in SOLVE_SHAPES.items():
            games += [seeded_game(seed, f"{name}-{c}", shape, ladder=range(top + 1)) for c in range(copies)]
        games.append(seeded_game(seed, "e24-terminate", SOLVE_SHAPES["e24"][0], ladder=range(4), terminate=True))
        self.games = games

    def setup(self, dg):
        configs = {}
        for g in self.games:
            graph = dg.graph.load_graph(g.graph_doc)
            params = dg.game.load_params(g.params_doc)
            config = dg.evaluation.SweepConfig(parameter="honeypots", values=g.ladder, params=params)
            configs[g.name] = (graph, config)
        return configs

    def jobs(self, dg, configs):
        def call(graph, config):
            return lambda: dg.evaluation.sweep(graph, config)

        return [
            Job(g.name, call(*configs[g.name]), expected_failure=g.expected_failure)
            for g in self.games
        ]

    @staticmethod
    def digest(result):
        return tuple((r.value, r.defender_reward, r.attacker_reward, r.capture) for r in result.rows)

    def check(self, dg, configs, outputs):
        cache = {}

        def cert(game, h):
            if (game.name, h) not in cache:
                cache[game.name, h] = certified(dg, game, h)
            return cache[game.name, h]

        for g in self.games:
            if g.name not in outputs:
                continue
            rows = outputs[g.name].rows
            require([r.value for r in rows] == list(g.ladder), f"{g.name}: rows do not follow the ladder")
            tol = TOL * g.scale
            values = []
            for r in rows:
                where = f"{g.name} H={r.value}"
                lo, hi = cert(g.unscaled or g, r.value)[3:]
                v = r.defender_reward
                require(lo * g.scale - tol <= v <= hi * g.scale + tol,
                        f"{where}: value {v!r} outside certified [{lo * g.scale!r}, {hi * g.scale!r}]")
                require(r.attacker_reward == -v, f"{where}: rewards do not sum to zero")
                # the sweep solves the same matrix with the same program
                # call, so its strategies are these x, y
                model, x, y = cert(g, r.value)[:3] if g.unscaled is None else equilibrium(dg, g, r.value)
                capture = model.capture(x, y)
                require(close(r.capture, capture), f"{where}: capture {r.capture!r}, oracle {capture!r}")
                values.append(v)
            require(all(b >= a - tol for a, b in zip(values, values[1:])),
                    f"{g.name}: value decreases with budget {values}")


# ---------------------------------------------------------------------- scan

SCAN_SHAPE = ((3, 3, 3, 3, 3), 21, (20, 24))
SCAN_SEEDED = 4
SCAN_VARIANTS = (
    ("pes", "best_response", "csv"),
    ("opt", "best_response", "json"),
    ("pes", "game2_ne", "json"),
    ("opt", "game2_ne", "csv"),
)
CSV_HEADER = ["edge_u", "edge_v", "naive", "optimistic", "pessimistic", "impact", "y_e", "dominance"]
CRITERIA = {"pes": "pessimistic", "opt": "optimistic"}
SAMPLE_STRIDE = 12


class Scan:
    setup_repeats = 3

    def __init__(self, seed: int, out_dir: Path, dg):
        fx = fixture_games(dg)
        self.games = [fx["tree7"], fx["net20"]] + [
            seeded_game(seed, f"s{k}", SCAN_SHAPE, 2) for k in range(SCAN_SEEDED)
        ]
        inputs = out_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.files = {}
        for g in self.games:
            graph_file, params_file = inputs / f"{g.name}.json", inputs / f"{g.name}_params.json"
            graph_file.write_text(json.dumps(g.graph_doc))
            params_file.write_text(json.dumps(g.params_doc))
            self.files[g.name] = (str(graph_file), str(params_file))
        # tree7 runs every variant; each larger input runs two that differ
        # in criterion, pessimistic mode and format
        self.plan = [(self.games[0], v) for v in SCAN_VARIANTS]
        for k, g in enumerate(self.games[1:]):
            pair = (0, 3) if k % 2 == 0 else (1, 2)
            self.plan += [(g, SCAN_VARIANTS[i]) for i in pair]
        self.out_dir = out_dir

    def setup(self, dg):
        # the CLI parses its own inputs inside every job; set-up is the import
        return None

    def jobs(self, dg, state):
        def call(argv):
            def run():
                code = dg.cli.main(argv)
                if code != 0:
                    raise JobFailed(f"zeroday-scan exited with {code}")

            return run

        out = []
        for g, (criterion, mode, fmt) in self.plan:
            label = f"{g.name}:{criterion}:{mode}:{fmt}"
            target = self.out_dir / f"{label.replace(':', '-')}.{fmt}"
            graph_file, params_file = self.files[g.name]
            argv = ["zeroday-scan", "-g", graph_file, "-p", params_file, "--criterion", criterion,
                    "--pessimistic-y", mode, "--format", fmt, "-o", str(target)]
            out.append(Job(label, call(argv), collect=lambda _, t=target: t.read_text()))
        return out

    @staticmethod
    def digest(text):
        return text

    def check(self, dg, state, outputs):
        for g in self.games:
            graph = dg.graph.load_graph(g.graph_doc)
            params = dg.game.load_params(g.params_doc)
            model, x1, _, lo, hi = certified(dg, g)
            candidates = model.scan_candidates()
            for criterion, mode, fmt in SCAN_VARIANTS:
                label = f"{g.name}:{criterion}:{mode}:{fmt}"
                if label not in outputs:
                    continue
                records = dg.zeroday.scan_candidates(
                    graph, params, criterion=CRITERIA[criterion], pessimistic_mode=mode
                )
                require({r.edge for r in records} == candidates and len(records) == len(candidates),
                        f"{label}: scanned candidates differ from the oracle's {len(candidates)}")
                for r in records:
                    _check_record(label, r, criterion, mode, lo, hi)
                for r in records[::SAMPLE_STRIDE]:
                    best = model.attacker_best(x1, model.paths(extra_edge=r.edge))
                    if mode == "best_response":
                        require(close(r.pessimistic, best),
                                f"{label} {r.edge}: pessimistic {r.pessimistic!r}, oracle {best!r}")
                    else:
                        require(r.pessimistic <= best + TOL,
                                f"{label} {r.edge}: pessimistic {r.pessimistic!r} above best response {best!r}")
                if fmt == "csv":
                    _check_csv(label, outputs[label], records)
                else:
                    _check_json(label, outputs[label], records, CRITERIA[criterion], mode)


def _check_record(label, r, criterion, mode, lo, hi):
    where = f"{label} {r.edge}"
    require(lo - TOL <= -r.naive <= hi + TOL, f"{where}: naive {r.naive!r} is not minus the certified value")
    require(-1e-9 <= r.exploit_probability <= 1 + 1e-9, f"{where}: y_e {r.exploit_probability} outside [0, 1]")
    if mode == "best_response":
        require(r.pessimistic >= r.optimistic - TOL, f"{where}: pessimistic below optimistic")
    else:
        require(close(r.pessimistic, r.optimistic), f"{where}: game2_ne pessimistic differs from optimistic")
    chosen = r.pessimistic if criterion == "pes" else r.optimistic
    require(close(r.impact, chosen - r.naive), f"{where}: impact is not reward minus naive")


def _agree(label, field, shown, value):
    require(abs(float(shown) - value) <= CSV_TOL, f"{label}: {field} {shown} does not round {value!r}")


def _check_csv(label, text, records):
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == CSV_HEADER, f"{label}: unexpected CSV header")
    require(len(rows) - 1 == len(records), f"{label}: {len(rows) - 1} CSV rows for {len(records)} records")
    for row, r in zip(rows[1:], records):
        require((int(row[0]), int(row[1])) == r.edge, f"{label}: CSV row order differs from the records")
        for field, shown, value in zip(CSV_HEADER[2:7], row[2:7],
                                       (r.naive, r.optimistic, r.pessimistic, r.impact, r.exploit_probability)):
            _agree(label, field, shown, value)
        require(row[7] == r.dominance, f"{label} {r.edge}: dominance {row[7]} != {r.dominance}")


def _check_json(label, text, records, criterion, mode):
    doc = json.loads(text)
    require(doc["criterion"] == criterion and doc["pessimistic_y"] == mode, f"{label}: JSON header mismatch")
    require(len(doc["records"]) == len(records), f"{label}: JSON record count differs")
    for shown, r in zip(doc["records"], records):
        require(tuple(shown["edge"]) == r.edge and shown["status"] == r.status
                and shown["new_path_count"] == r.new_path_count and shown["dominance"] == r.dominance,
                f"{label} {r.edge}: JSON record fields differ")
        for field, value in (("naive", r.naive), ("optimistic", r.optimistic), ("pessimistic", r.pessimistic),
                             ("impact", r.impact), ("y_e", r.exploit_probability)):
            _agree(label, field, shown[field], value)


# ------------------------------------------------------------------ mitigate

MITIGATE_SHAPE = ((3, 3, 3, 3, 3), 21, (20, 24))
OPTIMISTIC_TOP = 8
NATURE_TOP = 10
# (input, plan, criterion). Most jobs score net20, a fixed input: how long a
# plan takes to score grows with the support of the base policy, which varies
# several-fold between seeded graphs, so a seeded graph gets a small share.
MITIGATE_JOBS = tuple(
    ("net20", kind, "pessimistic")
    for kind in ("none", "alpha1", "alpha2", "alpha3", "lp", "nature", "critical",
                 "critical+honeypot", "random")
) + (
    ("net20", "alpha1", "optimistic"),
    ("net20", "nature", "optimistic"),
    ("m0", "alpha1", "pessimistic"),
    ("m0", "critical+honeypot", "optimistic"),
)


@dataclass
class Base:
    """A scanned input the plans are scored over."""

    graph: object
    params: object
    game: object
    x: np.ndarray
    report: list


class Mitigate:
    setup_repeats = 1

    def __init__(self, seed: int, out_dir: Path, dg):
        self.seed = seed
        self.games = [fixture_games(dg)["net20"], seeded_game(seed, "m0", MITIGATE_SHAPE, 2)]

    def setup(self, dg):
        bases = {}
        for g in self.games:
            graph = dg.graph.load_graph(g.graph_doc)
            params = dg.game.load_params(g.params_doc)
            game = dg.game.build_matrix(graph, params)
            solution = dg.lp.solve_zero_sum(game.matrix)
            report = dg.zeroday.scan_candidates(graph, params, criterion="pessimistic", solution=solution)
            bases[g.name] = Base(graph, params, game, solution.defender_strategy, report)
        return bases

    def _plan(self, dg, kind, base):
        m = dg.mitigation
        if kind == "none":
            return m.none_mitigation()
        if kind.startswith("alpha"):
            return m.alpha_mitigation(base.report, k=int(kind[5:]))
        if kind == "lp":
            return m.lp_mitigation(base.report, budget=1.0)
        if kind == "nature":
            nature = m.nature_game(base.game, base.x, base.report[:NATURE_TOP])
            best = int(np.argmax(nature.solution.defender_strategy))
            return m.MitigationPlan(kind="nature", pinned_edges=(nature.locations[best],))
        if kind.startswith("critical"):
            return m.critical_point_mitigation(
                base.game, base.params, base.report, add_honeypot=kind.endswith("honeypot")
            )
        return m.random_mitigation(base.report, self.seed)

    def _subset(self, base, criterion):
        return base.report if criterion == "pessimistic" else base.report[:OPTIMISTIC_TOP]

    def jobs(self, dg, bases):
        def call(base, kind, criterion):
            def run():
                plan = self._plan(dg, kind, base)
                metrics = dg.mitigation.evaluate_mitigation(
                    plan, base.game, base.x, self._subset(base, criterion), criterion=criterion
                )
                return plan, metrics

            return run

        return [
            Job(f"{name}:{kind}:{criterion}", call(bases[name], kind, criterion))
            for name, kind, criterion in MITIGATE_JOBS
        ]

    @staticmethod
    def digest(output):
        plan, metrics = output
        return (
            tuple(plan.pinned_edges),
            metrics.effectiveness,
            tuple(
                (o.edge, o.reward_before, o.reward_after, o.capture_before, o.capture_after, o.prevented)
                for o in metrics.outcomes
            ),
        )

    def check(self, dg, bases, outputs):
        models = {g.name: g.model() for g in self.games}
        for name, kind, criterion in MITIGATE_JOBS:
            label = f"{name}:{kind}:{criterion}"
            if label not in outputs:
                continue
            base, model = bases[name], models[name]
            plan, metrics = outputs[label]
            _check_plan(label, kind, plan, base)
            subset = self._subset(base, criterion)
            outcomes = metrics.outcomes
            require([o.edge for o in outcomes] == [r.edge for r in subset],
                    f"{label}: {len(outcomes)} outcomes for {len(subset)} scanned candidates")
            for o in outcomes:
                require(-1e-9 <= o.capture_before <= 1 + 1e-9 and -1e-9 <= o.capture_after <= 1 + 1e-9,
                        f"{label} {o.edge}: capture outside [0, 1]")
            require(metrics.effectiveness == sum(o.prevented for o in outcomes) / len(outcomes),
                    f"{label}: effectiveness differs from the prevented share")
            require(close(metrics.capture_before, statistics.fmean(o.capture_before for o in outcomes))
                    and close(metrics.capture_after, statistics.fmean(o.capture_after for o in outcomes)),
                    f"{label}: mean captures differ from the outcomes")
            for o, r in zip(outcomes, subset):
                require(close(o.reward_before, r.pessimistic),
                        f"{label} {o.edge}: reward before {o.reward_before!r} != scanned {r.pessimistic!r}")
                if kind == "none" and criterion == "pessimistic":
                    require(close(o.reward_after, r.pessimistic),
                            f"{label} {o.edge}: none plan moved the reward")
            x_base = policy_map(base.graph, base.game.actions, base.x)
            policy = plan.modified_policy if plan.modified_policy is not None else base.x
            policy = policy_map(base.graph, base.game.actions, policy)
            pins = tuple(tuple(p) for p in plan.pinned_edges)
            base_paths = model.paths()
            for o in outcomes[::SAMPLE_STRIDE]:
                where = f"{label} {o.edge}"
                paths = model.paths(extra_edge=o.edge)
                require(_one_of(o.capture_before, model.best_response_captures(x_base, paths, tol=TIE_TOL)),
                        f"{where}: capture before {o.capture_before!r} is no best response's capture")
                after = model.attacker_best(policy, paths, pins)
                if criterion == "pessimistic":
                    require(close(o.reward_after, after),
                            f"{where}: reward after {o.reward_after!r}, oracle {after!r}")
                    require(_one_of(o.capture_after, model.best_response_captures(policy, paths, pins, TIE_TOL)),
                            f"{where}: capture after {o.capture_after!r} is no best response's capture")
                    margin = o.reward_after - model.attacker_best(policy, base_paths, pins) - 1e-6
                    if abs(margin) > 1e-7:
                        require(o.prevented == (margin <= 0), f"{where}: prevented flag differs")
                else:
                    require(o.reward_after <= after + TOL,
                            f"{where}: optimistic reward above the best response")
                    # an equilibrium mix of paths: its capture lies between
                    # the captures of single paths
                    captures = [model.capture(policy, {path: 1.0}, pins) for path in paths]
                    require(min(captures) - TOL <= o.capture_after <= max(captures) + TOL,
                            f"{where}: capture after {o.capture_after!r} outside the paths' captures")


def _one_of(value, candidates) -> bool:
    return any(close(value, c) for c in candidates)


def _check_plan(label, kind, plan, base):
    edges = [r.edge for r in base.report]
    pins = [tuple(p) for p in plan.pinned_edges]
    if kind.startswith("alpha"):
        require(pins == edges[: int(kind[5:])], f"{label}: alpha does not pin the top-impact edges")
    elif kind == "lp":
        mass = list(plan.distribution.values())
        require(all(-1e-9 <= x <= 1 + 1e-9 for x in mass) and sum(mass) <= 1 + 1e-9,
                f"{label}: lp distribution outside the budget")
    elif kind == "nature":
        require(len(pins) == 1 and pins[0] in edges[:NATURE_TOP], f"{label}: nature pin not a location")
    elif kind.startswith("critical"):
        x = plan.modified_policy
        require(len(x) == len(base.game.actions) and np.all(x >= -1e-9) and abs(x.sum() - 1) <= 1e-9,
                f"{label}: modified policy is not a distribution")
        require(len(pins) <= (1 if kind.endswith("honeypot") else 0), f"{label}: unexpected pins")
    elif kind == "random":
        require(len(pins) == 1 and pins[0] in edges, f"{label}: random pin not a candidate")
    else:
        require(not pins and plan.modified_policy is None, f"{label}: none plan changes something")


WORKLOADS = {"solve": Solve, "scan": Scan, "mitigate": Mitigate}

__all__ = ["WORKLOADS"]
