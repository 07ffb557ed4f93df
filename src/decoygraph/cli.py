"""Command-line frontend: solve, paths, zeroday-scan, mitigate, evaluate, sweep.

All numeric output is fixed to six decimal places and collections keep a
deterministic order, so identical inputs (and seed) produce byte-identical
output. Exit codes: 0 success, 1 validation or input error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, mitigation, zeroday
from .game import build_matrix, load_params
from .graph import GraphError, enumerate_attack_paths, is_finite_number, load_graph
from .lp import SolverError, solve_zero_sum
from .zeroday import fmt6


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _round6(obj):
    if isinstance(obj, float):
        return round(obj + 0.0, 6) + 0.0
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _emit(text: str, output):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(document, output):
    _emit(json.dumps(_round6(document), indent=2, sort_keys=True, allow_nan=False) + "\n", output)


def _count(text: str) -> int:
    """argparse type of a nonnegative integer option."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _load_inputs(args):
    graph = load_graph(_read(args.graph))
    params = load_params(_read(args.params))
    return graph, params


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"file not found: {path}")
    return p.read_text()


def _strategy_support(items, strategy, render):
    out = []
    for thing, prob in zip(items, np.asarray(strategy)):
        if prob >= 1e-9:
            out.append({"probability": float(prob), **render(thing)})
    return out


def _solution_document(game, solution):
    return {
        "value": solution.value,
        "defender_gap": solution.defender_gap,
        "attacker_gap": solution.attacker_gap,
        "defender_strategy": _strategy_support(
            game.actions,
            solution.defender_strategy,
            lambda a: {"edges": [list(game.graph.edges[e]) for e in a]},
        ),
        "attacker_strategy": _strategy_support(
            game.paths, solution.attacker_strategy, lambda p: {"nodes": list(p.nodes)}
        ),
    }


def cmd_solve(args) -> int:
    graph, params = _load_inputs(args)
    game = build_matrix(graph, params)
    solution = solve_zero_sum(game.matrix)
    doc = _solution_document(game, solution)
    if args.format == "json":
        _emit_json(doc, args.output)
    else:
        lines = [f"value,{fmt6(solution.value)}",
                 f"defender_gap,{fmt6(solution.defender_gap)}",
                 f"attacker_gap,{fmt6(solution.attacker_gap)}"]
        for entry in doc["defender_strategy"]:
            edges = "|".join(f"{u}-{v}" for u, v in entry["edges"]) or "none"
            lines.append(f"defender,{edges},{fmt6(entry['probability'])}")
        for entry in doc["attacker_strategy"]:
            lines.append(f"attacker,{'-'.join(str(n) for n in entry['nodes'])},{fmt6(entry['probability'])}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_paths(args) -> int:
    graph, _ = _load_inputs(args)
    paths = enumerate_attack_paths(graph, max_hops=args.max_hops)
    if args.format == "json":
        _emit_json({"paths": [list(p.nodes) for p in paths]}, args.output)
    else:
        _emit("".join(",".join(str(n) for n in p.nodes) + "\n" for p in paths), args.output)
    return 0


def _record_document(record):
    return {
        "edge": list(record.edge),
        "status": record.status,
        "naive": record.naive,
        "optimistic": record.optimistic,
        "pessimistic": record.pessimistic,
        "impact": record.impact,
        "new_path_count": record.new_path_count,
        "y_e": record.exploit_probability,
        "dominance": record.dominance,
    }


def _require(entry, keys, what) -> dict:
    if not isinstance(entry, dict):
        raise ValueError(f"{what} is not an object: {entry!r}")
    for key in keys:
        if key not in entry:
            raise ValueError(f"{what} missing '{key}'")
    return entry


def _list(value, what) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} is not a list: {value!r}")
    return value


def _is_edge(value) -> bool:
    return isinstance(value, list) and len(value) == 2


def validate_report_document(doc) -> None:
    """Schema check for emitted scan JSON; raises ValueError on mismatch."""
    _require(doc, ("records",), "report document")
    if doc.get("criterion") not in ("pessimistic", "optimistic"):
        raise ValueError(f"unknown criterion {doc.get('criterion')!r}")
    if doc.get("pessimistic_y") not in zeroday.PESSIMISTIC_MODES:
        raise ValueError(f"unknown pessimistic_y {doc.get('pessimistic_y')!r}")
    for rec in _list(doc["records"], "'records'"):
        _require(rec, (), "record")
        if not _is_edge(rec.get("edge")):
            raise ValueError(f"malformed record edge {rec!r}")
        if rec.get("status") not in ("analyzed", "dominant"):
            raise ValueError(f"unexpected record status {rec.get('status')!r}")
        if rec.get("dominance") not in ("dominant", "dominated", "neither"):
            raise ValueError(f"unexpected dominance class {rec.get('dominance')!r}")
        _require(rec, ("y_e", "naive", "optimistic", "pessimistic", "impact", "new_path_count"), "record")
        if not (is_finite_number(rec["y_e"]) and -1e-9 <= rec["y_e"] <= 1.0 + 1e-9):
            raise ValueError("exploit probability out of range")


def cmd_zeroday_scan(args) -> int:
    graph, params = _load_inputs(args)
    records = zeroday.scan_candidates(
        graph,
        params,
        criterion=args.criterion,
        pessimistic_mode=args.pessimistic_y,
    )
    if args.top is not None:
        records = records[: args.top]
    if args.format == "json":
        doc = {
            "criterion": zeroday.normalize_criterion(args.criterion),
            "pessimistic_y": args.pessimistic_y,
            "records": [_record_document(r) for r in records],
        }
        validate_report_document(_round6(doc))
        _emit_json(doc, args.output)
    else:
        _emit(zeroday.report_csv(records), args.output)
    return 0


def _plan_document(plan, metrics, extra):
    doc = {
        "kind": plan.kind,
        "pinned_edges": [list(e) for e in plan.pinned_edges],
        "distribution": (
            [{"edge": list(e), "x": x} for e, x in plan.distribution.items()]
            if plan.distribution is not None
            else None
        ),
        "boosted_values": (
            [{"node": n, "value": v} for n, v in sorted(plan.boosted_values.items())]
            if plan.boosted_values is not None
            else None
        ),
        "objective": plan.objective,
        "effectiveness": metrics.effectiveness,
        "capture_before": metrics.capture_before,
        "capture_after": metrics.capture_after,
        "candidates": [
            {
                "edge": list(o.edge),
                "reward_before": o.reward_before,
                "reward_after": o.reward_after,
                "capture_before": o.capture_before,
                "capture_after": o.capture_after,
                "prevented": o.prevented,
            }
            for o in metrics.outcomes
        ],
    }
    doc.update(extra)
    return doc


def validate_plan_document(doc) -> None:
    """Schema check for emitted plan JSON; raises ValueError on mismatch."""
    _require(doc, ("pinned_edges", "effectiveness", "capture_before", "capture_after", "candidates"), "plan document")
    if doc.get("kind") not in mitigation.PLAN_KINDS:
        raise ValueError(f"unknown plan kind {doc.get('kind')!r}")
    for edge in _list(doc["pinned_edges"], "'pinned_edges'"):
        if not _is_edge(edge):
            raise ValueError(f"malformed pinned edge {edge!r}")
    for field in ("effectiveness", "capture_before", "capture_after"):
        if not (is_finite_number(doc[field]) and 0.0 <= doc[field] <= 1.0):
            raise ValueError(f"{field} out of range")
    if doc.get("distribution") is not None:
        entries = _list(doc["distribution"], "'distribution'")
        xs = [_require(item, ("x",), "distribution entry")["x"] for item in entries]
        budget = doc.get("mitigation_budget", 1.0)
        if not all(map(is_finite_number, [*xs, budget])):
            raise ValueError("distribution entry or mitigation_budget is not a number")
        # each entry is rounded to 6 places, off by up to 5e-7
        if sum(xs) > budget + 1e-6 + 5e-7 * len(xs):
            raise ValueError("distribution mass exceeds budget")
        if not all(-1e-9 <= x <= 1.0 + 1e-9 for x in xs):
            raise ValueError("distribution entry out of [0, 1]")
    for entry in _list(doc["candidates"], "'candidates'"):
        _require(entry, ("edge", "prevented"), "candidate outcome")
        if not _is_edge(entry["edge"]) or not isinstance(entry["prevented"], bool):
            raise ValueError(f"malformed candidate outcome {entry!r}")


def cmd_mitigate(args) -> int:
    graph, params = _load_inputs(args)
    criterion = zeroday.normalize_criterion(args.criterion)
    game = build_matrix(graph, params)
    solution = solve_zero_sum(game.matrix)
    records = zeroday.scan_candidates(graph, params, criterion=criterion, solution=solution)
    extra = {"strategy": args.strategy, "criterion": criterion}
    if args.strategy == "alpha":
        plan = mitigation.alpha_mitigation(records, k=args.k)
    elif args.strategy == "lp":
        plan = mitigation.lp_mitigation(records, budget=args.mitigation_budget)
        extra["mitigation_budget"] = args.mitigation_budget
    elif args.strategy == "nature":
        top = records[: args.top_locations]
        nature = mitigation.nature_game(game, solution.defender_strategy, top, criterion=criterion)
        best = int(np.argmax(nature.solution.defender_strategy))
        plan = mitigation.MitigationPlan(
            kind="nature",
            pinned_edges=(nature.locations[best],),
            distribution={
                loc: float(p) for loc, p in zip(nature.locations, nature.solution.defender_strategy)
            },
            objective=nature.solution.value,
        )
        extra["nature_value"] = nature.solution.value
        extra["nature_strategy"] = [
            {"edge": list(loc), "p": float(p)}
            for loc, p in zip(nature.locations, nature.solution.attacker_strategy)
        ]
    elif args.strategy == "critical":
        plan = mitigation.critical_point_mitigation(
            game, params, records, kappa=args.kappa, top_n=args.top_locations,
            add_honeypot=args.add_honeypot,
        )
        extra["kappa"] = args.kappa
    elif args.strategy == "random":
        plan = mitigation.random_mitigation(records, args.seed)
        extra["seed"] = args.seed
    else:
        plan = mitigation.none_mitigation()
    metrics = mitigation.evaluate_mitigation(
        plan, game, solution.defender_strategy, records, criterion=criterion
    )
    doc = _plan_document(plan, metrics, extra)
    validate_plan_document(_round6(doc))
    _emit_json(doc, args.output)
    return 0


def cmd_evaluate(args) -> int:
    graph, params = _load_inputs(args)
    d, a, capture = evaluation.evaluate_pairing(graph, params, args.defender, args.attacker)
    if args.format == "json":
        _emit_json(
            {
                "defender_policy": args.defender,
                "attacker_policy": args.attacker,
                "defender_reward": d,
                "attacker_reward": a,
                "capture": capture,
            },
            args.output,
        )
    else:
        _emit(
            "def_policy,atk_policy,def_reward,atk_reward,capture\n"
            f"{args.defender},{args.attacker},{fmt6(d)},{fmt6(a)},{fmt6(capture)}\n",
            args.output,
        )
    return 0


def _parse_sweep_values(parameter: str, tokens):
    if parameter == "honeypots":
        return tuple(int(t) for t in tokens)
    if parameter == "entry_nodes":
        return tuple(tuple(int(n) for n in t.split(",")) for t in tokens)
    return tuple(float(t) for t in tokens)


def cmd_sweep(args) -> int:
    graph, params = _load_inputs(args)
    config = evaluation.SweepConfig(
        parameter=args.param,
        values=_parse_sweep_values(args.param, args.values),
        params=params,
        defender=args.defender,
        attacker=args.attacker,
    )
    result = evaluation.sweep(graph, config)
    if args.format == "json":
        _emit_json(
            {
                "rows": [
                    {
                        "param": r.parameter,
                        "value": list(r.value) if isinstance(r.value, tuple) else r.value,
                        "def_policy": r.defender_policy,
                        "atk_policy": r.attacker_policy,
                        "def_reward": r.defender_reward,
                        "atk_reward": r.attacker_reward,
                        "capture": r.capture,
                    }
                    for r in result.rows
                ]
            },
            args.output,
        )
    else:
        _emit(result.to_csv(), args.output)
    return 0


def build_parser() -> CliParser:
    parser = CliParser(prog="decoygraph", description="Honeypot allocation games on attack graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("csv", "json"), default_format="json"):
        p.add_argument("-g", "--graph", required=True, help="graph document (JSON)")
        p.add_argument("-p", "--params", required=True, help="game parameters (JSON)")
        p.add_argument("-o", "--output", help="write output to this file instead of stdout")
        if formats:
            p.add_argument("--format", choices=formats, default=default_format)

    p = sub.add_parser("solve", help="equilibrium of the base game")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("paths", help="list attack paths")
    common(p, default_format="csv")
    p.add_argument("--max-hops", type=int, default=None)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("zeroday-scan", help="rank hypothetical zero-day edges by impact")
    common(p, default_format="csv")
    p.add_argument("--criterion", choices=("opt", "pes"), default="pes")
    p.add_argument("--top", type=_count, default=None, help="keep only the top N rows")
    p.add_argument("--pessimistic-y", choices=zeroday.PESSIMISTIC_MODES, default="best_response")
    p.set_defaults(func=cmd_zeroday_scan)

    p = sub.add_parser("mitigate", help="build and score a mitigation plan")
    common(p, formats=None)
    p.add_argument("--strategy", required=True,
                   choices=("alpha", "lp", "nature", "critical", "random", "none"))
    p.add_argument("--criterion", choices=("opt", "pes"), default="pes")
    p.add_argument("--k", type=int, default=1, help="pinned honeypots for alpha")
    p.add_argument("--kappa", type=float, default=1.5, help="critical-node value scale")
    p.add_argument("--mitigation-budget", type=float, default=1.0, help="LP allocation budget")
    p.add_argument("--top-locations", type=_count, default=10)
    p.add_argument("--add-honeypot", action="store_true",
                   help="critical-point variant with one pinned honeypot")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mitigate)

    p = sub.add_parser("evaluate", help="expected rewards for a policy pairing")
    common(p, default_format="csv")
    p.add_argument("--defender", choices=evaluation.POLICY_KINDS, default="nash")
    p.add_argument("--attacker", choices=evaluation.POLICY_KINDS, default="nash")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="parameter sweep with a policy pairing")
    common(p, default_format="csv")
    p.add_argument("--param", choices=evaluation.SWEEP_PARAMETERS, required=True)
    p.add_argument("--values", nargs="+", required=True,
                   help="swept values; entry_nodes takes comma-joined id groups")
    p.add_argument("--defender", choices=evaluation.POLICY_KINDS, default="nash")
    p.add_argument("--attacker", choices=evaluation.POLICY_KINDS, default="nash")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (GraphError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SolverError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
