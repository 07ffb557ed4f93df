import hashlib
import json
import math
from pathlib import Path

import pytest

from decoygraph import evaluation
from decoygraph.cli import _emit_json, main, validate_plan_document, validate_report_document
from conftest import FIXTURE_DIR, load_fixture
from test_zeroday import fail_on_game


@pytest.fixture(scope="module")
def fixture_dir():
    # the committed files users run, so the golden digests pin their output
    return FIXTURE_DIR


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_line_graph(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "solve", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(16.0)
    assert doc["defender_strategy"] == [{"edges": [[2, 3]], "probability": 1.0}]


def test_solve_csv_format(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "solve", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"), "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "value,16.000000"


def test_missing_file_exit_code_and_message(fixture_dir, capsys):
    code, _, err = run(
        capsys, "solve", "-g", "nope/missing.json", "-p",
        str(fixture_dir / "line3_params.json"),
    )
    assert code == 1
    assert "nope/missing.json" in err


def test_unknown_command_exits_one(capsys):
    assert main(["conquer"]) == 1


def test_paths_listing(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "paths", "-g", str(fixture_dir / "tree7.json"), "-p",
        str(fixture_dir / "tree7_params.json"),
    )
    assert code == 0
    assert out.splitlines() == ["1,2,4,5", "1,3,6,7"]


def test_zeroday_scan_top_row(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "zeroday-scan", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"), "--criterion", "pes",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "edge_u,edge_v,naive,optimistic,pessimistic,impact,y_e,dominance"
    assert lines[1] == "1,3,-16.000000,10.000000,10.000000,26.000000,1.000000,dominant"


def test_zeroday_scan_optimistic_criterion(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "zeroday-scan", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"), "--criterion", "opt", "--top", "1",
    )
    assert code == 0
    assert out.splitlines()[1] == "1,3,-16.000000,-3.000000,10.000000,13.000000,0.500000,dominant"


def test_zeroday_scan_json_round_trip(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "zeroday-scan", "-g", str(fixture_dir / "tree7.json"), "-p",
        str(fixture_dir / "tree7_params.json"), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    validate_report_document(doc)
    assert doc["criterion"] == "pessimistic"
    assert doc["records"][0]["impact"] >= doc["records"][-1]["impact"]


def test_repeated_runs_byte_identical(fixture_dir, capsys):
    args = (
        "mitigate", "-g", str(fixture_dir / "tree7.json"), "-p",
        str(fixture_dir / "tree7_params.json"), "--strategy", "random", "--seed", "3",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize("strategy", ["alpha", "lp", "nature", "critical", "random", "none"])
def test_mitigate_plans_round_trip(fixture_dir, capsys, strategy):
    code, out, _ = run(
        capsys, "mitigate", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"), "--strategy", strategy,
    )
    assert code == 0
    doc = json.loads(out)
    validate_plan_document(doc)
    kind = {"critical": "critical_point"}.get(strategy, strategy)
    assert doc["kind"] == kind


def test_mitigate_alpha_metrics(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "mitigate", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"), "--strategy", "alpha",
    )
    doc = json.loads(out)
    assert doc["pinned_edges"] == [[1, 3]]
    assert doc["effectiveness"] == 1.0
    assert doc["capture_after"] == 1.0


def test_mitigate_rejects_infinite_budget(fixture_dir, capsys):
    code, out, err = run(
        capsys, "mitigate", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"), "--strategy", "lp", "--mitigation-budget", "inf",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("name", ["tree7", "net20"])
@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_mitigate_rejects_non_finite_kappa(fixture_dir, capsys, name, kappa):
    code, out, err = run(
        capsys, "mitigate", "-g", str(fixture_dir / f"{name}.json"), "-p",
        str(fixture_dir / f"{name}_params.json"), "--strategy", "critical", "--kappa", kappa,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: kappa must be a finite number >= 1, got {kappa}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["zeroday-scan", "--top", "-1"],
        ["zeroday-scan", "--top", "abc"],
        ["mitigate", "--strategy", "nature", "--top-locations", "-2"],
        ["mitigate", "--strategy", "critical", "--top-locations", "-3"],
    ],
)
def test_negative_top_counts_rejected_when_parsed(fixture_dir, capsys, argv):
    inputs = ["-g", str(fixture_dir / "tree7.json"), "-p", str(fixture_dir / "tree7_params.json")]
    code, out, err = run(capsys, *argv[:1], *inputs, *argv[1:])
    assert code == 1
    assert out == ""
    assert f"expected a nonnegative integer, got '{argv[-1]}'" in err


def test_zero_top_keeps_no_records(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "zeroday-scan", "-g", str(fixture_dir / "tree7.json"), "-p",
        str(fixture_dir / "tree7_params.json"), "--top", "0",
    )
    assert code == 0
    assert out == "edge_u,edge_v,naive,optimistic,pessimistic,impact,y_e,dominance\n"


def test_json_output_refuses_nan(capsys):
    with pytest.raises(ValueError, match="JSON compliant"):
        _emit_json({"kappa": math.nan}, None)
    assert capsys.readouterr().out == ""


def test_plan_distribution_mass_checked_against_budget():
    doc = {
        "kind": "lp", "pinned_edges": [], "effectiveness": 0.0, "capture_before": 0.0,
        "capture_after": 0.0, "candidates": [], "mitigation_budget": 0.5,
        "distribution": [{"edge": [1, 3], "x": 0.5}, {"edge": [2, 5], "x": 0.4}],
    }
    with pytest.raises(ValueError, match="exceeds budget"):
        validate_plan_document(doc)
    validate_plan_document({**doc, "mitigation_budget": 1.0})


def test_nature_plan_rounding_stays_within_budget(fixture_dir, capsys, tmp_path):
    # the ten nature weights sum to 0.9999999999999997 but to 1.000004 once
    # each is rounded to 6 places
    params = json.loads((fixture_dir / "net20_params.json").read_text())
    (tmp_path / "p.json").write_text(json.dumps({**params, "terminate_on_capture": True}))
    code, out, err = run(
        capsys, "mitigate", "-g", str(fixture_dir / "net20.json"), "-p", str(tmp_path / "p.json"),
        "--strategy", "nature",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert sum(item["x"] for item in doc["distribution"]) > 1.0 + 1e-6
    validate_plan_document(doc)


RECORD = {
    "edge": [1, 3], "status": "analyzed", "dominance": "neither", "y_e": 1.0, "naive": 0.0,
    "optimistic": 0.0, "pessimistic": 0.0, "impact": 0.0, "new_path_count": 1,
}
VALID_REPORT = {"criterion": "pessimistic", "pessimistic_y": "best_response", "records": [RECORD]}
VALID_PLAN = {
    "kind": "lp", "pinned_edges": [[1, 3]], "effectiveness": 1.0, "capture_before": 0.0,
    "capture_after": 1.0, "distribution": [{"edge": [1, 3], "x": 1.0}],
    "candidates": [{"edge": [1, 3], "prevented": True}],
}
MISSING = "<missing>"


@pytest.mark.parametrize(
    "validate, key, value, message",
    [
        (validate_report_document, "criterion", "opt", "unknown criterion 'opt'"),
        (validate_report_document, "pessimistic_y", None, "unknown pessimistic_y None"),
        (validate_report_document, "records", MISSING, "missing 'records'"),
        (validate_report_document, "edge", [1], "malformed record edge"),
        (validate_report_document, "status", "skipped", "unexpected record status 'skipped'"),
        (validate_report_document, "dominance", "weak", "unexpected dominance class 'weak'"),
        (validate_report_document, "y_e", 1.1, "exploit probability out of range"),
        (validate_report_document, "impact", MISSING, "record missing 'impact'"),
        (validate_report_document, "y_e", MISSING, "record missing 'y_e'"),
        (validate_plan_document, "kind", "pin", "unknown plan kind 'pin'"),
        (validate_plan_document, "candidates", MISSING, "missing 'candidates'"),
        (validate_plan_document, "pinned_edges", [[1, 3, 4]], "malformed pinned edge"),
        (validate_plan_document, "effectiveness", 1.5, "effectiveness out of range"),
        (validate_plan_document, "capture_after", -0.5, "capture_after out of range"),
        (validate_plan_document, "distribution", [{"edge": [1, 3], "x": 1.0000021}], "exceeds budget"),
        (validate_plan_document, "distribution", [{"edge": [1, 3], "x": -0.5}], r"entry out of \[0, 1\]"),
        (validate_plan_document, "distribution", [{"edge": [1, 3]}], "distribution entry missing 'x'"),
        (validate_plan_document, "candidates", [{"edge": [1, 3], "prevented": 1}], "malformed candidate outcome"),
        (validate_plan_document, "candidates", [{"edge": [1, 3]}], "candidate outcome missing 'prevented'"),
        (validate_plan_document, "candidates", [{"prevented": True}], "candidate outcome missing 'edge'"),
    ],
)
def test_validators_reject_bad_documents(validate, key, value, message):
    valid = VALID_REPORT if validate is validate_report_document else VALID_PLAN
    validate(valid)
    doc = json.loads(json.dumps(valid))
    target = doc["records"][0] if valid is VALID_REPORT and key in RECORD else doc
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ValueError, match=message):
        validate(doc)


def test_evaluate_pairing(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "evaluate", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"), "--defender", "greedy",
        "--attacker", "random",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "def_policy,atk_policy,def_reward,atk_reward,capture"
    assert lines[1] == "greedy,random,16.000000,-16.000000,1.000000"


@pytest.mark.parametrize("attacker", evaluation.POLICY_KINDS)
@pytest.mark.parametrize("defender", evaluation.POLICY_KINDS)
@pytest.mark.parametrize("name", ["line3", "tree7", "net20"])
def test_evaluate_pairing_matches_sweep_and_cli(fixture_dir, capsys, name, defender, attacker):
    graph, params = load_fixture(name)
    got = evaluation.evaluate_pairing(graph, params, defender, attacker)
    config = evaluation.SweepConfig("honeypots", (params.budget,), params, defender, attacker)
    row = evaluation.sweep(graph, config).rows[0]
    assert [v.hex() for v in got] == [v.hex() for v in (row.defender_reward, row.attacker_reward, row.capture)]
    code, out, _ = run(
        capsys, "evaluate", "-g", str(fixture_dir / f"{name}.json"), "-p", str(fixture_dir / f"{name}_params.json"),
        "--defender", defender, "--attacker", attacker, "--format", "json",
    )
    assert code == 0
    d, a, capture = (round(v, 6) + 0.0 for v in got)
    assert json.loads(out) == {
        "defender_policy": defender, "attacker_policy": attacker,
        "defender_reward": d, "attacker_reward": a, "capture": capture,
    }


def test_sweep_honeypots(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "sweep", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"), "--param", "honeypots",
        "--values", "0", "1", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "honeypots,0,nash,nash,-13.000000,13.000000,0.000000"
    assert lines[3] == "honeypots,2,nash,nash,30.000000,-30.000000,1.000000"


def test_sweep_entry_nodes(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "sweep", "-g", str(fixture_dir / "net20.json"), "-p",
        str(fixture_dir / "net20_params.json"), "--param", "entry_nodes",
        "--values", "0", "0,1", "0,1,2", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    rewards = [r["atk_reward"] for r in rows]
    assert all(b >= a - 1e-6 for a, b in zip(rewards, rewards[1:]))


def test_output_file(fixture_dir, capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "zeroday-scan", "-g", str(fixture_dir / "line3.json"), "-p",
        str(fixture_dir / "line3_params.json"), "-o", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("edge_u,")


@pytest.mark.parametrize("argv, code", [
    (("zeroday-scan",), 2),
    (("zeroday-scan", "--format", "json"), 2),
    (("mitigate", "--strategy", "alpha", "--criterion", "opt"), 2),
    # a pessimistic scan solves a candidate's augmented game only when its
    # optimistic value is read: the top 10 rows and the pessimistic plans
    # never read candidate (0, 1)'s
    (("zeroday-scan", "--top", "10"), 0),
    (("mitigate", "--strategy", "alpha", "--criterion", "pes"), 0),
    (("mitigate", "--strategy", "nature", "--criterion", "pes"), 0),
])
def test_failed_augmented_solve_fails_only_where_read(fixture_dir, capsys, tmp_path, monkeypatch, net20, argv, code):
    graph, params, _, _ = net20
    target = tmp_path / "out"
    argv = (*argv, "-g", str(fixture_dir / "net20.json"), "-p", str(fixture_dir / "net20_params.json"),
            "-o", str(target))
    assert run(capsys, *argv) == (0, "", "")
    expected = target.read_bytes()
    target.unlink()
    error = fail_on_game(monkeypatch, graph, params, (0, 1))
    if code:
        assert run(capsys, *argv) == (2, "", f"numerical failure: {error}\n")
        assert not target.exists()
    else:
        assert run(capsys, *argv) == (0, "", "")
        assert target.read_bytes() == expected


def test_invalid_graph_document_exits_one(tmp_path, capsys, fixture_dir):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [], "edges": []}')
    code, _, err = run(
        capsys, "solve", "-g", str(bad), "-p", str(fixture_dir / "line3_params.json")
    )
    assert code == 1
    assert "no entry nodes" in err


@pytest.mark.parametrize(
    "document, edit, named",
    [
        ("params", {"cap": "x"}, "cap"),
        ("params", {"honeypot_cost": None}, "honeypot_cost"),
        ("params", {"esc": math.inf}, "esc"),
        ("params", {"terminate_on_capture": "no"}, "terminate_on_capture"),
        ("graph", {"nodes": 5}, "'nodes'"),
        ("graph", {"edges": None}, "'edges'"),
        ("graph", {"edges": [[True, 2.0], [2, 3]]}, "endpoint True is not an integer"),
        ("graph", {"value": math.nan}, "node 2"),
        ("graph", {"value": math.inf}, "node 2"),
        ("graph", {"value": True}, "node 2"),
    ],
)
def test_bad_input_rejected_when_loaded(fixture_dir, tmp_path, capsys, document, edit, named):
    graph = json.loads((fixture_dir / "line3.json").read_text())
    params = json.loads((fixture_dir / "line3_params.json").read_text())
    if "value" in edit:
        graph["nodes"][1]["value"] = edit["value"]
    else:
        (graph if document == "graph" else params).update(edit)
    (tmp_path / "g.json").write_text(json.dumps(graph))
    (tmp_path / "p.json").write_text(json.dumps(params))
    code, out, err = run(capsys, "solve", "-g", str(tmp_path / "g.json"), "-p", str(tmp_path / "p.json"))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err


def golden_commands():
    """Command matrix whose stdout is pinned by ``cli_digests.json``: every
    subcommand and output mode on line3 and tree7, and a few net20 runs."""
    out = []
    for name in ("line3", "tree7"):
        for fmt in ("csv", "json"):
            out.append(f"{name} solve --format {fmt}")
            out.append(f"{name} paths --format {fmt}")
            for crit in ("pes", "opt"):
                for mode in ("best_response", "game2_ne"):
                    out.append(f"{name} zeroday-scan --criterion {crit} --pessimistic-y {mode} --format {fmt}")
            out.append(f"{name} evaluate --defender greedy --attacker random --format {fmt}")
            out.append(f"{name} sweep --param honeypots --values 0 1 2 --format {fmt}")
        out.append(f"{name} evaluate --defender nash --attacker nash")
        out.append(f"{name} sweep --param esc --values 1 5 9 --format json")
        for strategy in ("alpha", "lp", "nature", "critical", "random", "none"):
            for crit in ("pes", "opt"):
                out.append(f"{name} mitigate --strategy {strategy} --criterion {crit}")
    return out + [
        "net20 solve --format csv",
        "net20 zeroday-scan --criterion pes --format csv",
        "net20 mitigate --strategy alpha --criterion pes",
        "net20 mitigate --strategy critical --add-honeypot --criterion opt",
        "net20 mitigate --strategy nature --criterion pes",
    ]


GOLDEN_DIGESTS = json.loads((Path(__file__).parent / "cli_digests.json").read_text())


@pytest.mark.parametrize("command", golden_commands())
def test_cli_output_matches_golden_digest(fixture_dir, capsys, command):
    name, subcommand, *options = command.split()
    code, out, _ = run(
        capsys, subcommand, "-g", str(fixture_dir / f"{name}.json"), "-p",
        str(fixture_dir / f"{name}_params.json"), *options,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[command]

