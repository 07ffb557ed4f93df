import ast
import json
from pathlib import Path

import pytest

import decoygraph
from decoygraph import fixtures
from decoygraph.game import params_to_document
from decoygraph.graph import graph_to_document
from conftest import FIXTURE_DIR, load_fixture

ROOT = Path(__file__).resolve().parent.parent


def test_public_names_resolve_once():
    assert len(decoygraph.__all__) == len(set(decoygraph.__all__))
    for name in decoygraph.__all__:
        assert getattr(decoygraph, name, None) is not None, name


@pytest.mark.parametrize("folder", ["src", "tests", "bench"])
def test_sources_parse_as_python_3_10(folder):
    # 3.10 is the oldest Python that pyproject.toml supports; feature_version
    # rejects newer syntax, such as 3.11's except* groups
    files = sorted((ROOT / folder).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_committed_fixtures_are_the_one_source():
    # fixtures/*.json are the example networks' only copy: each is written as
    # its own loaded document would be, and the benchmark's loader reads them
    names = list(fixtures.FIXTURES)
    assert names == ["line3", "tree7", "net20"]
    assert sorted(path.name for path in FIXTURE_DIR.glob("*.json")) == sorted(
        f"{name}{suffix}.json" for name in names for suffix in ("", "_params")
    )
    for name in names:
        graph, params = load_fixture(name)
        for document, suffix in ((graph_to_document(graph), ""), (params_to_document(params), "_params")):
            text = (FIXTURE_DIR / f"{name}{suffix}.json").read_text()
            assert json.dumps(document, indent=2) + "\n" == text, name + suffix
        graph_fn, params_fn = fixtures.FIXTURES[name]
        assert (graph_fn(), params_fn()) == (graph, params), name
