import ast
from pathlib import Path

import pytest

import decoygraph
from decoygraph import fixtures

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


def test_fixture_files_match_their_generator(tmp_path):
    # the README, CI and the benchmark read the committed fixtures/*.json
    written = fixtures.write_fixture_files(tmp_path)
    committed = sorted(path.name for path in (ROOT / "fixtures").glob("*.json"))
    assert sorted(path.name for path in written) == committed
    for path in written:
        assert path.read_bytes() == (ROOT / "fixtures" / path.name).read_bytes(), path.name
