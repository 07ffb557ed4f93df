import ast
from pathlib import Path

import pytest

import decoygraph

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
