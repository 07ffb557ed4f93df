from pathlib import Path

import pytest

from decoygraph.game import build_matrix, load_params
from decoygraph.graph import load_graph
from decoygraph.lp import solve_zero_sum

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    """The committed fixtures/<name>.json and <name>_params.json, loaded."""
    graph = load_graph((FIXTURE_DIR / f"{name}.json").read_text())
    return graph, load_params((FIXTURE_DIR / f"{name}_params.json").read_text())


def solved_fixture(name):
    graph, params = load_fixture(name)
    game = build_matrix(graph, params)
    return graph, params, game, solve_zero_sum(game.matrix)


@pytest.fixture(scope="session")
def line3():
    return solved_fixture("line3")


@pytest.fixture(scope="session")
def tree7():
    return solved_fixture("tree7")


@pytest.fixture(scope="session")
def net20():
    return solved_fixture("net20")
