"""Loader for the example networks committed as ``fixtures/*.json``.

The JSON files at the repository root are the one source of line3, tree7
and net20. This module exists only because the benchmark in ``bench/``
reads :data:`FIXTURES`; nothing in the package imports it.
"""

from __future__ import annotations

from pathlib import Path

from .game import load_params
from .graph import load_graph

FIXTURE_DIR = Path(__file__).resolve().parents[2] / "fixtures"


def _loaders(name: str):
    return (
        lambda: load_graph((FIXTURE_DIR / f"{name}.json").read_text()),
        lambda: load_params((FIXTURE_DIR / f"{name}_params.json").read_text()),
    )


FIXTURES = {name: _loaders(name) for name in ("line3", "tree7", "net20")}
