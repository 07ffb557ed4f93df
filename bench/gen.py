"""Seeded layered attack graphs for the benchmark.

Every graph is a layered DAG: layer 0 holds the entry nodes, the last layer
the targets. Each node keeps at least one edge into the next layer and one
edge out of the previous one, so every node lies on some entry-to-target
path and the zero-day scan analyses almost every non-edge. Extra edges join
consecutive layers or skip one layer. A draw is rejected until its path
count falls inside the requested window, which keeps the size of every game
nearly the same from seed to seed; only the wiring and the node values move.

The output is a plain graph document and params document, the format
``decoygraph.load_graph`` and ``load_params`` read, so the program receives
only the generated inputs.
"""

from __future__ import annotations

import random

MAX_DRAWS = 10_000


def _path_count(layers, edges):
    count = {n: 1 for n in layers[0]}
    out: dict[int, list[int]] = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
    for layer in layers:
        for u in layer:
            for v in out.get(u, ()):
                count[v] = count.get(v, 0) + count.get(u, 0)
    return sum(count.get(t, 0) for t in layers[-1])


def _draw(rng: random.Random, widths, n_edges):
    layers, next_id = [], 0
    for w in widths:
        layers.append(list(range(next_id, next_id + w)))
        next_id += w
    edges: set[tuple[int, int]] = set()
    for a, b in zip(layers, layers[1:]):
        for u in a:
            edges.add((u, rng.choice(b)))
        for v in b:
            if not any((u, v) in edges for u in a):
                edges.add((rng.choice(a), v))
    pool = [
        (u, v)
        for k in range(len(layers) - 1)
        for step in (1, 2)
        if k + step < len(layers)
        for u in layers[k]
        for v in layers[k + step]
        if (u, v) not in edges
    ]
    if len(edges) > n_edges or len(edges) + len(pool) < n_edges:
        return None
    edges.update(rng.sample(pool, n_edges - len(edges)))
    return layers, sorted(edges)


def layered_graph(seed: int | str, widths, n_edges: int, paths: tuple[int, int]):
    """Graph document with the given layer widths, exactly ``n_edges``
    edges and a path count in the closed window ``paths``."""
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        drawn = _draw(rng, widths, n_edges)
        if drawn is None:
            continue
        layers, edges = drawn
        if paths[0] <= _path_count(layers, edges) <= paths[1]:
            break
    else:
        raise RuntimeError(f"no layered graph with widths {widths}, {n_edges} edges, paths {paths}")
    nodes = []
    for k, layer in enumerate(layers):
        for n in layer:
            if k == 0:
                nodes.append({"id": n, "value": 0.0, "role": "entry"})
            elif k == len(layers) - 1:
                nodes.append({"id": n, "value": float(rng.randint(6, 12)), "role": "target"})
            else:
                nodes.append({"id": n, "value": float(rng.randint(1, 5)), "role": "intermediate"})
    return {"nodes": nodes, "edges": [list(e) for e in edges]}


def params_document(budget: int, *, terminate: bool = False) -> dict:
    return {
        "cap": 10.0,
        "esc": 5.0,
        "honeypot_cost": 1.0,
        "attack_cost_per_hop": 4.0,
        "budget": budget,
        "terminate_on_capture": terminate,
    }


def scaled(graph_doc: dict, params_doc: dict, scale: float):
    """Copy of a game with every node value and both costs times ``scale``;
    its equilibrium value is exactly ``scale`` times the original's."""
    nodes = [dict(n, value=n["value"] * scale) for n in graph_doc["nodes"]]
    params = dict(
        params_doc,
        honeypot_cost=params_doc["honeypot_cost"] * scale,
        attack_cost_per_hop=params_doc["attack_cost_per_hop"] * scale,
    )
    return {"nodes": nodes, "edges": [list(e) for e in graph_doc["edges"]]}, params
