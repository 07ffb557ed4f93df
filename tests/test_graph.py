import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoygraph.graph import (
    EnumerationLimitError,
    GraphError,
    NodeRecord,
    _reachable,
    augment,
    augmented_paths,
    enumerate_attack_paths,
    generate_zero_day_candidates,
    graph_from_parts,
    graph_to_document,
    load_graph,
)
from oracles import breadth_first_paths, brute_force_paths, reachable_closure

LINE3_DOC = {
    "nodes": [
        {"id": 1, "value": 0.0, "role": "entry"},
        {"id": 2, "value": 1.0, "role": "intermediate"},
        {"id": 3, "value": 2.0, "role": "target"},
    ],
    "edges": [[1, 2], [2, 3]],
}


def line3():
    return load_graph(LINE3_DOC)


def test_load_minimal_line_document():
    g = load_graph(json.dumps(LINE3_DOC))
    assert len(g.edges) == 2
    assert g.entry_ids == (1,)
    assert g.target_ids == (3,)
    assert g.value(3) == 2.0
    assert g.edge_index[(1, 2)] == 0


def test_document_round_trip():
    g = line3()
    assert load_graph(graph_to_document(g)) == g


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["nodes"].append({"id": 1, "value": 0.0, "role": "entry"}), "duplicate node id 1"),
        (lambda d: [n.update(role="intermediate") for n in d["nodes"] if n["role"] == "entry"], "no entry nodes"),
        (lambda d: [n.update(role="intermediate") for n in d["nodes"] if n["role"] == "target"], "no target nodes"),
        (lambda d: d["edges"].append([1, 9]), "unknown node 9"),
        (lambda d: d["edges"].append([2, 2]), "self-loop edge (2, 2)"),
        (lambda d: d["edges"].append([1, 2]), "duplicate edge (1, 2)"),
        (lambda d: d["edges"].clear(), "no path from any entry node to any target node"),
        (lambda d: d["nodes"][1].update(value=-1.0), "for node 2"),
        (lambda d: d["nodes"][1].update(role="weird"), "unknown role 'weird'"),
        (lambda d: d["nodes"][1].update(value=float("nan")), "value nan for node 2"),
        (lambda d: d["nodes"][1].update(value=float("inf")), "value inf for node 2"),
        (lambda d: d["nodes"][1].update(value=True), "value True for node 2"),
        (lambda d: d["nodes"][1].update(value="1"), "value '1' for node 2"),
        (lambda d: d.update(nodes=5), "'nodes' must be a list"),
        (lambda d: d.update(edges=None), "'edges' must be a list"),
    ],
)
def test_validation_diagnostics(mutate, message):
    doc = json.loads(json.dumps(LINE3_DOC))
    mutate(doc)
    with pytest.raises(GraphError) as err:
        load_graph(doc)
    assert message in str(err.value)


def test_parse_failure_mentions_json():
    with pytest.raises(GraphError, match="invalid graph document"):
        load_graph("{not json")


def test_enumerate_line_graph():
    paths = enumerate_attack_paths(line3())
    assert [p.nodes for p in paths] == [(1, 2, 3)]
    assert [p.edges for p in paths] == [(0, 1)]


def test_enumerate_with_shortcut_orders_paths():
    g = augment(line3(), (1, 3))
    paths = enumerate_attack_paths(g)
    assert [p.nodes for p in paths] == [(1, 2, 3), (1, 3)]


def test_tree_paths_one_per_target_until_cross_edges(tree7):
    graph, _, _, _ = tree7
    base = enumerate_attack_paths(graph)
    per_target = {t: sum(p.nodes[-1] == t for p in base) for t in graph.target_ids}
    assert per_target == {5: 1, 7: 1}
    crossed = augment(augment(graph, (2, 3)), (3, 5))
    more = enumerate_attack_paths(crossed)
    per_target_after = {t: sum(p.nodes[-1] == t for p in more) for t in graph.target_ids}
    for t in graph.target_ids:
        assert per_target_after[t] > per_target[t]


def test_max_hops_filters_long_paths():
    g = augment(line3(), (1, 3))
    short = enumerate_attack_paths(g, max_hops=1)
    assert [p.nodes for p in short] == [(1, 3)]
    with pytest.raises(GraphError):
        enumerate_attack_paths(g, max_hops=0)


def test_path_limit_is_loud():
    g = augment(line3(), (1, 3))
    with pytest.raises(EnumerationLimitError, match="exceeds limit 1"):
        enumerate_attack_paths(g, limit=1)


def test_entry_restriction(net20):
    graph = net20[0]
    only_zero = enumerate_attack_paths(graph, entries=(0,))
    assert only_zero and all(p.nodes[0] == 0 for p in only_zero)
    with pytest.raises(GraphError, match="not an entry node"):
        enumerate_attack_paths(graph, entries=(3,))


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    ids = list(range(n))
    possible = [(u, v) for u in ids for v in ids if u != v]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=14))
    entry = ids[0]
    target = ids[-1]
    if (entry, target) not in edges:
        edges = edges + [(entry, target)]  # keep the graph valid
    nodes = [
        NodeRecord(i, float(i), "entry" if i == entry else "target" if i == target else "intermediate")
        for i in ids
    ]
    return graph_from_parts(nodes, edges)


@given(small_digraphs())
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_brute_force(g):
    expected = brute_force_paths(
        [n.id for n in g.nodes], list(g.edges), set(g.entry_ids), set(g.target_ids)
    )
    got = [p.nodes for p in enumerate_attack_paths(g)]
    assert got == expected


@given(small_digraphs())
@settings(max_examples=60, deadline=None)
def test_candidates_partition_non_edges(g):
    candidates = generate_zero_day_candidates(g)
    seen = [c.edge for c in candidates]
    non_edges = [
        (u, v)
        for u in sorted(g.node_ids)
        for v in sorted(g.node_ids)
        if u != v and (u, v) not in g.edge_index
    ]
    assert seen == non_edges
    assert all(c.status in ("analyzed", "excluded", "dominant") for c in candidates)


def test_candidate_rules_on_line_graph():
    by_edge = {c.edge: c for c in generate_zero_day_candidates(line3())}
    assert by_edge[(1, 3)].status == "dominant"
    assert by_edge[(3, 2)].status == "analyzed"


def test_dead_end_exclusion():
    nodes = [
        NodeRecord(1, 0.0, "entry"),
        NodeRecord(2, 1.0, "intermediate"),
        NodeRecord(3, 2.0, "target"),
        NodeRecord(4, 1.0, "intermediate"),
    ]
    g = graph_from_parts(nodes, [(1, 2), (2, 3)])
    by_edge = {c.edge: c for c in generate_zero_day_candidates(g)}
    assert by_edge[(3, 4)].status == "excluded"
    assert by_edge[(3, 4)].reason == "dead-end"
    # node 4 cannot be reached from the entry, so it is a dead source too
    assert by_edge[(4, 3)].status == "excluded"
    assert by_edge[(4, 3)].reason == "source unreachable"


def test_unreachable_source_exclusion():
    nodes = [
        NodeRecord(1, 0.0, "entry"),
        NodeRecord(2, 1.0, "intermediate"),
        NodeRecord(3, 2.0, "target"),
        NodeRecord(9, 5.0, "target"),
    ]
    g = graph_from_parts(nodes, [(1, 2), (2, 3), (9, 3)])
    by_edge = {c.edge: c for c in generate_zero_day_candidates(g)}
    assert by_edge[(9, 2)].reason == "source unreachable"
    assert by_edge[(1, 9)].status == "dominant"


def test_augment_appends_and_preserves_ids():
    g = line3()
    g2 = augment(g, (1, 3))
    assert g2.edges[:2] == g.edges
    assert g2.edge_index[(1, 3)] == 2
    assert len(g.edges) == 2  # original untouched


def test_augment_rejects_bad_edges():
    g = line3()
    with pytest.raises(GraphError, match="already present"):
        augment(g, (1, 2))
    with pytest.raises(GraphError, match="unknown node 9"):
        augment(g, (1, 9))
    with pytest.raises(GraphError, match="self-loop"):
        augment(g, (2, 2))


def test_augment_grows_path_set():
    g = line3()
    before = set(p.nodes for p in enumerate_attack_paths(g))
    after = set(p.nodes for p in enumerate_attack_paths(augment(g, (1, 3))))
    assert before < after


@given(small_digraphs())
@settings(max_examples=40, deadline=None)
def test_augment_superset_for_usable_candidates(g):
    base = set(p.nodes for p in enumerate_attack_paths(g))
    for cand in generate_zero_day_candidates(g):
        if cand.status == "excluded":
            continue
        after = set(p.nodes for p in enumerate_attack_paths(augment(g, cand.edge)))
        assert base <= after


@st.composite
def role_digraphs(draw):
    """Small digraphs with cycles allowed, several entries and targets, and
    entries and targets that may sit in the middle of paths."""
    n = draw(st.integers(min_value=2, max_value=7))
    ids = list(range(n))
    roles = draw(st.lists(st.sampled_from(("entry", "intermediate", "target")), min_size=n, max_size=n))
    if "entry" not in roles or "target" not in roles:
        roles[0], roles[-1] = "entry", "target"
    possible = [(u, v) for u in ids for v in ids if u != v]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=16))
    keep = (roles.index("entry"), roles.index("target"))
    if keep not in edges:
        edges = edges + [keep]  # keep the graph valid
    return graph_from_parts([NodeRecord(i, float(i), roles[i]) for i in ids], edges)


def _paths_or_limit(enumerate_paths):
    try:
        return enumerate_paths()
    except EnumerationLimitError as exc:
        return str(exc)


@given(role_digraphs(), st.integers(min_value=1, max_value=40))
@settings(max_examples=80, deadline=None)
def test_augmented_paths_equal_full_enumeration(g, limit):
    base = enumerate_attack_paths(g)
    non_edges = [(u, v) for u in g.node_ids for v in g.node_ids if u != v and (u, v) not in g.edge_index]
    assert augmented_paths(g, base, non_edges) == [enumerate_attack_paths(augment(g, e)) for e in non_edges]
    for edge in non_edges:
        limited = _paths_or_limit(lambda: enumerate_attack_paths(augment(g, edge), limit=limit))
        assert _paths_or_limit(lambda: augmented_paths(g, base, [edge], limit=limit)[0]) == limited


@given(role_digraphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_walks_match_breadth_first_oracle(g, data):
    max_hops = data.draw(st.none() | st.integers(min_value=1, max_value=4))
    entries = data.draw(st.none() | st.lists(st.sampled_from(g.entry_ids), unique=True))
    limit = data.draw(st.integers(min_value=0, max_value=40))
    starts = g.entry_ids if entries is None else sorted(entries)
    expected = breadth_first_paths(g.edges, starts, set(g.target_ids), max_hops)
    try:
        got = enumerate_attack_paths(g, max_hops, entries=entries, limit=limit)
    except EnumerationLimitError as exc:
        assert len(expected) > limit
        assert str(exc) == f"path count exceeds limit {limit}"
    else:
        assert len(expected) <= limit
        assert [(p.nodes, p.edges) for p in got] == expected
    sources = data.draw(st.lists(st.sampled_from(sorted(g.node_ids)), unique=True))
    reversed_edges = [(v, u) for u, v in g.edges]
    for neighbours, pairs in ((g.successors, g.edges), (g.predecessors, reversed_edges)):
        for start in (sources, g.entry_ids, g.target_ids):
            assert _reachable(neighbours, start) == reachable_closure(pairs, start)


def test_augmented_paths_through_cycles_and_inner_roles():
    # entry 3 and target 2 sit inside longer paths, and 1 -> 2 -> 4 -> 1 is a cycle
    nodes = [
        NodeRecord(0, 0.0, "entry"),
        NodeRecord(1, 1.0, "intermediate"),
        NodeRecord(2, 2.0, "target"),
        NodeRecord(3, 0.0, "entry"),
        NodeRecord(4, 1.0, "intermediate"),
        NodeRecord(5, 3.0, "target"),
    ]
    g = graph_from_parts(nodes, [(0, 1), (1, 2), (2, 4), (4, 1), (4, 3), (3, 5), (0, 3)])
    base = enumerate_attack_paths(g)
    edges = [(2, 5), (4, 5), (3, 1), (5, 0), (1, 3)]
    for edge, paths in zip(edges, augmented_paths(g, base, edges)):
        assert paths == enumerate_attack_paths(augment(g, edge))
        assert len(paths) > len(base) or edge == (5, 0)
    with pytest.raises(EnumerationLimitError, match="exceeds limit 3"):
        augmented_paths(g, base, [(1, 3)], limit=3)
    with pytest.raises(GraphError, match="already present"):
        augmented_paths(g, base, [(0, 1)])
