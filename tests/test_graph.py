import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decoygraph import graph as graph_module
from decoygraph.game import GameParams, build_matrix
from decoygraph.graph import (
    EnumerationLimitError,
    GraphError,
    NodeRecord,
    _reachable,
    augment,
    enumerate_attack_paths,
    generate_zero_day_candidates,
    graph_from_parts,
    graph_to_document,
    join_added_paths,
    load_graph,
)
from oracles import added_paths, breadth_first_paths, brute_force_paths, reachable_closure

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
        (lambda d: d["edges"].__setitem__(0, [True, 2.0]), "edge (True, 2.0) endpoint True is not an integer"),
        (lambda d: d["edges"].__setitem__(0, [1, 2.0]), "edge (1, 2.0) endpoint 2.0 is not an integer"),
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


def test_path_limit_is_loud(monkeypatch):
    g = augment(line3(), (1, 3))
    monkeypatch.setattr(graph_module, "DEFAULT_PATH_LIMIT", 1)
    with pytest.raises(EnumerationLimitError, match="exceeds limit 1"):
        enumerate_attack_paths(g)


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


def _new_paths(g, base, edge):
    """The attack paths of ``augment(g, edge)`` that ``base`` lacks, by full
    enumeration."""
    known = set(base)
    return tuple(path for path in enumerate_attack_paths(augment(g, edge)) if path not in known)


@given(role_digraphs(), st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=8))
# node 3 is unreachable, so its edges form no prefix-suffix pair, and the
# 2 base paths alone are past the limit of 1
@example(graph_from_parts([NodeRecord(0, 0.0, "entry"), NodeRecord(1, 1.0, "intermediate"),
                           NodeRecord(2, 2.0, "target"), NodeRecord(3, 1.0, "intermediate")],
                          [(0, 1), (1, 2), (0, 2)]), 1, 1)
@settings(max_examples=80, deadline=None)
def test_augmented_paths_equal_full_enumeration(g, limit, chunk):
    base = enumerate_attack_paths(g)
    non_edges = [(u, v) for u in g.node_ids for v in g.node_ids if u != v and (u, v) not in g.edge_index]
    with pytest.MonkeyPatch.context() as mp:
        # prefix-suffix pairs are tested a few at a time, so chunks split candidates
        mp.setattr(graph_module, "PAIR_CHUNK", chunk)
        assert added_paths(g, base, non_edges) == [_new_paths(g, base, e) for e in non_edges]
        mp.setattr(graph_module, "DEFAULT_PATH_LIMIT", limit)
        for edge in non_edges:
            limited = _paths_or_limit(lambda: _new_paths(g, base, edge))
            assert _paths_or_limit(lambda: added_paths(g, base, [edge])[0]) == limited


@given(role_digraphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_walks_match_breadth_first_oracle(g, data):
    max_hops = data.draw(st.none() | st.integers(min_value=1, max_value=4))
    entries = data.draw(st.none() | st.lists(st.sampled_from(g.entry_ids), unique=True))
    limit = data.draw(st.integers(min_value=0, max_value=40))
    starts = g.entry_ids if entries is None else sorted(entries)
    expected = breadth_first_paths(g.edges, starts, set(g.target_ids), max_hops)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "DEFAULT_PATH_LIMIT", limit)
            got = enumerate_attack_paths(g, max_hops, entries=entries)
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


@given(role_digraphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_join_accepts_only_the_full_base_paths(g, data):
    # the join's base paths come from its own search and must equal the
    # given ones exactly: a subset, a shorter tuple or another order raises
    base = enumerate_attack_paths(g)
    non_edges = [(u, v) for u in g.node_ids for v in g.node_ids if u != v and (u, v) not in g.edge_index]
    assert join_added_paths(g, base, non_edges).counts.shape == (len(non_edges),)
    entries = data.draw(st.lists(st.sampled_from(g.entry_ids), min_size=1, unique=True))
    restricted = build_matrix(g, GameParams(), entries=entries).paths
    dropped = data.draw(st.integers(min_value=0, max_value=len(base) - 1))
    wrong = [base[:dropped] + base[dropped + 1 :]]
    if len(restricted) < len(base):
        wrong.append(restricted)
    if len(base) > 1:
        wrong.append(base[::-1])
    for paths in wrong:
        with pytest.raises(GraphError, match="every attack path"):
            join_added_paths(g, paths, non_edges)


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
    for edge, new in zip(edges, added_paths(g, base, edges)):
        assert new == _new_paths(g, base, edge)
        assert new or edge == (5, 0)
    # (1, 3) adds one path, so the base paths fit a limit of len(base) and
    # only that new path takes the count past it
    (one,) = _new_paths(g, base, (1, 3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "DEFAULT_PATH_LIMIT", len(base))
        with pytest.raises(EnumerationLimitError, match=f"exceeds limit {len(base)}"):
            added_paths(g, base, [(1, 3)])
        mp.setattr(graph_module, "DEFAULT_PATH_LIMIT", len(base) + 1)
        assert added_paths(g, base, [(1, 3)]) == [(one,)]
    with pytest.raises(GraphError, match="already present"):
        added_paths(g, base, [(0, 1)])


def test_added_paths_with_long_walks_and_many_nodes():
    # two 70-node chains with cross edges: new paths of up to 140 nodes
    # sort on node positions past 127, which take more than 8 bits, and 140
    # nodes take three mask words
    n = 70
    roles = {0: "entry", n: "entry", n - 1: "target", 2 * n - 1: "target"}
    nodes = [NodeRecord(i, float(i % 7), roles.get(i, "intermediate")) for i in range(2 * n)]
    chains = [(i, i + 1) for i in range(n - 1)] + [(i, i + 1) for i in range(n, 2 * n - 1)]
    g = graph_from_parts(nodes, chains + [(10, n + 12), (n + 20, 20)])
    base = enumerate_attack_paths(g)
    tails, heads = (1, 12, n - 2, n + 5, n + 25, 2 * n - 2), (2, 21, n - 5, n + 1, n + 15, 2 * n - 4)
    edges = [(u, v) for u in tails for v in heads if (u, v) not in g.edge_index]
    added = added_paths(g, base, edges)
    assert added == [_new_paths(g, base, e) for e in edges]
    assert max(len(path.nodes) for new in added for path in new) > 128
    # each new path's place in its augmented graph's canonical order
    joined = join_added_paths(g, base, edges)
    firsts = np.cumsum(joined.counts) - joined.counts
    for k, edge in enumerate(edges):
        places = joined.base_rank[firsts[k] : firsts[k] + joined.counts[k]] + np.arange(joined.counts[k])
        full = enumerate_attack_paths(augment(g, edge))
        assert places.tolist() == [i for i, path in enumerate(full) if len(g.edges) in path.edges]

@pytest.mark.parametrize("invalid", [(0, 1), (1, 1), (1, 9)])
def test_added_path_errors_follow_edge_order(invalid):
    # edges are checked in list order, as adding them one at a time would:
    # an edge past the path limit before an invalid edge raises the limit
    # error, and the invalid edge before it raises GraphError
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
    message = {(0, 1): "already present", (1, 1): "self-loop", (1, 9): "unknown node 9"}[invalid]
    with pytest.MonkeyPatch.context() as mp:
        # (2, 0) adds no path, so only (1, 3) can take the count past the base's
        mp.setattr(graph_module, "DEFAULT_PATH_LIMIT", len(base))
        assert added_paths(g, base, [(2, 0)]) == [()]
        with pytest.raises(EnumerationLimitError, match=f"exceeds limit {len(base)}"):
            added_paths(g, base, [(2, 0), (1, 3), invalid])
        with pytest.raises(GraphError, match=message):
            added_paths(g, base, [(2, 0), invalid, (1, 3)])
