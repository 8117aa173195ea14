"""Core digraph type, SCC machinery, and the edge-list text format."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from digrank import (
    Digraph,
    InputError,
    ParseError,
    degrees,
    induced,
    is_acyclic,
    is_strongly_connected,
    parse_digraph,
    scc,
    serialize_digraph,
    to_dot,
)
from digrank.bitsets import mask_of
from digrank.digraph import (
    format_vertex_set,
    is_acyclic_within,
    nontrivial_sccs_within,
    parse_vertex_set,
    scc_mask_partition,
    sccs_within,
)

from common import chain, clique, cycle, edgeless, loop_vertex


def test_constructor_rejects_out_of_range_edges():
    with pytest.raises(InputError):
        Digraph.from_edges(2, [(0, 5)])
    with pytest.raises(InputError):
        Digraph.from_edges(2, [(-1, 0)])
    with pytest.raises(InputError):
        Digraph(-1, frozenset())


def test_edges_are_a_set():
    g = Digraph(2, [(0, 1), (0, 1)])
    assert len(g.edges) == 1
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)


def test_adjacency_views_are_sorted():
    g = Digraph.from_edges(4, [(0, 3), (0, 1), (2, 0), (1, 0)])
    assert g.succ[0] == (1, 3)
    assert g.pred[0] == (1, 2)
    assert g.succ_masks[0] == 0b1010
    assert g.loop_mask == 0


def test_scc_topological_order():
    # Two 2-cycles joined by a bridge; the source component must come first.
    g = Digraph.from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
    assert scc(g) == [frozenset({0, 1}), frozenset({2, 3})]


def test_scc_tie_break_is_smallest_vertex_id():
    # Incomparable singletons: order falls back to vertex ids.
    assert scc(edgeless(3)) == [frozenset({0}), frozenset({1}), frozenset({2})]
    g = Digraph.from_edges(4, [(3, 2), (2, 3), (1, 0), (0, 1)])
    assert scc(g) == [frozenset({0, 1}), frozenset({2, 3})]


def test_scc_respects_all_cross_edges():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 9)
        g = Digraph.from_edges(
            n, [(u, v) for u in range(n) for v in range(n)
                if rng.random() < 0.3])
        comps = scc(g)
        assert sorted(v for c in comps for v in c) == list(range(n))
        index = {v: i for i, c in enumerate(comps) for v in c}
        for u, v in g.edges:
            assert index[u] <= index[v]


def test_nontrivial_sccs():
    g = Digraph.from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
    assert nontrivial_sccs_within(g, g.vertices) == [frozenset({0, 1})]
    assert nontrivial_sccs_within(loop_vertex(), {0}) == [frozenset({0})]
    assert nontrivial_sccs_within(chain(3), range(3)) == []


def test_sccs_within_restricts_to_the_induced_subgraph():
    g = cycle(4)
    assert sccs_within(g, {0, 1, 2}) == [
        frozenset({0}), frozenset({1}), frozenset({2})]


@pytest.mark.parametrize("fn", [sccs_within, nontrivial_sccs_within,
                                is_acyclic_within])
@pytest.mark.parametrize("bad", [-1, 3])
def test_sccs_within_rejects_out_of_range_ids(fn, bad):
    with pytest.raises(InputError):
        fn(cycle(3), {0, bad})


@st.composite
def graphs_with_subsets(draw):
    n = draw(st.integers(0, 12))
    adj = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    g = Digraph.from_edges(n, [(u, v) for u in range(n) for v in range(n)
                               if adj[u * n + v]])
    return g, {v for v in range(n) if keep[v]}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs_with_subsets())
def test_sccs_within_canonical_order_spec(case):
    # Checked against the definition only: strong connectivity through
    # is_strongly_connected, and the condensation built from the edge set.
    g, sub = case
    comps = sccs_within(g, sub)
    assert sorted(v for c in comps for v in c) == sorted(sub)
    assert all(c and is_strongly_connected(induced(g, c)) for c in comps)
    index = {v: i for i, c in enumerate(comps) for v in c}
    inner = [(index[u], index[v]) for u, v in g.edges if u in sub and v in sub]
    # Every edge goes forward; with strongly connected parts that also
    # makes each part a maximal strongly connected set.
    assert all(i <= j for i, j in inner)
    for i in range(len(comps)):
        entered = {j for a, j in inner if a != j}
        sources = [k for k in range(i, len(comps)) if k not in entered]
        assert i == min(sources, key=lambda k: min(comps[k]))
        inner = [(a, b) for a, b in inner if a != i]
    masks = list(scc_mask_partition(g.succ_masks, g.pred_masks, mask_of(sub)))
    leasts = [(m & -m).bit_length() - 1 for m in masks]
    assert leasts == sorted(leasts)
    assert sorted(masks) == sorted(mask_of(c) for c in comps)


def test_induced_subgraph_relabels_canonically():
    # New vertex i is sorted(vertices)[i].
    g = induced(cycle(4), {0, 1, 2})
    assert g == chain(3)
    h = induced(cycle(4), {1, 3})
    assert h == edgeless(2)


def test_induced_rejects_foreign_vertices():
    with pytest.raises(InputError):
        induced(cycle(3), {0, 7})


def test_degrees_k3():
    assert degrees(clique(3)) == [(2, 2), (2, 2), (2, 2)]


def test_degrees_counts_distinct_neighbors():
    # A loop makes a vertex its own neighbor, once.
    g = Digraph.from_edges(2, [(0, 0), (0, 1)])
    assert degrees(g) == [(2, 2), (0, 1)]


def test_acyclicity():
    assert is_acyclic(chain(4))
    assert is_acyclic(edgeless(1))
    assert not is_acyclic(cycle(2))
    assert not is_acyclic(loop_vertex())


def test_strong_connectivity():
    assert is_strongly_connected(cycle(5))
    assert is_strongly_connected(edgeless(1))
    assert is_strongly_connected(edgeless(0))  # at most one component
    assert not is_strongly_connected(chain(2))
    assert not is_strongly_connected(edgeless(2))


def test_parse_digraph_basic():
    g = parse_digraph("# a comment\ndigraph 3\n0 1\n\n1 2\n")
    assert g == chain(3)


def test_parse_digraph_out_of_range_vertex():
    with pytest.raises(ParseError):
        parse_digraph("digraph 2\n0 5\n")


def test_parse_digraph_malformed():
    for text in ["", "digraph\n", "digraph x\n", "digraph 2\n0\n",
                 "digraph 2\n0 1 2\n", "0 1\n"]:
        with pytest.raises(ParseError):
            parse_digraph(text)


def test_parse_digraph_duplicate_edge_warns():
    with pytest.warns(UserWarning):
        g = parse_digraph("digraph 2\n0 1\n0 1\n")
    assert len(g.edges) == 1


def test_serialize_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(0, 7)
        g = Digraph.from_edges(
            n, [(u, v) for u in range(n) for v in range(n)
                if rng.random() < 0.4])
        assert parse_digraph(serialize_digraph(g)) == g


def test_serialize_is_sorted():
    g = Digraph.from_edges(3, [(2, 0), (0, 1), (0, 2)])
    assert serialize_digraph(g) == "digraph 3\n0 1\n0 2\n2 0\n"


def test_vertex_set_format_roundtrip():
    assert format_vertex_set(frozenset({2, 0, 1})) == "{0,1,2}"
    assert format_vertex_set(frozenset()) == "{}"
    assert parse_vertex_set("{0,1,2}") == frozenset({0, 1, 2})
    assert parse_vertex_set("{}") == frozenset()
    with pytest.raises(ParseError):
        parse_vertex_set("0,1")
    with pytest.raises(ParseError):
        parse_vertex_set("{0,x}")


def test_to_dot_mentions_every_edge():
    out = to_dot(cycle(3))
    assert out.startswith("digraph {")
    for u, v in cycle(3).edges:
        assert f"{u} -> {v};" in out
