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
    serialize_digraph,
)
from digrank.bitsets import bits, mask_of
from digrank.digraph import (
    _dominator_sets,
    cut_masks,
    format_vertex_set,
    is_nontrivial_component,
    nontrivial_sccs_within,
    parse_vertex_set,
    reach_mask,
    scc_mask_partition,
    sccs_within,
)
from digrank.generate import random_digraph, random_strongly_connected

from common import chain, clique, cycle, edgeless, loop_vertex, with_comments


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
    assert sccs_within(g, g.vertices) == [frozenset({0, 1}), frozenset({2, 3})]


def test_scc_tie_break_is_smallest_vertex_id():
    # Incomparable singletons: order falls back to vertex ids.
    assert sccs_within(edgeless(3), range(3)) == [frozenset({0}), frozenset({1}), frozenset({2})]
    g = Digraph.from_edges(4, [(3, 2), (2, 3), (1, 0), (0, 1)])
    assert sccs_within(g, g.vertices) == [frozenset({0, 1}), frozenset({2, 3})]


def test_scc_respects_all_cross_edges():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 9)
        g = Digraph.from_edges(
            n, [(u, v) for u in range(n) for v in range(n)
                if rng.random() < 0.3])
        comps = sccs_within(g, g.vertices)
        assert sorted(v for c in comps for v in c) == list(range(n))
        index = {v: i for i, c in enumerate(comps) for v in c}
        for u, v in g.edges:
            assert index[u] <= index[v]


def test_nontrivial_sccs():
    g = Digraph.from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
    assert nontrivial_sccs_within(g, g.vertices) == [frozenset({0, 1})]
    assert nontrivial_sccs_within(loop_vertex(), {0}) == [frozenset({0})]
    assert nontrivial_sccs_within(chain(3), range(3)) == []


def test_nontrivial_sccs_match_filtered_sccs():
    # One nontrivial component or none skips the ordering; the vertices
    # come as a one-shot generator, so neither path may read them twice.
    rng = random.Random(151)
    seen = set()
    for _ in range(600):
        n = rng.randint(0, 14)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.05, 0.4),
                           allow_loops=True)
        sub = [v for v in range(n) if rng.random() < 0.7]
        want = [c for c in sccs_within(g, sub) if is_nontrivial_component(g, c)]
        assert nontrivial_sccs_within(g, (v for v in sub)) == want, (g.edges, sub)
        seen.add(min(len(want), 2))
    assert seen == {0, 1, 2}


def test_sccs_within_restricts_to_the_induced_subgraph():
    g = cycle(4)
    assert sccs_within(g, {0, 1, 2}) == [
        frozenset({0}), frozenset({1}), frozenset({2})]


@pytest.mark.parametrize("fn", [sccs_within, nontrivial_sccs_within])
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


def brute_force_cuts(g, comp):
    """v -> the vertices of comp - v that are not both reached from and
    reaching comp's least vertex r inside comp - v; all of comp - r for r."""
    r = (comp & -comp).bit_length() - 1
    cuts = {}
    for v in range(g.n):
        if comp >> v & 1:
            rest = comp & ~(1 << v)
            cuts[v] = rest if v == r else rest & ~(reach_mask(g.succ_masks, rest, r)
                                                   & reach_mask(g.pred_masks, rest, r))
    return cuts


def test_cut_masks_match_brute_force():
    # Small graphs of every density, then outdegree-3 graphs of the sizes
    # crank_approx is benchmarked on, whose dominator trees run deeper.
    rng = random.Random(113)
    for i in range(306):
        if i < 300:
            n = rng.randint(1, 12)
            max_outdeg = rng.choice([None, 2, 3])
        else:
            n, max_outdeg = rng.randint(60, 100), 3
        g = random_strongly_connected(
            rng, n, max_outdeg=max_outdeg,
            extra_prob=rng.uniform(0.05, 0.5), allow_loops=True)
        full = (1 << n) - 1
        # the whole graph, then the components left after deleting the
        # top vertex, which have edges to and from outside the mask
        comps = [full, *scc_mask_partition(g.succ_masks, g.pred_masks, full >> 1)]
        for comp in comps:
            assert cut_masks(g, comp) == brute_force_cuts(g, comp), (g.edges, comp)


def test_dominator_sets_match_definition():
    # v dominates w from r exactly when v is r or w, or deleting v cuts w
    # off from r; checked in each direction, with the keys in
    # breadth-first order from r.
    rng = random.Random(131)
    for _ in range(120):
        n = rng.randint(1, 60)
        g = random_strongly_connected(
            rng, n, max_outdeg=rng.choice([None, 1, 2, 3]),
            extra_prob=rng.uniform(0.0, 0.3), allow_loops=True)
        full = (1 << n) - 1
        for comp in [full, *scc_mask_partition(g.succ_masks, g.pred_masks, full >> 1)]:
            r = rng.choice([v for v in range(n) if comp >> v & 1])
            for succ, preds in [(g.succ_masks, g.pred), (g.pred_masks, g.succ)]:
                reached = {v: reach_mask(succ, comp & ~(1 << v), r)
                           for v in range(n) if v != r and comp >> v & 1}
                expected = {}
                for w in range(n):
                    if comp >> w & 1:
                        expected[w] = (1 << r | 1 << w) | mask_of(
                            v for v, seen in reached.items() if not seen >> w & 1)
                dom = _dominator_sets(succ, preds, comp, r)
                assert dom == expected, (g.edges, comp, r)
                dist, layer, d = {}, 1 << r, 0
                while layer:
                    dist.update(dict.fromkeys(bits(layer), d))
                    layer = mask_of(u for v in bits(layer) for u in bits(succ[v]))
                    layer &= comp & ~mask_of(dist)
                    d += 1
                assert [dist[v] for v in dom] == sorted(dist.values())


@pytest.mark.parametrize("g, saps, cuts", [
    (cycle(2), set(), {0: {1}, 1: set()}),
    # deleting any v != 0 leaves a path, and 0 alone is a component
    (cycle(5), set(range(5)), {v: set(range(1, 5)) - {v} for v in range(5)}),
    (clique(5), set(), {0: set(range(1, 5)), **{v: set() for v in range(1, 5)}}),
    # two 2-cycles through the root 0
    (Digraph.from_edges(3, [(0, 1), (1, 0), (0, 2), (2, 0)]), {0},
     {0: {1, 2}, 1: set(), 2: set()}),
    # two 3-cycles through 0: deleting 1 cuts off 2, and so on
    (Digraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),
     set(range(5)), {0: {1, 2, 3, 4}, 1: {2}, 2: {1}, 3: {4}, 4: {3}}),
    (loop_vertex(), set(), {0: set()}),
], ids=["2-cycle", "cycle", "clique", "two-2-cycles-at-root",
        "two-3-cycles-at-root", "loop"])
def test_strong_articulation_points_pinned(g, saps, cuts):
    # A vertex v != 0 splits the graph exactly when its cut mask is
    # nonempty; the root 0 splits it when the rest is not one component.
    full = (1 << g.n) - 1
    cut = cut_masks(g, full)
    assert cut == {v: mask_of(c) for v, c in cuts.items()}
    rest = list(scc_mask_partition(g.succ_masks, g.pred_masks, cut[0]))
    assert {v for v, c in cut.items() if c and v} | ({0} if len(rest) > 1 else set()) == saps


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
    # The full error texts.
    for text, message in [
            ("digraph x\n", "line 1: bad vertex count 'x'"),
            ("digraph 2\n0 1 2\n", "line 2: expected '<u> <v>', got '0 1 2'"),
            ("digraph 2\n  0 1 2  # a note\n", "line 2: expected '<u> <v>', got '0 1 2'"),
            ("digraph 2\n0 x\n", "line 2: bad edge '0 x'")]:
        with pytest.raises(ParseError) as info:
            parse_digraph(text)
        assert str(info.value) == message


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs_with_subsets(), st.data())
def test_text_round_trip_with_comments(case, data):
    g, _ = case
    text = serialize_digraph(g)
    parsed = parse_digraph(with_comments(data, text))
    assert parsed == g
    assert serialize_digraph(parsed) == text


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
