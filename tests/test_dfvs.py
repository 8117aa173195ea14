"""Feedback vertex sets through maximal acyclic subsets.

The oracle enumerates all 2^n induced subgraphs and keeps the acyclic
ones; maximality and minimality are then set comparisons.  Everything the
module computes is cross-checked against that at small n.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from digrank import (
    Digraph,
    InputError,
    ResourceLimitError,
    is_acyclic,
    is_dfvs,
    induced,
    maximal_acyclic_subsets,
    min_dfvs,
    minimal_dfvs_enumerate,
)
from digrank.bitsets import bits, set_of
from digrank.dfvs import (
    _cycle_packing, _feedback_masks, _least_feedback_mask, _lex_below,
    _loop_free_core, _shortest_cycle)
from digrank.digraph import core_mask, format_vertex_set, nontrivial_sccs_within
from digrank.generate import random_digraph, random_strongly_connected

from common import chain, clique, cycle, edgeless, loop_vertex


def acyclic_subsets_bruteforce(g):
    ok = [frozenset(c)
          for r in range(g.n + 1)
          for c in itertools.combinations(range(g.n), r)
          if is_acyclic(induced(g, c))]
    return [a for a in ok if not any(a < b for b in ok)]


def as_sorted(sets):
    return sorted(sets, key=sorted)


def test_is_dfvs_pinned():
    assert is_dfvs(cycle(4), {0})
    assert not is_dfvs(clique(3), {0})
    assert is_dfvs(chain(4), frozenset())
    assert is_dfvs(loop_vertex(), {0})
    assert not is_dfvs(loop_vertex(), frozenset())


def test_is_dfvs_range_check():
    with pytest.raises(InputError):
        is_dfvs(cycle(3), {0, 5})


def test_maximal_acyclic_c3():
    assert maximal_acyclic_subsets(cycle(3)) == [
        frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]


def test_maximal_acyclic_trivial_cases():
    assert maximal_acyclic_subsets(chain(3)) == [frozenset({0, 1, 2})]
    assert maximal_acyclic_subsets(loop_vertex()) == [frozenset()]
    assert maximal_acyclic_subsets(edgeless(0)) == [frozenset()]


def test_maximal_acyclic_matches_bruteforce(monkeypatch):
    # The enumerator's search has no depth bound, so a packing could cut
    # nothing; it branches on one shortest cycle per node instead.
    def refuse(g, core):
        raise AssertionError("minimal_dfvs_enumerate packed cycles")

    monkeypatch.setattr("digrank.dfvs._cycle_packing", refuse)
    rng = random.Random(71)
    for _ in range(120):
        n = rng.randrange(1, 8)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.6))
        got = maximal_acyclic_subsets(g)
        assert got == as_sorted(got)  # canonical order, no duplicates
        assert got == as_sorted(acyclic_subsets_bruteforce(g))


def test_enumeration_cap():
    # The error carries the count collected at the moment of the abort,
    # which is the first to overflow the cap.
    with pytest.raises(ResourceLimitError) as info:
        maximal_acyclic_subsets(cycle(3), cap=2)
    assert info.value.partial == 3


def test_minimal_dfvs_c3():
    assert minimal_dfvs_enumerate(cycle(3)) == [
        frozenset({0}), frozenset({1}), frozenset({2})]


def test_minimal_dfvs_are_complements_of_maximal_acyclic():
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randrange(1, 8)
        g = random_digraph(rng, n)
        full = frozenset(range(n))
        maximal = set(maximal_acyclic_subsets(g))
        minimal = set(minimal_dfvs_enumerate(g))
        assert minimal == {full - a for a in maximal}
        assert maximal == {full - s for s in minimal}


def test_minimal_dfvs_really_are_minimal():
    rng = random.Random(79)
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(1, 8))
        for s in minimal_dfvs_enumerate(g):
            assert is_dfvs(g, s)
            for v in s:
                assert not is_dfvs(g, s - {v})


def test_min_dfvs_pinned():
    res = min_dfvs(cycle(3))
    assert res.minimum_size == 1
    assert res.minimum_set == frozenset({0})  # lexicographic tie
    assert res.forced == frozenset()

    assert min_dfvs(clique(3)).minimum_size == 2
    assert min_dfvs(chain(4)).minimum_set == frozenset()
    assert min_dfvs(loop_vertex()).forced == frozenset({0})


def min_dfvs_bruteforce(g):
    # combinations come by size, then lexicographically: the first
    # feedback set is the tie-break winner
    return next(frozenset(c) for r in range(g.n + 1)
                for c in itertools.combinations(range(g.n), r)
                if is_dfvs(g, frozenset(c)))


def test_min_dfvs_matches_subset_bruteforce():
    rng = random.Random(83)
    for _ in range(80):
        n = rng.randrange(1, 9)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.6),
                           allow_loops=True)
        best = min_dfvs_bruteforce(g)
        res = min_dfvs(g)
        assert res.minimum_size == len(best)
        assert res.minimum_set == best
        assert res.forced <= res.minimum_set


def tie_heavy_digraph(rng):
    """A disjoint union of 2-cycles, 3-cycles and bidirected triangles on
    at most 10 vertices, labels randomly permuted: every vertex lies in
    some minimum feedback set, so minimum sets tie in large numbers."""
    pieces = [(2, [(0, 1), (1, 0)]),
              (3, [(0, 1), (1, 2), (2, 0)]),
              (3, [(u, v) for u in range(3) for v in range(3) if u != v])]
    edges, n = [], 0
    while True:
        size, piece = rng.choice(pieces)
        if n + size > 10:
            break
        edges += [(n + u, n + v) for u, v in piece]
        n += size
        if rng.random() < 0.2:
            break
    label = list(range(n))
    rng.shuffle(label)
    return Digraph.from_edges(n, [(label[u], label[v]) for u, v in edges])


def test_min_dfvs_tie_heavy_matches_bruteforce(monkeypatch):
    # On these graphs the least-first descent never meets a packing cut,
    # so at the minimum size it reaches the least set at its first leaf,
    # and the bound then cuts every sibling left on the stack before any
    # packing: the round packs once per deleted vertex, and not at the
    # leaf, whose core is empty.
    packings = []

    def counted(g, core):
        packings.append(core)
        return _cycle_packing(g, core)

    monkeypatch.setattr("digrank.dfvs._cycle_packing", counted)
    rng = random.Random(101)
    for _ in range(300):
        g = tie_heavy_digraph(rng)
        best = min_dfvs_bruteforce(g)
        assert min_dfvs(g).minimum_set == best
        packings.clear()
        assert _least_feedback_mask(g, len(best)) == sum(1 << v for v in best)
        assert len(packings) == len(best)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 12).flatmap(lambda r: st.lists(
    st.sets(st.integers(0, 20), min_size=r, max_size=r), min_size=2, max_size=2)))
def test_mask_order_is_sorted_tuple_order(pair):
    a, b = pair
    ma, mb = (sum(1 << v for v in s) for s in pair)
    assert _lex_below(ma, mb) == (sorted(a) < sorted(b))


def test_core_keeps_every_cycle_vertex():
    rng = random.Random(89)
    for _ in range(150):
        n = rng.randrange(1, 10)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.5),
                           allow_loops=True)
        succ, pred, full = g.succ_masks, g.pred_masks, (1 << n) - 1
        core = core_mask(succ, pred, full, full)
        on_cycle = frozenset().union(*nontrivial_sccs_within(g, range(n)))
        assert on_cycle <= {v for v in range(n) if core >> v & 1}
        for v in range(n):
            if core >> v & 1:
                assert succ[v] & core and pred[v] & core
                # What the search relies on: core(R - v) = core(core(R) - v),
                # peeling only v's neighbours.
                vbit = 1 << v
                assert (core_mask(succ, pred, core ^ vbit, succ[v] | pred[v])
                        == core_mask(succ, pred, full ^ vbit, full ^ vbit))
        for _ in range(10):
            m = rng.randrange(1 << n)
            # The core is empty exactly when the submask is acyclic.
            assert ((core_mask(succ, pred, m, m) == 0)
                    == (not nontrivial_sccs_within(g, bits(m))))


def test_cycle_packing_is_a_lower_bound():
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randrange(1, 9)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.6),
                           allow_loops=True)
        full = (1 << n) - 1
        cycles = _cycle_packing(g, core_mask(g.succ_masks, g.pred_masks, full, full))
        assert len(cycles) <= len(min_dfvs_bruteforce(g))
        assert (not cycles) == is_dfvs(g, frozenset())
        used = [v for c in cycles for v in c]
        assert len(used) == len(set(used))  # vertex-disjoint simple cycles
        for c in cycles:
            assert all(g.has_edge(u, w) for u, w in zip(c, c[1:] + c[:1]))


def test_cycle_packing_picks_cycles_the_way_the_search_branches():
    # 0 -> 1 -> 2 -> 3 -> 0, each of those also -> 4, and 4 <-> 5: vertex 4
    # has outdegree 1 on a 2-cycle, but the least vertex on a cycle is 0.
    g = Digraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4),
                               (1, 4), (2, 4), (3, 4), (4, 5), (5, 4)])
    full = (1 << 6) - 1
    assert (_cycle_packing(g, core_mask(g.succ_masks, g.pred_masks, full, full))
            == [[0, 1, 2, 3], [4, 5]])
    rng = random.Random(109)
    for _ in range(200):
        n = rng.randrange(1, 10)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.5),
                           allow_loops=True)
        on_cycle = frozenset().union(*nontrivial_sccs_within(g, range(n)))
        full = (1 << n) - 1
        cycles = _cycle_packing(g, core_mask(g.succ_masks, g.pred_masks, full, full))
        assert (cycles[0][0] if cycles else None) == min(on_cycle, default=None)


def loop_heavy_digraph(rng):
    """At most 8 vertices, about half of them with a loop, sparse edges."""
    n = rng.randrange(1, 9)
    p = rng.uniform(0.05, 0.4)
    return Digraph.from_edges(n, [(u, v) for u in range(n) for v in range(n)
                                  if rng.random() < (0.5 if u == v else p)])


def test_least_feedback_mask_finds_nothing_below_the_minimum():
    # Loop vertices alone: the root's k - |X| is negative for k below their
    # number, and the core is already empty there.
    g = Digraph.from_edges(2, [(0, 0), (1, 1)])
    assert [_least_feedback_mask(g, k) for k in range(3)] == [None, None, 3]
    rng = random.Random(113)
    for _ in range(200):
        g = loop_heavy_digraph(rng)
        best = min_dfvs_bruteforce(g)
        for k in range(len(best)):
            assert _least_feedback_mask(g, k) is None
        assert _least_feedback_mask(g, len(best)) == sum(1 << v for v in best)


def test_feedback_mask_leaves_are_distinct_feedback_sets():
    rng = random.Random(107)
    for _ in range(120):
        n = rng.randrange(1, 9)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.6),
                           allow_loops=True)
        leaves = [set_of(x) for x in _feedback_masks(g, _loop_free_core(g), lambda *node: False)]
        assert len(leaves) == len(set(leaves))
        assert all(is_dfvs(g, s) for s in leaves)


def count_cycle_searches(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _shortest_cycle(*args)

    monkeypatch.setattr("digrank.dfvs._shortest_cycle", counted)
    return calls


def test_enumerate_excludes_loop_vertices_at_the_root(monkeypatch):
    # Gadgets a < w < b with a -> w -> b -> a and a loop at w.  Branching
    # on the triangle through a before deleting w would try a, w and b in
    # every gadget, about 3^j nodes; the root deletes every w instead.
    j = 12
    edges = [e for i in range(j) for a, w, b in [(3 * i, 3 * i + 1, 3 * i + 2)]
             for e in [(a, w), (w, b), (b, a), (w, w)]]
    g = Digraph.from_edges(3 * j, edges)
    calls = count_cycle_searches(monkeypatch)
    assert minimal_dfvs_enumerate(g) == [frozenset(range(1, 3 * j, 3))]
    assert len(calls) < 2 * j


def gadgets(j):
    """j gadgets a < w1 < w2 < b with a -> w1 <-> w2 -> b -> a, and their
    2^j minimal feedback sets, one of w1, w2 per gadget."""
    edges = [e for i in range(j)
             for a, w1, w2, b in [(4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3)]
             for e in [(a, w1), (w1, w2), (w2, w1), (w2, b), (b, a)]]
    sets = as_sorted(frozenset(c) for c in itertools.product(
        *[(4 * i + 1, 4 * i + 2) for i in range(j)]))
    return Digraph.from_edges(4 * j, edges), sets


def test_enumerate_drops_nodes_with_a_forbidden_cycle(monkeypatch):
    # The child deleting b forbids the 2-cycle w1 <-> w2, so it is dead at
    # once; the children of the one deleting a are cut, as a is redundant
    # once w1 or w2 is deleted too.  Neither reaches the later gadgets.
    j = 6
    g, sets = gadgets(j)
    calls = count_cycle_searches(monkeypatch)
    assert minimal_dfvs_enumerate(g) == sets
    assert len(calls) <= 2 ** (j + 1) - 2


def test_enumerate_cuts_redundant_deletions(monkeypatch):
    # Filtering the leaves for minimality instead of cutting redundant
    # deletions takes 2 * (4^j - 1) / 3 cycle searches here, 699 050 at
    # j = 10; the cut keeps them linear in the 2^j sets.
    g, sets = gadgets(10)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 2 ** 11:
            raise AssertionError("search grows past 2^11 cycle searches")
        return _shortest_cycle(*args)

    monkeypatch.setattr("digrank.dfvs._shortest_cycle", counted)
    got = minimal_dfvs_enumerate(g)
    assert len(got) == 1024
    assert got == sets


def test_min_dfvs_digest_is_pinned():
    # Computed before the cycle-packing bound replaced the plain cycle
    # search; the sets cannot depend on which cycle the search branches on.
    h = hashlib.sha256()
    for s in range(40):
        res = min_dfvs(random_strongly_connected(random.Random(s), 14 + s % 8,
                                                 max_outdeg=3))
        h.update(f"{res.minimum_size} {format_vertex_set(res.minimum_set)}\n".encode())
    assert h.hexdigest() == (
        "3d311a649ab48f0dfd7cf3b6d1959bbb544e44150038212cbdc8d53db4e589ce")


def test_minimal_dfvs_digest_is_pinned():
    rng = random.Random(2027)
    h = hashlib.sha256()
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.5),
                           allow_loops=True)
        for s in minimal_dfvs_enumerate(g):
            h.update(format_vertex_set(s).encode())
        h.update(b"\n")
    assert h.hexdigest() == (
        "5e9587d63980de04239613d1d36e7896eb48c4a60c8c034b60009ad756a539f7")


def test_minimal_dfvs_digest_is_pinned_larger():
    # 2 980 minimal sets of strongly connected graphs with n = 14-17,
    # beyond the brute-force sizes of the pin above.
    h = hashlib.sha256()
    for s in range(30):
        g = random_strongly_connected(random.Random(s), 14 + s % 4, max_outdeg=3)
        for x in minimal_dfvs_enumerate(g):
            h.update(format_vertex_set(x).encode())
        h.update(b"\n")
    assert h.hexdigest() == (
        "965cc3a756972c64748b77839d7eff5c089c3a627c1a354441853c1a06c6e386")


@pytest.mark.parametrize("n,size,best", [
    (18, 5, {6, 8, 10, 12, 13}),
    (20, 6, {0, 1, 8, 12, 15, 16}),
    (22, 6, {1, 2, 5, 8, 11, 13}),
    (24, 7, {0, 1, 5, 7, 16, 19, 23}),
    (28, 8, {0, 1, 3, 4, 12, 13, 23, 24}),
    (32, 10, {0, 4, 5, 8, 9, 10, 14, 18, 21, 24}),
])
def test_min_dfvs_pinned_larger(n, size, best):
    # The first four graphs have 2, 12, 2 and 15 minimum sets, so the pins
    # also guard the lexicographic tie-break beyond the brute-force sizes.
    # n = 32 took 14 s under the plain cycle search, 0.8 s when the
    # packing-bounded search listed every minimum set, and 0.16 s by
    # branch and bound (Python 3.11, 2-vCPU Linux VM).
    res = min_dfvs(random_strongly_connected(random.Random(n), n, max_outdeg=3))
    assert res.minimum_size == size
    assert res.minimum_set == frozenset(best)
    assert res.forced == frozenset()
