"""Feedback vertex sets through maximal acyclic subsets.

The oracle enumerates all 2^n induced subgraphs and keeps the acyclic
ones; maximality and minimality are then set comparisons.  Everything the
module computes is cross-checked against that at small n.
"""

import itertools
import random

import pytest

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


def test_maximal_acyclic_matches_bruteforce():
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


def test_min_dfvs_matches_subset_bruteforce():
    rng = random.Random(83)
    for _ in range(80):
        n = rng.randrange(1, 9)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.6),
                           allow_loops=True)
        # combinations come by size, then lexicographically: the first
        # feedback set is the tie-break winner
        best = next(frozenset(c) for r in range(n + 1)
                    for c in itertools.combinations(range(n), r)
                    if is_dfvs(g, frozenset(c)))
        res = min_dfvs(g)
        assert res.minimum_size == len(best)
        assert res.minimum_set == best
        assert res.forced <= res.minimum_set


@pytest.mark.parametrize("n,size,best", [
    (18, 5, {6, 8, 10, 12, 13}),
    (20, 6, {0, 1, 8, 12, 15, 16}),
    (22, 6, {1, 2, 5, 8, 11, 13}),
    (24, 7, {0, 1, 5, 7, 16, 19, 23}),
])
def test_min_dfvs_pinned_larger(n, size, best):
    # These graphs have 2, 12, 2 and 15 minimum sets, so the pins also
    # guard the lexicographic tie-break beyond the brute-force sizes.
    res = min_dfvs(random_strongly_connected(random.Random(n), n, max_outdeg=3))
    assert res.minimum_size == size
    assert res.minimum_set == frozenset(best)
    assert res.forced == frozenset()
