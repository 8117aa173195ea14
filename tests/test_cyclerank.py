"""Exact cycle rank, subset census, and the census growth bound.

crank_bruteforce is the oracle here: a literal, unoptimized transcription
of the defining recursion.  Everything faster is checked against it.
"""

import hashlib
import itertools
import random

import pytest

from digrank import (
    CapacityError,
    Digraph,
    ResourceLimitError,
    count_sc_subsets,
    crank_bruteforce,
    crank_exact,
    induced,
    sc_subset_bound,
    validate_forest,
)
from digrank import cyclerank
from digrank.cyclerank import count_sc_subsets_bruteforce
from digrank.digraph import reach_mask
from digrank.elimination import height, serialize_forest
from digrank.generate import (
    random_bounded_outdegree,
    random_digraph,
    random_strongly_connected,
)

from common import bidirected_path, chain, clique, cycle, edgeless, loop_vertex


def all_graphs(n, loops=True):
    pairs = [(u, v) for u in range(n) for v in range(n) if loops or u != v]
    for k in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, k):
            yield Digraph.from_edges(n, combo)


def test_bruteforce_pinned_values():
    assert crank_bruteforce(chain(3)) == 0
    assert crank_bruteforce(cycle(4)) == 1
    assert crank_bruteforce(clique(3)) == 2
    assert crank_bruteforce(loop_vertex()) == 1
    assert crank_bruteforce(edgeless(0)) == 0


def test_bruteforce_full_cliques():
    # Deleting any vertex of K_n leaves K_{n-1}.
    for n in range(1, 6):
        assert crank_bruteforce(clique(n)) == n - 1


def test_exact_pinned_values():
    assert crank_exact(chain(3)).value == 0
    assert crank_exact(cycle(4)).value == 1
    assert crank_exact(clique(3)).value == 2
    assert crank_exact(loop_vertex()).value == 1


def test_exact_disjoint_cycles_take_the_max():
    two_triangles = Digraph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert crank_exact(two_triangles).value == 1


def test_exact_matches_bruteforce_exhaustively_n3():
    for g in all_graphs(3):
        assert crank_exact(g).value == crank_bruteforce(g)


def test_exact_matches_bruteforce_random():
    rng = random.Random(11)
    for _ in range(120):
        g = random_digraph(rng, rng.randrange(1, 9), edge_prob=rng.uniform(0.1, 0.5))
        assert crank_exact(g).value == crank_bruteforce(g)


def test_exact_witness_is_valid_and_tight():
    rng = random.Random(13)
    for _ in range(80):
        g = random_digraph(rng, rng.randrange(1, 9))
        res = crank_exact(g)
        assert validate_forest(g, res.witness) == []
        assert height(res.witness) == res.value


@pytest.mark.parametrize("n, value, memo_size, digest", [
    (15, 3, 95, "2f19c71a998c9d51042c6a7ad4191859a20fac1cbf1956a2c2d09581268de71c"),
    (16, 3, 187, "cf31bb9bece4bbd021114f0cefb1608f28af3d8f459377d83c128f4f821d3c9e"),
    (17, 3, 77, "cbe5dae3bcfc2a48e785529b6ff3c504c6661cddacde4356bb4331e514d4ec8b"),
])
def test_exact_witness_bytes_are_pinned(n, value, memo_size, digest):
    # Pins the smallest-pivot tie-break, which validity and height alone
    # do not fix, on the sparse sizes the benchmark solves.
    g = random_strongly_connected(random.Random(n), n, max_outdeg=2)
    res = crank_exact(g)
    assert (res.value, res.memo_size) == (value, memo_size)
    text = serialize_forest(res.witness)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_every_witness_pivot_is_the_least_optimal_one():
    # The oracle judges each node's pivot on its own scope, without the
    # memo: it must be the least x with 1 + crank(X - x) == crank(X).
    rng = random.Random(31)
    for _ in range(150):
        g = random_digraph(rng, rng.randrange(1, 9), edge_prob=rng.uniform(0.15, 0.6))
        todo = list(crank_exact(g).witness)
        while todo:
            node = todo.pop()
            scope = node.scope
            target = crank_bruteforce(induced(g, scope))
            least = min(x for x in scope
                        if 1 + crank_bruteforce(induced(g, scope - {x})) == target)
            assert node.pivot == least, (g.edges, scope)
            todo.extend(node.children)


def test_deletion_never_increases_crank():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randrange(2, 8)
        g = random_digraph(rng, n)
        base = crank_exact(g).value
        for v in range(n):
            rest = induced(g, set(range(n)) - {v})
            assert crank_exact(rest).value <= base


def test_memo_size_bounded_by_nontrivial_census():
    rng = random.Random(19)
    for _ in range(40):
        g = random_digraph(rng, rng.randrange(1, 10))
        res = crank_exact(g)
        assert res.memo_size <= count_sc_subsets(g).nontrivial
        assert res.elapsed >= 0.0


def test_memo_limit_raises_resource_error():
    with pytest.raises(ResourceLimitError):
        crank_exact(clique(8), memo_limit=5)


def test_capacity_limits():
    with pytest.raises(CapacityError):
        crank_bruteforce(edgeless(11))
    with pytest.raises(CapacityError):
        crank_exact(edgeless(65))


def test_census_pinned_values():
    assert count_sc_subsets(cycle(3)).nontrivial == 1
    assert count_sc_subsets(cycle(3)).total == 4
    assert count_sc_subsets(clique(3)).nontrivial == 4
    assert count_sc_subsets(clique(3)).total == 7
    assert count_sc_subsets(loop_vertex()).nontrivial == 1
    assert count_sc_subsets(loop_vertex()).total == 1
    for n in (0, 1, 4):
        census = count_sc_subsets(edgeless(n))
        assert (census.nontrivial, census.total) == (0, n)


def test_census_matches_bruteforce():
    for g in all_graphs(3):
        assert count_sc_subsets(g) == count_sc_subsets_bruteforce(g)
    rng = random.Random(23)
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(1, 9))
        assert count_sc_subsets(g) == count_sc_subsets_bruteforce(g)
    # Sparse graphs leave the root's component short of the required set
    # most often, so they exercise the dropped nodes of the search.
    rng = random.Random(31)
    for _ in range(300):
        g = random_digraph(rng, rng.randrange(1, 12), edge_prob=rng.uniform(0.05, 0.7),
                           allow_loops=rng.random() < 0.5)
        assert count_sc_subsets(g) == count_sc_subsets_bruteforce(g)


def test_census_sweeps_twice_per_counted_set_on_bidirected_paths(monkeypatch):
    # On a bidirected path no node of the search is dropped, so it takes
    # exactly two reach_mask sweeps per strongly connected set it counts.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return reach_mask(*args)

    monkeypatch.setattr(cyclerank, "reach_mask", counted)
    for n in range(10, 31):
        calls = 0
        census = count_sc_subsets(bidirected_path(n))
        assert census.total == n * (n + 1) // 2
        assert calls == 2 * census.total


def test_growth_bound_pinned_values():
    # (2^3 - 1)^(3/3) + 3; floating point lands a hair under 10.
    assert sc_subset_bound(3, 2) == pytest.approx(10.0)
    assert sc_subset_bound(0, 2) == 1.0
    assert sc_subset_bound(0, 5) == 1.0


def test_growth_bound_covers_bounded_outdegree_census():
    rng = random.Random(29)
    for n in (8, 10, 12):
        for _ in range(25):
            g = random_bounded_outdegree(rng, n, 2)
            census = count_sc_subsets(g)
            assert census.total <= sc_subset_bound(n, 2) + 1e-6


def test_growth_bound_rejects_bad_arguments():
    from digrank import InputError
    with pytest.raises(InputError):
        sc_subset_bound(-1, 2)
    with pytest.raises(InputError):
        sc_subset_bound(3, 0)
