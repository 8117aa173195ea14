"""Separator-based cycle rank approximation."""

import hashlib
import random

import pytest

from digrank import (
    ApproxConfig,
    Digraph,
    EliminationForest,
    EliminationNode,
    InputError,
    crank_approx,
    crank_exact,
    find_balanced_separator,
    validate_forest,
)
from digrank.approx import extend_forest
from digrank.digraph import sccs_within
from digrank.elimination import height, serialize_forest
from digrank.generate import random_digraph, random_strongly_connected

from common import chain, clique, cycle, loop_vertex


def residual_sccs_small(g, w, s, bound):
    return all(len(c) <= bound for c in sccs_within(g, frozenset(w) - s))


def test_separator_c4():
    s = find_balanced_separator(cycle(4), frozenset(range(4)))
    assert len(s) == 1
    assert residual_sccs_small(cycle(4), range(4), s, 3)


def test_separator_single_loop_vertex():
    assert find_balanced_separator(loop_vertex(), {0}) == {0}


def test_separator_k5_one_vertex_suffices():
    # Residual K_4 has one SCC of size 4 = ceil(15/4).
    s = find_balanced_separator(clique(5), frozenset(range(5)))
    assert len(s) == 1


def test_separator_greedy_mode_is_feasible():
    cfg = ApproxConfig(separator_mode="greedy")
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randrange(2, 10)
        g = random_digraph(rng, n)
        s = find_balanced_separator(g, frozenset(range(n)), cfg)
        assert s
        assert residual_sccs_small(g, range(n), s, -(-3 * n // 4))


def test_separator_input_errors():
    with pytest.raises(InputError):
        find_balanced_separator(cycle(3), frozenset())
    with pytest.raises(InputError):
        find_balanced_separator(cycle(3), {0, 7})


def test_extend_forest_closing_a_cycle():
    # 1 -> 2 alone is acyclic; adding 0 with 0 -> 1 and 2 -> 0 closes it.
    g = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    out = extend_forest(g, {1, 2}, frozenset(), 0, EliminationForest())
    assert out == EliminationForest(
        (EliminationNode(0, frozenset({0, 1, 2})),))
    assert validate_forest(g, out) == []


def test_extend_forest_no_new_cycle():
    g = chain(3)
    out = extend_forest(g, {1, 2}, frozenset(), 0, EliminationForest())
    assert out == EliminationForest()


def test_extend_forest_carries_disjoint_trees():
    # s = 4 is isolated; the two 2-cycles keep their trees.
    g = Digraph.from_edges(5, [(0, 1), (1, 0), (2, 3), (3, 2)])
    t0 = EliminationNode(0, frozenset({0, 1}))
    t2 = EliminationNode(2, frozenset({2, 3}))
    forest = EliminationForest((t0, t2))
    out = extend_forest(g, {0, 1, 2, 3}, frozenset(), 4, forest)
    assert out == forest


def test_extend_forest_merges_across_components():
    # 0 bridges the two 2-cycles into one strongly connected set.
    g = Digraph.from_edges(
        5, [(1, 2), (2, 1), (3, 4), (4, 3), (0, 1), (2, 3), (4, 0)])
    t1 = EliminationNode(1, frozenset({1, 2}))
    t3 = EliminationNode(3, frozenset({3, 4}))
    out = extend_forest(g, {1, 2, 3, 4}, frozenset(), 0,
                        EliminationForest((t1, t3)))
    assert len(out) == 1
    root = out.trees[0]
    assert root.pivot == 0
    assert root.scope == frozenset(range(5))
    assert set(root.children) == {t1, t3}
    assert validate_forest(g, out) == []


def test_extend_forest_preserves_validity():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randrange(2, 9)
        g = random_digraph(rng, n)
        s = rng.randrange(n)
        base = frozenset(range(n)) - {s}
        inner = crank_exact(
            Digraph.from_edges(n, [(u, v) for u, v in g.edges
                                   if u != s and v != s])).witness
        assert validate_forest(g, inner, base) == []
        out = extend_forest(g, base, frozenset(), s, inner)
        assert validate_forest(g, out) == []


def test_extend_forest_input_errors():
    g = cycle(3)
    with pytest.raises(InputError):
        extend_forest(g, {0, 1}, frozenset(), 1, EliminationForest())
    with pytest.raises(InputError):
        extend_forest(g, {0, 1}, frozenset(), 9, EliminationForest())
    bad = EliminationForest((EliminationNode(0, frozenset({0, 1})),))
    with pytest.raises(InputError):
        extend_forest(g, {0, 1}, frozenset(), 2, bad)


def test_approx_acyclic_is_empty():
    res = crank_approx(chain(5))
    assert res.forest == EliminationForest()
    assert res.height == 0


def test_approx_pinned_small_cases():
    assert crank_approx(cycle(4)).height >= 1
    assert crank_approx(clique(3)).height >= 2
    for g in (cycle(4), clique(3)):
        res = crank_approx(g)
        assert validate_forest(g, res.forest) == []


def test_approx_always_valid_and_above_exact():
    rng = random.Random(61)
    for _ in range(50):
        n = rng.randrange(1, 14)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.5))
        for cfg in (ApproxConfig(), ApproxConfig(base_threshold=1),
                    ApproxConfig(base_threshold=1, separator_mode="greedy")):
            res = crank_approx(g, cfg)
            assert validate_forest(g, res.forest) == []
            assert height(res.forest) == res.height
            assert res.height >= crank_exact(g).value


def test_approx_is_deterministic():
    rng = random.Random(67)
    for _ in range(10):
        g = random_digraph(rng, 12, edge_prob=0.25)
        cfg = ApproxConfig(base_threshold=2)
        assert crank_approx(g, cfg) == crank_approx(g, cfg)


@pytest.mark.parametrize("n, digest", [
    (60, "fa079066709134698d856370e981f23f22ea4fac4d761713cdf15acbfa5e8b1f"),
    (100, "bad3bfd2b45d32aa5fc2b313b198298bba4363376b8b07067946a9984a843fac"),
    (150, "eefa4b1e96e3aa93a38831c9b014205121361d6311fd534d85a6dbe131946849"),
])
def test_approx_forest_bytes_are_pinned(n, digest):
    # Pins the canonical forest (pivots, child and root order), which
    # validity alone does not fix.
    g = random_strongly_connected(random.Random(n), n, max_outdeg=3)
    text = serialize_forest(crank_approx(g).forest)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_approx_separator_log_depths_grow_from_zero():
    g = clique(9)
    res = crank_approx(g, ApproxConfig(base_threshold=1))
    assert res.separator_log
    assert res.separator_log[0][0] == 0
    assert all(size >= 1 for _, size in res.separator_log)


def test_config_threshold_resolution():
    assert ApproxConfig().resolved_threshold(1) == 1
    assert ApproxConfig().resolved_threshold(16) == 8
    assert ApproxConfig(base_threshold=3).resolved_threshold(100) == 3
    with pytest.raises(InputError):
        ApproxConfig(base_threshold=0).resolved_threshold(5)
