"""Separator-based cycle rank approximation."""

import hashlib
import itertools
import random

import pytest

from digrank import (
    ApproxConfig,
    EliminationForest,
    InputError,
    crank_approx,
    crank_exact,
    find_balanced_separator,
    validate_forest,
)
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


def test_exact_separator_is_the_first_accepted_combination():
    # Oracle: residual_sccs_small over nonempty combinations, by size and
    # then lexicographically.
    rng = random.Random(59)
    for _ in range(150):
        n = rng.randrange(1, 11)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.5))
        w = frozenset(v for v in range(n) if rng.random() < 0.8) or {0}
        bound = -(-3 * len(w) // 4)
        first = next(
            frozenset(combo)
            for k in range(1, len(w) + 1)
            for combo in itertools.combinations(sorted(w), k)
            if residual_sccs_small(g, w, frozenset(combo), bound))
        assert find_balanced_separator(g, w) == first


def test_separator_input_errors():
    with pytest.raises(InputError):
        find_balanced_separator(cycle(3), frozenset())
    with pytest.raises(InputError):
        find_balanced_separator(cycle(3), {0, 7})


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


@pytest.mark.parametrize("n, digest, log_digest", [
    (60, "fa079066709134698d856370e981f23f22ea4fac4d761713cdf15acbfa5e8b1f",
     "08154009248f4727018bdeaa041aa1131e886f3d7547338f299e2e199781dc48"),
    (100, "bad3bfd2b45d32aa5fc2b313b198298bba4363376b8b07067946a9984a843fac",
     "b5ab09e9219a47e05fd7ad4a39f0ad59353139789233d311c18164df581dae7e"),
    (150, "eefa4b1e96e3aa93a38831c9b014205121361d6311fd534d85a6dbe131946849",
     "15ff8dea575e8809f1b41788b8e7909a64d74c52e2a8232b4b6929e593240fdc"),
])
def test_approx_forest_bytes_are_pinned(n, digest, log_digest):
    # Pins the canonical forest (pivots, child and root order), which
    # validity alone does not fix, and the separator log, whose order is
    # the order the pieces are solved in.
    g = random_strongly_connected(random.Random(n), n, max_outdeg=3)
    res = crank_approx(g)
    text = serialize_forest(res.forest)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    log = repr(res.separator_log)
    assert hashlib.sha256(log.encode()).hexdigest() == log_digest


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
