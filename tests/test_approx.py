"""Separator-based cycle rank approximation."""

import hashlib
import random

import pytest

from digrank import (
    Digraph,
    EliminationForest,
    EliminationNode,
    InputError,
    crank_approx,
    crank_exact,
    find_balanced_separator,
    induced,
    validate_forest,
)
from digrank.approx import EXACT_BASE_LIMIT, _base_tree, _resolve_threshold
from digrank.bitsets import bits, mask_of, set_of
from digrank.digraph import (cut_masks, nontrivial_sccs_within, scc_mask_partition,
                             sccs_within)
from digrank.elimination import height, serialize_forest
from digrank.generate import random_digraph, random_strongly_connected

from common import (bidirected_path, chain, clique, cycle,
                    least_pivot_path_forest, loop_vertex)


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
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randrange(2, 10)
        g = random_digraph(rng, n)
        s = find_balanced_separator(g, frozenset(range(n)))
        assert s
        assert residual_sccs_small(g, range(n), s, -(-3 * n // 4))


def reference_greedy_separator(g, w):
    """The greedy rule with every candidate scored by a partition: delete
    the vertex of a largest SCC whose removal leaves the smallest largest
    SCC, ties to the smallest id, until W - S is balanced."""
    bound = -(-3 * len(w) // 4)
    chosen = 0
    rest = mask_of(w)
    while rest:
        comps = list(scc_mask_partition(g.succ_masks, g.pred_masks, rest))
        largest = max(c.bit_count() for c in comps)
        if chosen and largest <= bound:
            break
        candidates = sum(c for c in comps if c.bit_count() == largest)

        def after(v):
            return max((c.bit_count() for c in scc_mask_partition(
                g.succ_masks, g.pred_masks, rest & ~(1 << v))), default=0)

        best_v = min(bits(candidates), key=lambda v: (after(v), v))
        chosen |= 1 << best_v
        rest &= ~(1 << best_v)
    return set_of(chosen)


def random_blocks(rng):
    """Strongly connected blocks of 1-5 vertices under shuffled ids, with
    edges only from earlier blocks to later ones, so the blocks are the
    SCCs and several of them often share the largest size."""
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
    ids = list(range(sum(sizes)))
    rng.shuffle(ids)
    edges = []
    placed = []
    for k in sizes:
        block, ids = ids[:k], ids[k:]
        h = random_strongly_connected(rng, k, extra_prob=rng.uniform(0.05, 0.5),
                                      allow_loops=True)
        edges += [(block[a], block[b]) for a, b in h.edges]
        edges += [(u, v) for u in placed for v in block if rng.random() < 0.1]
        placed += block
    return Digraph.from_edges(len(placed), edges)


def test_separator_matches_reference_greedy():
    # Strongly connected targets, and the whole vertex set, which may hold
    # several largest components at once.
    rng = random.Random(71)
    for i in range(300):
        if i % 2:
            g = random_blocks(rng)
        else:
            g = random_digraph(rng, rng.randrange(1, 15), edge_prob=rng.uniform(0.05, 0.5))
        for w in [*nontrivial_sccs_within(g, g.vertices), frozenset(g.vertices)]:
            if w:
                assert find_balanced_separator(g, w) == reference_greedy_separator(g, w), \
                    (g.edges, sorted(w))
    # Sparse strongly connected graphs have deeper dominator trees, so
    # both sides of the half-size rule occur: some cuts hold more than
    # half of C - v and are partitioned, others are skipped.
    partitioned = skipped = 0
    for _ in range(60):
        n = rng.randint(16, 40)
        g = random_strongly_connected(rng, n, max_outdeg=rng.choice([2, 3]))
        cuts = cut_masks(g, (1 << n) - 1)
        del cuts[0]  # the root's cut is all the rest, always partitioned
        for cut in cuts.values():
            if 2 * cut.bit_count() > n - 1:
                partitioned += 1
            elif cut:
                skipped += 1
        w = frozenset(g.vertices)
        assert find_balanced_separator(g, w) == reference_greedy_separator(g, w), g.edges
    assert partitioned and skipped


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
        for threshold in ("auto", 1):
            res = crank_approx(g, base_threshold=threshold)
            assert validate_forest(g, res.forest) == []
            assert height(res.forest) == res.height
            assert res.height >= crank_exact(g).value


def test_approx_is_deterministic():
    rng = random.Random(67)
    for _ in range(10):
        g = random_digraph(rng, 12, edge_prob=0.25)
        assert crank_approx(g, base_threshold=2) == crank_approx(g, base_threshold=2)


@pytest.mark.parametrize("n, digest, log_digest", [
    (12, "71425fc62c8bc173b0c49f9ab433d9ed1e05cda546688d89a8f21e4c29357f5c",
     "6597395ce8ed7d3cd6072c40ffbe8388eaf7f291811250bb9fe2c27fb43c4d93"),
    (14, "d79355746971a267f34b70147f1ad37cb886e921c1832b2a203206c662d6430b",
     "5fabe507a970ee92f279344236c097dc14dd971ea02711cedc68759b34e8abf5"),
    (30, "d0bb400417f7f2647ff56c30913cd297911158aba508a557d252b6532350f889",
     "fcdbbc1011f3df99a58ba57957cedd5689a12df2a7231b0c91b687483e26d76e"),
    (60, "fa079066709134698d856370e981f23f22ea4fac4d761713cdf15acbfa5e8b1f",
     "08154009248f4727018bdeaa041aa1131e886f3d7547338f299e2e199781dc48"),
    (100, "bad3bfd2b45d32aa5fc2b313b198298bba4363376b8b07067946a9984a843fac",
     "b5ab09e9219a47e05fd7ad4a39f0ad59353139789233d311c18164df581dae7e"),
    (150, "eefa4b1e96e3aa93a38831c9b014205121361d6311fd534d85a6dbe131946849",
     "15ff8dea575e8809f1b41788b8e7909a64d74c52e2a8232b4b6929e593240fdc"),
    (400, "457f7ffd6dbf71e30ccda2b05dddd1769f4f54f86122125f41c73e7fff92b4a6",
     "747dc2dff6657a9fc34455f6d79a56ddda415a26b6e46992279bc5b6b23b30fd"),
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


def relabel(node, ids):
    return EliminationNode(ids[node.pivot], frozenset(ids[v] for v in node.scope),
                           tuple(relabel(c, ids) for c in node.children))


def test_base_tree_matches_the_induced_copy():
    # The exact base case solves a piece on the host graph's own masks.  It
    # must give the witness of the piece's induced copy, relabelled in
    # order.  The pieces sit at ids >= 128, past 7 bits, among other
    # vertices and edges.
    rng = random.Random(79)
    for _ in range(300):
        k = rng.randint(2, EXACT_BASE_LIMIT)
        n = 128 + k + rng.randrange(40)
        ids = sorted(rng.sample(range(128, n), k))
        piece = random_strongly_connected(rng, k, extra_prob=rng.uniform(0.05, 0.4),
                                          allow_loops=True)
        edges = [(ids[a], ids[b]) for a, b in piece.edges]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
        g = Digraph.from_edges(n, edges)
        w = frozenset(ids)
        (root,) = crank_exact(induced(g, w)).witness.trees
        assert _base_tree(g, w) == relabel(root, ids), (sorted(g.edges), ids)


def test_approx_deep_base_piece():
    # One piece of 1200 vertices takes the smallest-pivot tree, a chain of
    # 1199 nodes: deeper than Python's recursion limit.
    g = bidirected_path(1200)
    res = crank_approx(g, base_threshold=1200)
    assert validate_forest(g, res.forest) == []
    assert res.forest == least_pivot_path_forest(1200)
    assert res.height == 1199


def test_approx_separator_log_depths_grow_from_zero():
    g = clique(9)
    res = crank_approx(g, base_threshold=1)
    assert res.separator_log
    assert res.separator_log[0][0] == 0
    assert all(size >= 1 for _, size in res.separator_log)


def test_config_threshold_resolution():
    assert _resolve_threshold("auto", 1) == 1
    assert _resolve_threshold("auto", 16) == 8
    assert _resolve_threshold(3, 100) == 3
    with pytest.raises(InputError):
        _resolve_threshold(0, 5)
    with pytest.raises(InputError):
        _resolve_threshold("x", 5)
