"""Cycle rank: brute force, memoized subset dynamic programming, census.

The measure, from first principles: an acyclic digraph has rank 0; a
strongly connected digraph with at least one edge has rank 1 plus the
minimum rank over one-vertex deletions; anything else takes the maximum
over its strongly connected components.  A single vertex carrying a loop
therefore has rank 1.

crank_exact memoizes one value per nontrivial strongly connected vertex
subset, so its table size is bounded by the number of such subsets; for
max outdegree d that number is at most roughly ((2^(d+1)-1)^(1/(d+1)))^n,
which sc_subset_bound exposes and count_sc_subsets checks exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bitsets import bits, mask_of
from .digraph import (
    Digraph,
    core_mask,
    nontrivial_sccs_within,
    reach_mask,
    scc_mask_partition,
)
from .elimination import EliminationForest, EliminationNode, pivot_tree
from .errors import CapacityError, InputError, ResourceLimitError

EXACT_VERTEX_LIMIT = 64
BRUTE_FORCE_LIMIT = 10
CENSUS_LIMIT = 16


@dataclass(frozen=True)
class CrankResult:
    value: int
    witness: EliminationForest
    memo_size: int
    elapsed: float


def crank_bruteforce(g: Digraph) -> int:
    """Literal evaluation of the defining recursion, for cross-checking.

    Memoization on vertex subsets is a pure cache; the recursion itself is
    the definition, case by case.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise CapacityError(f"crank_bruteforce limited to n <= {BRUTE_FORCE_LIMIT}, got n={g.n}")
    succ = g.succ_masks
    pred = g.pred_masks
    cache: dict[int, int] = {}

    def rank(sub: int) -> int:
        if sub in cache:
            return cache[sub]
        if not core_mask(succ, pred, sub, sub):
            val = 0
        else:
            comps = list(scc_mask_partition(succ, pred, sub))
            if len(comps) == 1 and comps[0] == sub:
                # strongly connected with an edge (it has a cycle)
                val = 1 + min(rank(sub ^ (1 << v)) for v in bits(sub))
            else:
                val = max(rank(c) for c in comps)
        cache[sub] = val
        return val

    return rank((1 << g.n) - 1)


def _optimal_trees(g: Digraph, scopes: list[frozenset[int]], memo_limit: int | None = None
                   ) -> tuple[int, tuple[EliminationNode, ...], int]:
    """Optimal trees of nontrivial strongly connected scopes of G.

    Returns the largest rank over the scopes, the optimal pivot_tree of
    each scope on G itself (vertex ids unchanged), and the memo size.

    One subproblem per nontrivial strongly connected subset X: the best
    rank of X over pivot choices, where pivoting on x costs 1 plus the
    maximum over the nontrivial components of X minus x, found by one SCC
    partition.  Subsets are discovered lazily from the top, so only
    reachable subsets are ever materialized.  Pivots are tried in
    ascending order under two sound prunings:

    - Lower-bound cut.  Rank never grows on an induced subgraph, so each
      evaluated pivot y gives crank(X) >= crank(X - y) = cost(y) - 1, and
      X nontrivial gives crank(X) >= 1.  Once the best cost so far is at
      most that bound it is optimal, and the loop stops.
    - In-degree-1 dominance.  A loop-free x whose only in-neighbour in X
      is a smaller vertex y is skipped: x is a source in X - y, so
      crank(X - y) = crank(X - y - x) <= crank(X - x), i.e. cost(y) <=
      cost(x).  y was tried before x, or skipped for a still smaller
      vertex; the chain descends, so some evaluated pivot below x costs
      no more than x.  The rule never points to a larger y, which would
      let vertices skip each other in a cycle.  Its mirror, a loop-free x
      whose only out-neighbour in X is a smaller y, is as sound (x is a
      sink in X - y), but it is left out on purpose: it would change the
      memo sizes.

    Neither rule skips a pivot that would be the first to reach the least
    cost, so ties still go to the smallest vertex id and the witness is
    the one the unpruned loop finds; only the memo holds fewer subsets.
    Only the order of vertex ids matters, so a scope solved inside G gets
    the tree of its induced copy, relabelled in order.

    memo_limit aborts with ResourceLimitError once the table would exceed
    that many subsets.
    """
    succ = g.succ_masks
    pred = g.pred_masks
    loops = g.loop_mask
    # mask of a nontrivial strongly connected subset -> (pivot << 7) | value; callers
    # keep scopes within 64 vertices, so values fit 7 bits, and pivots are any id of G.
    memo: dict[int, int] = {}

    def solve(x_mask: int) -> int:
        packed = memo.get(x_mask)
        if packed is not None:
            return packed & 0x7F
        best = 1 << 30
        best_pivot = -1
        lb = 1  # X is nontrivial, so its rank is at least 1
        m = x_mask
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            # One in-neighbour in X, below x (so not x itself: x has no
            # loop): x is dominated by that already tried pivot.
            inn = pred[x] & x_mask
            if inn < low and not inn & (inn - 1):
                continue
            val = 0
            for comp in scc_mask_partition(succ, pred, x_mask ^ low):
                if comp.bit_count() > 1 or comp & loops:
                    sub = solve(comp)
                    if sub > val:
                        val = sub
            val += 1
            if val < best:
                best, best_pivot = val, x
            if val - 1 > lb:
                lb = val - 1
            if best <= lb:
                break
        if memo_limit is not None and len(memo) >= memo_limit:
            raise ResourceLimitError(
                f"crank_exact memo limit {memo_limit} exceeded", partial=len(memo))
        memo[x_mask] = (best_pivot << 7) | best
        return best

    value = 0
    for comp in scopes:
        v = solve(mask_of(comp))
        if v > value:
            value = v
    # solve reaches itself through its closure, a reference cycle that
    # would keep the memo alive until the next garbage collection.
    solve = None

    def memo_pivot(scope: frozenset[int]) -> int:
        return memo[mask_of(scope)] >> 7

    return value, tuple(pivot_tree(g, c, memo_pivot) for c in scopes), len(memo)


def crank_exact(g: Digraph, memo_limit: int | None = None) -> CrankResult:
    """Cycle rank with an optimal elimination forest witness: the
    _optimal_trees search on the nontrivial SCCs of G, with its memo_limit.
    """
    if g.n > EXACT_VERTEX_LIMIT:
        raise CapacityError(f"crank_exact limited to n <= {EXACT_VERTEX_LIMIT}, got n={g.n}")
    t0 = time.perf_counter()
    value, trees, memo_size = _optimal_trees(g, nontrivial_sccs_within(g, g.vertices), memo_limit)
    return CrankResult(value, EliminationForest(trees), memo_size, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# strongly connected subset census


@dataclass(frozen=True)
class SubsetCensus:
    nontrivial: int
    total: int


def count_sc_subsets(g: Digraph) -> SubsetCensus:
    """Exact counts of nonempty vertex subsets inducing a strongly connected
    subgraph: all of them, and those containing at least one edge.

    Binary partition (Read and Tarjan, Networks 1975).  Each set X is rooted
    at its least vertex r.  A search node is a pair (allowed, required)
    standing for the strongly connected X with required <= X <= allowed and
    min X = r; the first node of r is (the vertices >= r, {r}).  Every such
    X lies in k, the SCC of r in G[allowed].  A node whose required set is
    not inside k stands for no set and is dropped.  Otherwise k itself is
    counted, and any other X leaves out a least vertex u of k - required,
    so the children, one per such u, are (k - u, required plus the vertices
    of k below u): they split the remaining sets disjointly, and each set
    is counted exactly once.

    Cost.  Every node that is not dropped counts a distinct set and pushes
    at most n children, and each node takes two reach_mask sweeps, so the
    search makes at most 2n (total + 1) sweeps, rather than 2^n.
    """
    if g.n > EXACT_VERTEX_LIMIT:
        raise CapacityError(f"count_sc_subsets limited to n <= {EXACT_VERTEX_LIMIT}, got n={g.n}")
    succ = g.succ_masks
    pred = g.pred_masks
    loops = g.loop_mask
    full = (1 << g.n) - 1
    total = 0
    nontrivial = 0
    for root in range(g.n):
        root_bit = 1 << root
        stack = [(full & -root_bit, root_bit)]  # (allowed, required)
        while stack:
            allowed, required = stack.pop()
            k = reach_mask(succ, allowed, root) & reach_mask(pred, allowed, root)
            if required & ~k:
                continue
            total += 1
            if k != root_bit or k & loops:
                nontrivial += 1
            for u in bits(k & ~required):
                ubit = 1 << u
                stack.append((k ^ ubit, required | k & (ubit - 1)))
    return SubsetCensus(nontrivial, total)


def count_sc_subsets_bruteforce(g: Digraph) -> SubsetCensus:
    """Exhaustive 2^n census, the independent oracle for count_sc_subsets."""
    if g.n > CENSUS_LIMIT:
        raise CapacityError(f"exhaustive census limited to n <= {CENSUS_LIMIT}, got n={g.n}")
    succ = g.succ_masks
    pred = g.pred_masks
    loops = g.loop_mask
    total = 0
    nontrivial = 0
    for sub in range(1, 1 << g.n):
        v = (sub & -sub).bit_length() - 1
        if reach_mask(succ, sub, v) == sub and reach_mask(pred, sub, v) == sub:
            total += 1
            if sub.bit_count() > 1 or sub & loops:
                nontrivial += 1
    return SubsetCensus(nontrivial, total)


def sc_subset_bound(n: int, d: int) -> float:
    """Upper bound gamma^n + n on the number of strongly connected subsets
    of any digraph with n vertices and maximum outdegree d, where
    gamma = (2^(d+1) - 1)^(1/(d+1)); about 1.9129 for d = 2.
    """
    if d < 1:
        raise InputError(f"outdegree bound must be >= 1, got {d}")
    if n < 0:
        raise InputError(f"vertex count must be >= 0, got {n}")
    gamma = (2 ** (d + 1) - 1) ** (1.0 / (d + 1))
    return gamma ** n + n
