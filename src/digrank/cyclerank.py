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
    acyclic_mask,
    nontrivial_sccs_within,
    reach_mask,
    scc_mask_partition,
)
from .elimination import EliminationForest, pivot_tree
from .errors import CapacityError, InputError, ResourceLimitError

EXACT_VERTEX_LIMIT = 64
BRUTE_FORCE_LIMIT = 10


@dataclass(frozen=True)
class CrankResult:
    value: int
    witness: EliminationForest
    memo_size: int
    elapsed: float


def crank_bruteforce(g: Digraph, limit: int = BRUTE_FORCE_LIMIT) -> int:
    """Literal evaluation of the defining recursion, for cross-checking.

    Memoization on vertex subsets is a pure cache; the recursion itself is
    the definition, case by case.
    """
    if g.n > limit:
        raise CapacityError(f"crank_bruteforce limited to n <= {limit}, got n={g.n}")
    succ = g.succ_masks
    pred = g.pred_masks
    cache: dict[int, int] = {}

    def rank(sub: int) -> int:
        if sub in cache:
            return cache[sub]
        if acyclic_mask(succ, sub):
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


def crank_exact(g: Digraph, memo_limit: int | None = None) -> CrankResult:
    """Cycle rank with an optimal elimination forest witness.

    One subproblem per nontrivial strongly connected subset X: the best
    rank of X over pivot choices, where pivoting on x costs 1 plus the
    maximum over the nontrivial components of X minus x, found by one SCC
    partition.  The least cost, 1, means X minus x is acyclic; the loop
    stops at the first such pivot.  Subsets are discovered lazily from the
    top, so only reachable subsets are ever materialized.

    memo_limit aborts with ResourceLimitError once the table would exceed
    that many subsets.  Pivot ties prefer the smallest vertex id.
    """
    if g.n > EXACT_VERTEX_LIMIT:
        raise CapacityError(f"crank_exact limited to n <= {EXACT_VERTEX_LIMIT}, got n={g.n}")
    t0 = time.perf_counter()
    succ = g.succ_masks
    pred = g.pred_masks
    loops = g.loop_mask
    # mask of a nontrivial strongly connected subset -> (value << 7) | pivot
    memo: dict[int, int] = {}

    def solve(x_mask: int) -> int:
        packed = memo.get(x_mask)
        if packed is not None:
            return packed >> 7
        best = 1 << 30
        best_pivot = -1
        m = x_mask
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            val = 0
            for comp in scc_mask_partition(succ, pred, x_mask ^ low):
                if comp.bit_count() > 1 or comp & loops:
                    sub = solve(comp)
                    if sub > val:
                        val = sub
            val += 1
            if val < best:
                best, best_pivot = val, x
            if val == 1:
                break  # X - x is acyclic: 1 is the least any pivot can cost
        if memo_limit is not None and len(memo) >= memo_limit:
            raise ResourceLimitError(
                f"crank_exact memo limit {memo_limit} exceeded", partial=len(memo))
        memo[x_mask] = (best << 7) | best_pivot
        return best

    top = nontrivial_sccs_within(g, g.vertices)
    value = 0
    for comp in top:
        v = solve(mask_of(comp))
        if v > value:
            value = v
    # solve reaches itself through its closure, a reference cycle that
    # would keep the memo alive until the next garbage collection.
    solve = None

    def memo_pivot(scope: frozenset[int]) -> int:
        return memo[mask_of(scope)] & 0x7F

    witness = EliminationForest(tuple(pivot_tree(g, c, memo_pivot) for c in top))
    return CrankResult(value, witness, len(memo), time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# strongly connected subset census


@dataclass(frozen=True)
class SubsetCensus:
    nontrivial: int
    total: int


def count_sc_subsets(g: Digraph) -> SubsetCensus:
    """Exact counts of nonempty vertex subsets inducing a strongly connected
    subgraph: all of them, and those containing at least one edge.

    Search-based: subsets are rooted at their smallest vertex and grown
    through weak neighbors, with branches pruned to the strongly connected
    component of the root in the still-allowed subgraph (any strongly
    connected superset must stay inside it).  Cost scales with the number
    of weakly connected candidate sets rather than 2^n.
    """
    if g.n > EXACT_VERTEX_LIMIT:
        raise CapacityError(f"count_sc_subsets limited to n <= {EXACT_VERTEX_LIMIT}, got n={g.n}")
    succ = g.succ_masks
    pred = g.pred_masks
    loops = g.loop_mask
    und = [succ[v] | pred[v] for v in range(g.n)]
    total = 0
    nontrivial = 0

    def is_sc(c_mask: int, v: int) -> bool:
        return (reach_mask(succ, c_mask, v) == c_mask
                and reach_mask(pred, c_mask, v) == c_mask)

    for root in range(g.n):
        allowed = ((1 << g.n) - 1) & ~((1 << root) - 1)  # root and above
        root_bit = 1 << root
        total += 1
        if root_bit & loops:
            nontrivial += 1
        # stack entries: (current set, banned set, weak neighbor mask)
        stack = [(root_bit, 0, und[root])]
        while stack:
            cur, banned, nbrs = stack.pop()
            avail = allowed & ~banned
            k = reach_mask(succ, avail, root) & reach_mask(pred, avail, root)
            if cur & ~k:
                continue
            cand = nbrs & k & ~cur
            taken = 0
            for u in bits(cand):
                ubit = 1 << u
                nxt = cur | ubit
                if is_sc(nxt, root):
                    total += 1
                    nontrivial += 1  # has >= 2 vertices, hence an edge
                stack.append((nxt, banned | taken, nbrs | und[u]))
                taken |= ubit
    return SubsetCensus(nontrivial, total)


def count_sc_subsets_bruteforce(g: Digraph, limit: int = 16) -> SubsetCensus:
    """Exhaustive 2^n census, the independent oracle for count_sc_subsets."""
    if g.n > limit:
        raise CapacityError(f"exhaustive census limited to n <= {limit}, got n={g.n}")
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
