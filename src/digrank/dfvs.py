"""Directed feedback vertex sets (DFVS) by one depth-bounded branching
search.  S is a minimal DFVS exactly when V - S is a maximal acyclic set,
so maximal_acyclic_subsets complements the enumerated minimal sets, while
min_dfvs deepens the search bound until it finds a set.

Every vertex carrying a loop lies in every DFVS; min_dfvs reports these
forced vertices separately.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .bitsets import bits, set_of
from .digraph import Digraph, _vertex_mask, acyclic_mask, scc_mask_partition
from .errors import CapacityError, ResourceLimitError

DFVS_VERTEX_LIMIT = 64


def is_dfvs(g: Digraph, s) -> bool:
    """True iff deleting S leaves G acyclic."""
    keep = ((1 << g.n) - 1) & ~_vertex_mask(g, s)
    return acyclic_mask(g.succ_masks, keep)


def _find_cycle(g: Digraph, sub: int) -> list[int] | None:
    """Some cycle inside the induced subgraph on the mask, or None.

    Deterministic: the cycle is a shortest one through the smallest vertex
    of the first nontrivial SCC found.
    """
    succ = g.succ_masks
    pred = g.pred_masks
    loops = g.loop_mask
    for comp in scc_mask_partition(succ, pred, sub):
        if comp.bit_count() > 1 or comp & loops:
            v = (comp & -comp).bit_length() - 1
            if loops & (1 << v):
                return [v]
            # BFS inside comp from v back to v
            parent = {v: None}
            frontier = [v]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in bits(succ[u] & comp):
                        if w == v:
                            cycle = [u]
                            while parent[cycle[-1]] is not None:
                                cycle.append(parent[cycle[-1]])
                            cycle.reverse()
                            return cycle
                        if w not in parent:
                            parent[w] = u
                            nxt.append(w)
                frontier = nxt
            raise AssertionError("unreachable: nontrivial SCC has a cycle through each vertex")
    return None


def _feedback_masks(g: Digraph, k: int) -> Iterator[int]:
    """Masks X with G - X acyclic, found by branching on at most k vertices;
    each is yielded once, when first found.

    Branch on the vertices of a cycle of the residual graph, excluding one
    per branch and forbidding the ones tried before it; a residual with a
    cycle branches only while fewer than k vertices are excluded.  Taking on
    each cycle its first vertex of a minimal feedback set X never forbids a
    vertex of X, so X is reached in exactly |X| steps.
    """
    if g.n > DFVS_VERTEX_LIMIT:
        raise CapacityError(
            f"feedback vertex sets limited to n <= {DFVS_VERTEX_LIMIT}, got n={g.n}")
    full = (1 << g.n) - 1
    found: set[int] = set()
    stack: list[tuple[int, int]] = [(0, 0)]  # (excluded X, forbidden P)
    while stack:
        excluded, forbidden = stack.pop()
        cycle = _find_cycle(g, full & ~excluded)
        if cycle is None:
            if excluded not in found:
                found.add(excluded)
                yield excluded
            continue
        if excluded.bit_count() >= k:
            continue
        banned = forbidden
        for c in cycle:
            cbit = 1 << c
            if not banned & cbit:
                stack.append((excluded | cbit, banned))
            banned |= cbit


def minimal_dfvs_enumerate(g: Digraph, cap: int | None = None) -> list[frozenset[int]]:
    """All minimal directed feedback vertex sets, canonically sorted; a set
    the search finds is minimal when putting back any vertex makes a cycle.
    ``cap`` aborts with ResourceLimitError past that many minimal sets."""
    succ = g.succ_masks
    full = (1 << g.n) - 1
    sets = []
    for x in _feedback_masks(g, g.n):
        if all(not acyclic_mask(succ, full & ~x | (1 << v)) for v in bits(x)):
            sets.append(set_of(x))
            if cap is not None and len(sets) > cap:
                raise ResourceLimitError(
                    f"minimal feedback set cap {cap} exceeded", partial=len(sets))
    sets.sort(key=sorted)
    return sets


def maximal_acyclic_subsets(g: Digraph, cap: int | None = None) -> list[frozenset[int]]:
    """All inclusion-maximal acyclic vertex sets, canonically sorted."""
    full = frozenset(g.vertices)
    result = [full - s for s in minimal_dfvs_enumerate(g, cap=cap)]
    result.sort(key=sorted)
    return result


@dataclass(frozen=True)
class DfvsResult:
    minimum_set: frozenset[int]
    minimum_size: int
    forced: frozenset[int]  # loop vertices, members of every DFVS


def min_dfvs(g: Digraph) -> DfvsResult:
    """A minimum DFVS; ties by the lexicographically least vertex tuple.

    Iterative deepening on k.  _feedback_masks(g, k) finds only feedback
    sets of at most k vertices, and every minimal one that small.  At the
    least k that finds one, no smaller set exists, so each set found is a
    minimum set; every minimum set is minimal, so all of them are found.
    """
    k = 0
    while not (found := list(_feedback_masks(g, k))):
        k += 1
    best = min((set_of(x) for x in found), key=sorted)
    return DfvsResult(best, k, set_of(g.loop_mask))
