"""Directed feedback vertex sets through their duality with maximal
acyclic vertex sets: S is a minimal DFVS exactly when V - S is a maximal
acyclic set, so enumerating one list yields the other by complementation.

Every vertex carrying a loop lies in every DFVS; min_dfvs reports these
forced vertices separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitsets import bits, mask_of, set_of
from .digraph import Digraph, acyclic_mask, scc_mask_partition
from .errors import CapacityError, InputError, ResourceLimitError

DFVS_VERTEX_LIMIT = 64


def is_dfvs(g: Digraph, s) -> bool:
    """True iff deleting S leaves G acyclic."""
    s = frozenset(s)
    for v in s:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
    keep = ((1 << g.n) - 1) & ~mask_of(s)
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


def maximal_acyclic_subsets(g: Digraph, cap: int | None = None) -> list[frozenset[int]]:
    """All inclusion-maximal A with the subgraph on A acyclic, each once,
    sorted by their sorted vertex tuples.

    Recursive extension: branch on the vertices of a cycle of the residual
    graph, excluding one per branch while forbidding the previously tried
    ones, which reaches every minimal feedback set exactly once; leaves
    that correspond to non-minimal exclusions are filtered out.  ``cap``
    aborts with ResourceLimitError once more candidate sets than that have
    been collected.
    """
    if g.n > DFVS_VERTEX_LIMIT:
        raise CapacityError(
            f"maximal_acyclic_subsets limited to n <= {DFVS_VERTEX_LIMIT}, got n={g.n}")
    succ = g.succ_masks
    full = (1 << g.n) - 1
    found: set[int] = set()  # masks of excluded sets X with residual acyclic
    stack: list[tuple[int, int]] = [(0, 0)]  # (excluded X, forbidden P)
    while stack:
        excluded, forbidden = stack.pop()
        cycle = _find_cycle(g, full & ~excluded)
        if cycle is None:
            found.add(excluded)
            if cap is not None and len(found) > cap:
                raise ResourceLimitError(
                    f"maximal acyclic subset cap {cap} exceeded", partial=len(found))
            continue
        banned = forbidden
        for c in cycle:
            cbit = 1 << c
            if not banned & cbit:
                stack.append((excluded | cbit, banned))
            banned |= cbit

    result = []
    for excluded in found:
        residual = full & ~excluded
        # X minimal as a feedback set <=> residual maximal as an acyclic set
        if all(not acyclic_mask(succ, residual | (1 << v)) for v in bits(excluded)):
            result.append(set_of(residual))
    result.sort(key=sorted)
    return result


def minimal_dfvs_enumerate(g: Digraph, cap: int | None = None) -> list[frozenset[int]]:
    """All minimal directed feedback vertex sets, canonically sorted."""
    full = frozenset(g.vertices)
    sets = [full - a for a in maximal_acyclic_subsets(g, cap=cap)]
    sets.sort(key=sorted)
    return sets


@dataclass(frozen=True)
class DfvsResult:
    minimum_set: frozenset[int]
    minimum_size: int
    forced: frozenset[int]  # loop vertices, members of every DFVS
    enumeration: tuple[frozenset[int], ...] | None = None


def min_dfvs(g: Digraph, cap: int | None = None,
             include_enumeration: bool = False) -> DfvsResult:
    """A minimum DFVS; ties by the lexicographically least vertex tuple."""
    candidates = minimal_dfvs_enumerate(g, cap=cap)
    best = min(candidates, key=lambda s: (len(s), sorted(s)))
    forced = set_of(g.loop_mask)
    return DfvsResult(best, len(best), forced,
                      tuple(candidates) if include_enumeration else None)
