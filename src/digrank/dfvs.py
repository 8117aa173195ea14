"""Directed feedback vertex sets (DFVS) by one branching search with one
cycle rule: a shortest cycle through the least vertex that lies on a cycle
(_least_cycle).  minimal_dfvs_enumerate cuts a node once a deleted vertex
lies on no cycle when put back, so its leaves are the minimal sets, whose
complements are the maximal acyclic sets.  min_dfvs deepens a size k until
a branch and bound over the same search finds the lexicographically least
set of k vertices; it bounds sizes from below by greedy packings of
vertex-disjoint cycles, picked by the same rule, as any disjoint packing
is a lower bound.

Every vertex carrying a loop lies in every DFVS; the search deletes these
forced vertices at its root, min_dfvs counts them apart from its packings,
and reports them separately.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .bitsets import bits, set_of
from .digraph import Digraph, _vertex_mask, core_mask, reach_mask
from .errors import CapacityError, ResourceLimitError

DFVS_VERTEX_LIMIT = 64


def is_dfvs(g: Digraph, s) -> bool:
    """True iff deleting S leaves G acyclic."""
    keep = ((1 << g.n) - 1) & ~_vertex_mask(g, s)
    return not core_mask(g.succ_masks, g.pred_masks, keep, keep)


def _loop_free_core(g: Digraph) -> int:
    """The core of G minus its loop vertices, where the search starts.  It
    holds the size check, so min_dfvs and minimal_dfvs_enumerate call it
    before they read anything that grows with n."""
    if g.n > DFVS_VERTEX_LIMIT:
        raise CapacityError(
            f"feedback vertex sets limited to n <= {DFVS_VERTEX_LIMIT}, got n={g.n}")
    full = (1 << g.n) - 1
    return core_mask(g.succ_masks, g.pred_masks, full & ~g.loop_mask, full)


def _shortest_cycle(succ, pred, sub: int, v: int) -> list[int] | None:
    """A shortest cycle through v inside the mask ``sub``, starting at v,
    found by breadth-first layers; None when v lies on no cycle there."""
    vbit = 1 << v
    layers = [vbit]
    seen = frontier = vbit
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= succ[low.bit_length() - 1]
            m ^= low
        if nxt & vbit:
            u = frontier & pred[v]
            cycle = [(u & -u).bit_length() - 1]
            for layer in reversed(layers[:-1]):
                u = layer & pred[cycle[-1]]
                cycle.append((u & -u).bit_length() - 1)
            cycle.reverse()
            return cycle
        frontier = nxt & sub & ~seen
        seen |= frontier
        layers.append(frontier)
    return None


def _least_cycle(succ, pred, core: int, allowed: int) -> list[int]:
    """A shortest cycle inside the core mask through the least vertex of
    ``allowed`` that lies on a cycle there, starting at that vertex; a
    vertex on no cycle is passed over.  ``allowed`` must hold a vertex on a
    cycle of the core, as any nonempty core does."""
    while (cycle := _shortest_cycle(
            succ, pred, core, (allowed & -allowed).bit_length() - 1)) is None:
        allowed &= allowed - 1
    return cycle


def _cycle_packing(g: Digraph, core: int) -> list[list[int]]:
    """Vertex-disjoint cycles inside the core mask, picked greedily by the
    search's branching rule (see _least_cycle); after each pick the core is
    peeled again.  Empty exactly when the core is, i.e. the mask is acyclic.

    Any feedback set of the core meets each of these disjoint cycles in its
    own vertex, so however the cycles are picked their number is a lower
    bound on its size.
    """
    succ = g.succ_masks
    pred = g.pred_masks
    cycles = []
    while core:
        cycle = _least_cycle(succ, pred, core, core)
        cycles.append(cycle)
        touched = 0
        for c in cycle:
            core ^= 1 << c
            touched |= succ[c] | pred[c]
        core = core_mask(succ, pred, core, touched)
    return cycles


def _feedback_masks(g: Digraph, root: int, cut: Callable[[int, int, int], bool]
                    ) -> Iterator[int]:
    """Masks X with G - X acyclic, each yielded once, since sibling branches
    differ on a cycle vertex that one excludes and the later ones forbid.

    The root excludes the loop vertices, which lie in every feedback set;
    its core is ``root``, _loop_free_core(g).
    Each search node keeps the core of its residual G - X (see core_mask): the
    core of G - X - v is that of (core of G - X) - v, so a child peels only
    what its one deletion exposes.  A node whose core is empty is a leaf:
    G - X is acyclic.  A node whose forbidden core vertices hold a cycle is
    dead, as no exclusion left can break that cycle.  Otherwise some
    vertex of core - P lies on a cycle, and the node branches on a shortest
    cycle through the least such vertex, excluding one vertex per child in
    ascending order and forbidding the ones tried before it; the least
    child is popped first.  A node for which ``cut(X, P, core)`` is true is
    dropped with its subtree.

    Completeness.  For a minimal feedback set Y, taking on each cycle its
    first vertex of Y, whichever cycle is branched on, never forbids a
    vertex of Y, so Y is reached in exactly |Y| steps unless the cut drops a
    node on that path; no node on it is dead, as P is disjoint from Y.
    """
    succ = g.succ_masks
    pred = g.pred_masks
    # (excluded X, forbidden P, core of G - X)
    stack = [(g.loop_mask, 0, root)]
    while stack:
        excluded, forbidden, core = stack.pop()
        if cut(excluded, forbidden, core):
            continue
        if not core:
            yield excluded
            continue
        if core_mask(succ, pred, core & forbidden, forbidden):
            continue
        cycle = _least_cycle(succ, pred, core, core & ~forbidden)
        banned = forbidden
        children = []
        for c in sorted(cycle):
            cbit = 1 << c
            if not banned & cbit:
                children.append((excluded | cbit, banned,
                                 core_mask(succ, pred, core ^ cbit, succ[c] | pred[c])))
            banned |= cbit
        stack.extend(reversed(children))


def minimal_dfvs_enumerate(g: Digraph, cap: int | None = None) -> list[frozenset[int]]:
    """All minimal directed feedback vertex sets, canonically sorted;
    ``cap`` aborts with ResourceLimitError past that many minimal sets.

    The search of _feedback_masks, cut at a node once some x in X lies on
    no cycle of G - (X - x).  Deleting more keeps such an x redundant, so no
    leaf below a cut node is minimal.  On the path to a minimal set Y, X lies
    in Y and every x in X has a cycle in G - (Y - x), inside G - (X - x), so
    the cut never fires there.  A leaf passes it exactly when it is minimal.
    """
    root = _loop_free_core(g)
    succ = g.succ_masks
    pred = g.pred_masks
    full = (1 << g.n) - 1

    def cut(excluded: int, forbidden: int, core: int) -> bool:
        keep = full & ~excluded
        return any(not reach_mask(succ, keep | 1 << x, x) & pred[x] for x in bits(excluded))

    sets = []
    for x in _feedback_masks(g, root, cut):
        sets.append(set_of(x))
        if cap is not None and len(sets) > cap:
            raise ResourceLimitError(
                f"minimal feedback set cap {cap} exceeded", partial=len(sets))
    sets.sort(key=sorted)
    return sets


def maximal_acyclic_subsets(g: Digraph, cap: int | None = None) -> list[frozenset[int]]:
    """All inclusion-maximal acyclic vertex sets, canonically sorted."""
    sets = minimal_dfvs_enumerate(g, cap=cap)
    full = frozenset(g.vertices)
    result = [full - s for s in sets]
    result.sort(key=sorted)
    return result


def _lex_below(a: int, b: int) -> bool:
    """For masks of equal size: A's sorted vertex tuple precedes B's
    exactly when the lowest vertex in which they differ lies in A."""
    d = a ^ b
    return bool(d & -d & a)


def _least_feedback_mask(g: Digraph, k: int) -> int | None:
    """The lexicographically least feedback set of k vertices, as a mask,
    when k is at most the minimum size; None when k is below it.

    The search of _feedback_masks, run as a branch and bound: the best set
    found so far is kept, and with need = k - |X| a node is cut when need
    is negative or exceeds the vertices of core - P, when X plus the need
    least of them is not below the best, or when the core packs more than
    need disjoint cycles (any disjoint packing bounds the feedback sets of
    the core from below).  A node with need 0 and a nonempty core packs a
    cycle and is cut, so need is negative only at the root, when k is below
    the number of loop vertices; nothing is found then.  Leaves, whose core
    is empty, are never packed.

    Soundness.  No feedback set has fewer than k vertices, and no leaf
    found has more, so every set found has exactly k.  The least such set
    Y* is minimal, so by the completeness argument of _feedback_masks it is
    reached unless a node on its path is cut; every such node has X inside
    Y* and P disjoint from it.  Y* - X is a minimal feedback set of G - X,
    so it lies in the core, there are enough free vertices, no packing
    exceeds |Y* - X| = need, and that node's bound set is at most Y*: the
    cut removes the path to Y* only once Y* itself has been found.

    Cost.  If the first descent, which deletes the least vertex of core - P
    on a cycle at every node, reaches a leaf, each sibling left on the stack
    forbids a vertex v of that leaf and its bound set agrees with the leaf
    below v, so the bound cuts them all without a packing.
    """
    best = None

    def cut(excluded: int, forbidden: int, core: int) -> bool:
        free = core & ~forbidden
        need = k - excluded.bit_count()
        if not 0 <= need <= free.bit_count():
            return True
        if best is not None:
            bound, m = excluded, free
            for _ in range(need):
                low = m & -m
                bound |= low
                m ^= low
            if not _lex_below(bound, best):
                return True
        return bool(core) and len(_cycle_packing(g, core)) > need

    for best in _feedback_masks(g, _loop_free_core(g), cut):
        pass
    return best


@dataclass(frozen=True)
class DfvsResult:
    minimum_set: frozenset[int]
    minimum_size: int
    forced: frozenset[int]  # loop vertices, members of every DFVS


def min_dfvs(g: Digraph) -> DfvsResult:
    """A minimum DFVS; ties by the lexicographically least vertex tuple.

    Iterative deepening on k from a lower bound, so no round's k exceeds
    the minimum size: the loop vertices, which lie in every feedback set,
    plus a packing of disjoint cycles in the core of G without them, each
    of which needs a vertex of its own besides.
    _least_feedback_mask(g, k) finds nothing below the minimum size and the
    least minimum set at it.
    """
    k = g.loop_mask.bit_count() + len(_cycle_packing(g, _loop_free_core(g)))
    while (best := _least_feedback_mask(g, k)) is None:
        k += 1
    return DfvsResult(set_of(best), k, set_of(g.loop_mask))
