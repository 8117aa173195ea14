"""Recursive separator-based approximation of cycle rank.

Strategy for a strongly connected piece W: find a set S whose deletion
leaves every SCC of the subgraph on W - S with at most ceil(3|W|/4)
vertices, and recurse on those SCCs (the pieces).  The tree over W is
then fixed top down: every scope pivots on its largest vertex of S, and a
scope that holds no vertex of S is a piece and takes the piece's tree.
That is the tree one gets by splicing S back into the pieces' forest in
ascending order, each splice rooting the merged strongly connected set at
the spliced vertex: a merged set keeps the last vertex spliced into it as
its root.  Every scope below W is an SCC of W - P for the pivots P above
it, all in S; so a scope without a vertex of S is an SCC of W - S, that
is, a piece.  Pieces at or below a size threshold (by default
max(1, ceil((log2 n)^1.5))) end the recursion: those of at most
EXACT_BASE_LIMIT vertices are solved exactly, larger ones take the
smallest-pivot tree.

Heights are within a polylogarithmic factor of optimal for graphs whose
balanced separators are small; no approximation ratio is claimed here
because the separators are found greedily, not minimized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bitsets import set_of
from .cyclerank import _optimal_trees
from .digraph import (MASK_VERTEX_LIMIT, Digraph, _vertex_mask, cut_masks,
                      nontrivial_sccs_within, scc_mask_partition)
# Unused here; kept because perfbench's tests expect to wrap approx.sccs_within.
from .digraph import sccs_within  # noqa: F401
from .elimination import EliminationForest, EliminationNode, height, pivot_tree
from .errors import CapacityError, InputError

# Above this piece size the base case stops calling the exact solver and
# falls back to a smallest-pivot deletion tree.
EXACT_BASE_LIMIT = 14


@dataclass(frozen=True)
class ApproxResult:
    forest: EliminationForest
    height: int
    separator_log: tuple[tuple[int, int], ...] = ()  # (recursion depth, |S|)


def find_balanced_separator(g: Digraph, w: frozenset[int] | set[int]) -> frozenset[int]:
    """Nonempty S inside W with every SCC of the subgraph on W - S at most
    ceil(3|W|/4) vertices, built greedily: repeatedly delete the vertex
    whose removal shrinks the largest remaining SCC the most, ties to the
    smallest id.  S is feasible but not always minimum.

    W is expected to induce a strongly connected subgraph with an edge;
    the result is well defined regardless.

    Every candidate is scored exactly, but few by a partition.  Let C be
    a largest remaining component, of L vertices, with least vertex r,
    and M the size of the largest other one (the same for every largest
    C).  Deleting v from C touches no other component, so v scores the
    larger of M and the largest SCC of C - v.  The vertices of C - v
    outside r's component are v's proper subtrees K in the dominator
    trees of C from r (cut_masks(g, C), O(|C|) steps per tree once the
    dominator sets are known; all of C - r when v = r).  r's
    component has the other L - 1 - |K| vertices, and every other SCC of
    C - v is an SCC of the subgraph on K: a path between two vertices of
    K through r's component would put both in it.  So K is partitioned
    only when it is the larger part.
    """
    w = frozenset(w)
    w_mask = _vertex_mask(g, w)
    if not w:
        raise InputError("separator target must be nonempty")
    bound = -(-3 * len(w) // 4)  # ceil(3|W|/4)
    succ = g.succ_masks
    pred = g.pred_masks
    # At least one vertex is always deleted so the caller's recursion
    # makes progress.
    chosen = 0
    rest = w_mask
    while True:
        comps = list(scc_mask_partition(succ, pred, rest))
        sizes = sorted(c.bit_count() for c in comps)
        largest = sizes[-1]
        if chosen and largest <= bound:
            break
        # the largest component other than a given largest one
        other = sizes[-2] if len(sizes) > 1 else 0
        scored = []  # (score, vertex)
        for c in comps:
            if c.bit_count() != largest:
                continue
            for v, cut in cut_masks(g, c).items():
                after = largest - 1 - cut.bit_count()
                if cut.bit_count() > after:
                    after = max(after, *map(int.bit_count,
                                            scc_mask_partition(succ, pred, cut)))
                scored.append((max(after, other), v))
        best_v = min(scored)[1]
        chosen |= 1 << best_v
        rest &= ~(1 << best_v)
        if not rest:
            break
    return set_of(chosen)


def crank_approx(g: Digraph, *, base_threshold: int | str = "auto") -> ApproxResult:
    """Approximate cycle rank: a valid elimination forest plus its height.

    Pieces of at most ``base_threshold`` vertices end the recursion; "auto"
    means max(1, ceil((log2 n)^1.5)).  Limited to n <= MASK_VERTEX_LIMIT;
    work is polynomial except for the exact solves on pieces at most
    EXACT_BASE_LIMIT large.
    """
    if g.n > MASK_VERTEX_LIMIT:
        raise CapacityError(f"crank_approx limited to n <= {MASK_VERTEX_LIMIT}, got n={g.n}")
    threshold = _resolve_threshold(base_threshold, g.n)
    log: list[tuple[int, int]] = []

    def tree_for(w: frozenset[int], depth: int) -> EliminationNode:
        if len(w) <= threshold:
            return _base_tree(g, w)
        s = find_balanced_separator(g, w)
        log.append((depth, len(s)))
        pieces = {c: tree_for(c, depth + 1)
                  for c in nontrivial_sccs_within(g, w - s)}
        return pivot_tree(g, w, lambda scope: max(scope & s), pieces)

    forest = EliminationForest(tuple(
        tree_for(c, 0) for c in nontrivial_sccs_within(g, g.vertices)))
    return ApproxResult(forest, height(forest), tuple(log))


def _resolve_threshold(base_threshold: int | str, n: int) -> int:
    if base_threshold == "auto":
        if n <= 1:
            return 1
        return max(1, math.ceil(math.log2(n) ** 1.5))
    try:
        t = int(base_threshold)
    except ValueError:
        raise InputError(f"base threshold must be an integer or 'auto', "
                         f"got {base_threshold!r}") from None
    if t < 1:
        raise InputError(f"base threshold must be >= 1, got {t}")
    return t


def _base_tree(g: Digraph, w: frozenset[int]) -> EliminationNode:
    """Optimal tree when affordable, else smallest-pivot deletion order."""
    if len(w) <= EXACT_BASE_LIMIT:
        _, (root,), _ = _optimal_trees(g, [w])  # w is a strongly connected piece
        return root
    return pivot_tree(g, w, min)
