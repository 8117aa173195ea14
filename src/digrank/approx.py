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

from .bitsets import bits, set_of
from .digraph import (Digraph, _vertex_mask, induced, nontrivial_sccs_within,
                      scc_mask_partition)
# Unused here; kept because perfbench's tests expect to wrap approx.sccs_within.
from .digraph import sccs_within  # noqa: F401
from .elimination import EliminationForest, EliminationNode, height, pivot_tree
from .errors import InputError, ResourceLimitError

# Above this piece size the base case stops calling the exact solver and
# falls back to a smallest-pivot deletion tree.
EXACT_BASE_LIMIT = 14
EXACT_BASE_MEMO_LIMIT = 200_000


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
        largest = max((c.bit_count() for c in comps), default=0)
        if chosen and largest <= bound:
            break
        # components are disjoint masks, so their sum is their union
        candidates = sum(c for c in comps if c.bit_count() == largest)
        best_v = None
        best_after = None
        for v in bits(candidates):
            after = max((c.bit_count()
                         for c in scc_mask_partition(succ, pred, rest & ~(1 << v))),
                        default=0)
            if best_after is None or after < best_after:
                best_after = after
                best_v = v
        chosen |= 1 << best_v
        rest &= ~(1 << best_v)
        if not rest:
            break
    return set_of(chosen)


def crank_approx(g: Digraph, *, base_threshold: int | str = "auto") -> ApproxResult:
    """Approximate cycle rank: a valid elimination forest plus its height.

    Pieces of at most ``base_threshold`` vertices end the recursion; "auto"
    means max(1, ceil((log2 n)^1.5)).  No instance size limit; work is
    polynomial except for the exact solves on pieces at most
    EXACT_BASE_LIMIT large.
    """
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
        from .cyclerank import crank_exact

        mapping = sorted(w)
        sub = induced(g, w)
        try:
            res = crank_exact(sub, memo_limit=EXACT_BASE_MEMO_LIMIT)
        except ResourceLimitError:
            pass
        else:
            (root,) = res.witness.trees  # strongly connected piece: one tree
            return _relabel(root, mapping)
    return pivot_tree(g, w, min)


def _relabel(node: EliminationNode, mapping: list[int]) -> EliminationNode:
    return EliminationNode(mapping[node.pivot],
                           frozenset(mapping[v] for v in node.scope),
                           tuple(_relabel(c, mapping) for c in node.children))
