"""Recursive separator-based approximation of cycle rank.

Strategy for a strongly connected piece W: find a set S whose deletion
leaves every SCC of the subgraph on W - S with at most ceil(3|W|/4)
vertices, recurse on W - S, then splice the separator vertices back one at
a time; each splice roots a new tree at the added vertex over the merged
strongly connected set.  Pieces at or below a size threshold (by default
max(1, ceil((log2 n)^1.5))) are solved outright.

Heights are within a polylogarithmic factor of optimal for graphs whose
balanced separators are small; no approximation ratio is claimed here
because the separators themselves are found exactly only on small pieces
and greedily elsewhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bitsets import bits, mask_of, set_of
from .digraph import (
    Digraph,
    induced,
    is_nontrivial_component,
    nontrivial_sccs_within,
    scc_mask_partition,
    sccs_within,
)
from .elimination import EliminationForest, EliminationNode, height, validate_forest
from .errors import InputError, ResourceLimitError

# Above this piece size the base case stops calling the exact solver and
# falls back to a smallest-pivot deletion forest.
EXACT_BASE_LIMIT = 14
EXACT_BASE_MEMO_LIMIT = 200_000


@dataclass(frozen=True)
class ApproxConfig:
    base_threshold: int | str = "auto"   # piece size solved directly
    separator_mode: str = "exact"        # "exact" (below the limit) or "greedy"
    exact_separator_limit: int = 12

    def resolved_threshold(self, n: int) -> int:
        if self.base_threshold == "auto":
            if n <= 1:
                return 1
            return max(1, math.ceil(math.log2(n) ** 1.5))
        t = int(self.base_threshold)
        if t < 1:
            raise InputError(f"base threshold must be >= 1, got {t}")
        return t


@dataclass(frozen=True)
class ApproxResult:
    forest: EliminationForest
    height: int
    separator_log: tuple[tuple[int, int], ...] = ()  # (recursion depth, |S|)


def find_balanced_separator(g: Digraph, w: frozenset[int] | set[int],
                            config: ApproxConfig | None = None) -> frozenset[int]:
    """Nonempty S inside W with every SCC of the subgraph on W - S at most
    ceil(3|W|/4) vertices.  Exact minimum (lexicographically least among
    minimums) up to exact_separator_limit, greedy beyond or when asked.

    W is expected to induce a strongly connected subgraph with an edge;
    the result is well defined regardless.
    """
    cfg = config or ApproxConfig()
    w = frozenset(w)
    for v in w:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
    if not w:
        raise InputError("separator target must be nonempty")
    bound = -(-3 * len(w) // 4)  # ceil(3|W|/4)
    succ = g.succ_masks
    pred = g.pred_masks
    w_mask = mask_of(w)
    if cfg.separator_mode == "exact" and len(w) <= cfg.exact_separator_limit:
        verts = sorted(w)
        for k in range(1, len(w) + 1):
            for combo in itertools.combinations(verts, k):
                rest = w_mask & ~mask_of(combo)
                if all(c.bit_count() <= bound
                       for c in scc_mask_partition(succ, pred, rest)):
                    return frozenset(combo)
        raise AssertionError("unreachable: S = W always qualifies")
    # Greedy: repeatedly delete the vertex whose removal shrinks the largest
    # remaining SCC the most, ties to the smallest id.  At least one vertex
    # is always deleted so the caller's recursion makes progress.
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


def extend_forest(g: Digraph, w: frozenset[int] | set[int],
                  x: frozenset[int] | set[int], s: int,
                  forest: EliminationForest) -> EliminationForest:
    """Given a forest valid for the subgraph on W union X, absorb the new
    vertex s: trees whose components merge with s into one strongly
    connected set become children of a new root pivoted at s whose scope is
    that merged set; all other trees carry over.  The result is valid for
    the subgraph on W union X union {s}.
    """
    base = frozenset(w) | frozenset(x)
    if s in base:
        raise InputError(f"vertex {s} is already present")
    if not 0 <= s < g.n:
        raise InputError(f"vertex {s} out of range for n={g.n}")
    problems = validate_forest(g, forest, base)
    if problems:
        raise InputError("forest not valid for the host subgraph: "
                         + "; ".join(problems))
    return _extend(g, base, s, list(forest.trees))


def _extend(g: Digraph, base: frozenset[int], s: int,
            trees: list[EliminationNode]) -> EliminationForest:
    domain = base | {s}
    comps = sccs_within(g, domain)
    merged_scope = next(c for c in comps if s in c)
    if not is_nontrivial_component(g, merged_scope):
        ordered = _order_roots(trees, comps)
        return EliminationForest(tuple(ordered))
    inside = [t for t in trees if t.scope <= merged_scope]
    outside = [t for t in trees if not t.scope <= merged_scope]
    child_order = nontrivial_sccs_within(g, merged_scope - {s})
    by_scope = {t.scope: t for t in inside}
    children = tuple(by_scope[c] for c in child_order)
    new_root = EliminationNode(s, merged_scope, children)
    ordered = _order_roots(outside + [new_root], comps)
    return EliminationForest(tuple(ordered))


def _order_roots(trees: list[EliminationNode],
                 comps: list[frozenset[int]]) -> list[EliminationNode]:
    by_scope = {t.scope: t for t in trees}
    ordered = [by_scope[c] for c in comps if c in by_scope]
    assert len(ordered) == len(trees), "tree scope is not a component of the host"
    return ordered


def crank_approx(g: Digraph, config: ApproxConfig | None = None) -> ApproxResult:
    """Approximate cycle rank: a valid elimination forest plus its height.

    No instance size limit; work is polynomial except for the exact solves
    on pieces at most EXACT_BASE_LIMIT large.
    """
    cfg = config or ApproxConfig()
    threshold = cfg.resolved_threshold(g.n)
    log: list[tuple[int, int]] = []

    def forest_for(vertices: frozenset[int], depth: int) -> list[EliminationNode]:
        trees: list[EliminationNode] = []
        for comp in sccs_within(g, vertices):
            if is_nontrivial_component(g, comp):
                trees.append(tree_for(comp, depth))
        return trees

    def tree_for(w: frozenset[int], depth: int) -> EliminationNode:
        if len(w) <= threshold:
            return _base_tree(g, w)
        s = find_balanced_separator(g, w, cfg)
        log.append((depth, len(s)))
        trees = forest_for(w - s, depth + 1)
        domain = w - s
        for v in sorted(s):
            forest = _extend(g, domain, v, trees)
            trees = list(forest.trees)
            domain = domain | {v}
        # W is strongly connected, so everything merged into one tree.
        assert len(trees) == 1
        return trees[0]

    trees = forest_for(frozenset(g.vertices), 0)
    forest = EliminationForest(tuple(trees))
    return ApproxResult(forest, height(forest), tuple(log))


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
    return _deletion_tree(g, w)


def _relabel(node: EliminationNode, mapping: list[int]) -> EliminationNode:
    return EliminationNode(mapping[node.pivot],
                           frozenset(mapping[v] for v in node.scope),
                           tuple(_relabel(c, mapping) for c in node.children))


def _deletion_tree(g: Digraph, comp: frozenset[int]) -> EliminationNode:
    pivot = min(comp)
    children = tuple(_deletion_tree(g, c)
                     for c in nontrivial_sccs_within(g, comp - {pivot}))
    return EliminationNode(pivot, comp, children)
