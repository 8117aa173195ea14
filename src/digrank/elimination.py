"""Directed elimination forests.

A node is a pair (pivot, scope) with pivot in scope.  A forest is valid
for a digraph G when

  (a) every pivot lies in its scope,
  (b) the root scopes are exactly the nontrivial SCCs of G,
  (c) no two distinct nodes share a scope, and
  (d) the children of a node (x, X) have as scopes exactly the nontrivial
      SCCs of the subgraph induced on X minus x.

The height of a forest (nodes on a longest root-to-leaf path, 0 for the
empty forest) certifies an upper bound on the cycle rank; the minimum over
all valid forests equals it.

Text format, one node per line, depth shown by two-space indentation::

    0 {0,1,2}
      1 {1,2}

Siblings are stored in topological order of their scopes with ties broken
by smallest vertex id, so serialization is canonical for forests built by
this package.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from .digraph import (
    Digraph,
    format_vertex_set,
    is_nontrivial_component,
    nontrivial_sccs_within,
    parse_vertex_set,
    sccs_within,
)
from .errors import DomainError, ParseError


@dataclass(frozen=True)
class EliminationNode:
    pivot: int
    scope: frozenset[int]
    children: tuple["EliminationNode", ...] = ()


@dataclass(frozen=True)
class EliminationForest:
    trees: tuple[EliminationNode, ...] = ()

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)


def all_nodes(forest: EliminationForest) -> list[EliminationNode]:
    out = []
    todo = list(forest.trees)
    while todo:
        node = todo.pop()
        out.append(node)
        todo.extend(node.children)
    return out


def height(forest: EliminationForest) -> int:
    """Number of nodes on a longest root-to-leaf path; empty forest is 0."""
    best = 0
    todo = [(t, 1) for t in forest.trees]
    while todo:
        node, d = todo.pop()
        if d > best:
            best = d
        todo.extend((c, d + 1) for c in node.children)
    return best


def pivot_tree(g: Digraph, scope: frozenset[int],
               pivot_of: Callable[[frozenset[int]], int],
               built: Mapping[frozenset[int], EliminationNode] | None = None
               ) -> EliminationNode:
    """The tree of a nontrivial strongly connected scope under a pivot rule.

    The root is (x, scope) with x = pivot_of(scope); its children are the
    trees of the nontrivial SCCs of scope - x, built the same way and
    listed in sccs_within order.  That is condition (d) at every node, so
    the tree is valid for the subgraph on scope and serializes canonically.
    A scope found in ``built`` is taken as that finished subtree.
    """
    if built and scope in built:
        return built[scope]
    x = pivot_of(scope)
    return EliminationNode(x, scope, tuple(
        pivot_tree(g, c, pivot_of, built)
        for c in nontrivial_sccs_within(g, scope - {x})))


def validate_forest(g: Digraph, forest: EliminationForest,
                    vertices: Iterable[int] | None = None) -> list[str]:
    """Check the forest conditions; returns a list of violations, empty if ok.

    ``vertices`` restricts the host graph to an induced subgraph (scopes
    stay in original labels); by default the whole of G is the host.
    """
    domain = set(g.vertices) if vertices is None else set(vertices)
    violations: list[str] = []

    seen_scopes: dict[frozenset[int], int] = {}
    for node in all_nodes(forest):
        if node.pivot not in node.scope:
            violations.append(
                f"pivot {node.pivot} not in scope {format_vertex_set(node.scope)}")
        if not node.scope <= domain:
            stray = node.scope - domain
            violations.append(
                f"scope {format_vertex_set(node.scope)} leaves the host vertex set"
                f" (stray: {format_vertex_set(stray)})")
        seen_scopes[node.scope] = seen_scopes.get(node.scope, 0) + 1
    for scope, count in sorted(seen_scopes.items(), key=lambda kv: sorted(kv[0])):
        if count > 1:
            violations.append(
                f"scope {format_vertex_set(scope)} appears on {count} distinct nodes")
    if violations:
        # Structural damage; the component comparisons below would only
        # produce noise on top of it.
        return violations

    want_roots = set(nontrivial_sccs_within(g, domain))
    have_roots = {t.scope for t in forest.trees}
    for scope in sorted(want_roots - have_roots, key=sorted):
        violations.append(
            f"missing root for nontrivial component {format_vertex_set(scope)}")
    for scope in sorted(have_roots - want_roots, key=sorted):
        violations.append(
            f"root scope {format_vertex_set(scope)} is not a nontrivial"
            " strongly connected component")

    todo = [t for t in forest.trees if t.scope in want_roots]
    while todo:
        node = todo.pop()
        rest = node.scope - {node.pivot}
        want = set(nontrivial_sccs_within(g, rest))
        have = {c.scope for c in node.children}
        label = f"node ({node.pivot}, {format_vertex_set(node.scope)})"
        for scope in sorted(want - have, key=sorted):
            violations.append(
                f"{label}: missing child for component {format_vertex_set(scope)}")
        for scope in sorted(have - want, key=sorted):
            violations.append(
                f"{label}: child scope {format_vertex_set(scope)} is not a"
                " nontrivial strongly connected component of the scope minus the pivot")
        todo.extend(c for c in node.children if c.scope in want)
    return violations


def forest_to_path_decomposition(g: Digraph, forest: EliminationForest,
                                 vertices: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Directed path decomposition of width at most height(forest).

    Walks the SCCs of the host in topological order; a trivial component
    becomes a singleton bag, a nontrivial one recurses into its tree with
    the pivot added to every inner bag.
    """
    domain = set(g.vertices) if vertices is None else set(vertices)
    problems = validate_forest(g, forest, domain)
    if problems:
        raise DomainError("invalid elimination forest: " + "; ".join(problems))

    def build(verts: set[int], by_scope: dict) -> list[frozenset[int]]:
        bags: list[frozenset[int]] = []
        for comp in sccs_within(g, verts):
            if is_nontrivial_component(g, comp):
                node = by_scope[comp]
                inner = build(set(comp) - {node.pivot},
                              {c.scope: c for c in node.children})
                if inner:
                    bags.extend(b | {node.pivot} for b in inner)
                else:
                    bags.append(frozenset({node.pivot}))
            else:
                bags.append(comp)
        return bags

    return build(domain, {t.scope: t for t in forest.trees})


# ---------------------------------------------------------------------------
# text formats


def serialize_forest(forest: EliminationForest) -> str:
    lines: list[str] = []
    # Preorder on an explicit stack, so depth is not bounded by recursion.
    todo = [(t, 0) for t in reversed(forest.trees)]
    while todo:
        node, depth = todo.pop()
        lines.append("  " * depth + f"{node.pivot} {format_vertex_set(node.scope)}")
        todo.extend((c, depth + 1) for c in reversed(node.children))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_forest(text: str) -> EliminationForest:
    """Parse the indented node-per-line format back into a forest."""
    # Children lists are mutable while building, frozen at the end.
    entries: list[tuple[int, int, frozenset[int], int]] = []  # line, depth, scope, pivot
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % 2:
            raise ParseError("indentation must be a multiple of two spaces", line=lineno)
        fields = stripped.split(None, 1)
        if len(fields) != 2:
            raise ParseError(f"expected '<pivot> {{scope}}', got {raw!r}", line=lineno)
        try:
            pivot = int(fields[0])
        except ValueError:
            raise ParseError(f"bad pivot {fields[0]!r}", line=lineno) from None
        scope = parse_vertex_set(fields[1])
        entries.append((lineno, indent // 2, scope, pivot))

    roots: list[list] = []
    nodes: list[list] = []  # in line order, so every parent before its children
    stack: list[tuple[int, list]] = []  # (depth, mutable node [pivot, scope, children])
    for lineno, depth, scope, pivot in entries:
        node = [pivot, scope, []]
        nodes.append(node)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if depth == 0:
            roots.append(node)
        else:
            if not stack or stack[-1][0] != depth - 1:
                raise ParseError("node skips an indentation level", line=lineno)
            stack[-1][1][2].append(node)
        stack.append((depth, node))

    # Freezing in reverse line order finds every child already frozen, so
    # depth is not bounded by recursion; the frozen node goes in slot 3.
    for node in reversed(nodes):
        node.append(EliminationNode(node[0], node[1], tuple(c[3] for c in node[2])))
    return EliminationForest(tuple(r[3] for r in roots))
