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

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from itertools import zip_longest

from .digraph import (
    MASK_VERTEX_LIMIT,
    Digraph,
    _content_lines,
    format_vertex_set,
    is_nontrivial_component,
    nontrivial_sccs_within,
    parse_vertex_set,
    sccs_within,
)
from .errors import CapacityError, DomainError, ParseError


@dataclass(frozen=True, eq=False, repr=False)
class EliminationNode:
    pivot: int
    scope: frozenset[int]
    children: tuple["EliminationNode", ...] = ()

    # repr and comparison walk an explicit stack, hashing looks at the root
    # only and pickling goes through the text format, whose printer and
    # parser walk explicit stacks; so none is bounded by the recursion
    # limit on deep trees.
    def __repr__(self):
        # The text the generated dataclass repr would print.
        parts = []
        todo = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            kids = item.children
            parts.append(f"{type(item).__qualname__}(pivot={item.pivot!r}, "
                         f"scope={item.scope!r}, children=(")
            todo.append(",))" if len(kids) == 1 else "))")
            for i in range(len(kids) - 1, -1, -1):
                todo.append(kids[i])
                if i:
                    todo.append(", ")
        return "".join(parts)

    def __eq__(self, other):
        if not isinstance(other, EliminationNode):
            return NotImplemented
        # A preorder with depths determines an ordered tree.
        a, b = (((d, n.pivot, n.scope) for n, d in _preorder((t,))) for t in (self, other))
        return all(x == y for x, y in zip_longest(a, b))

    def __hash__(self):
        return hash((self.pivot, self.scope))

    def __reduce__(self):
        return _parse_tree, (serialize_forest(EliminationForest((self,))),)


def _parse_tree(text: str) -> EliminationNode:
    [tree] = parse_forest(text).trees
    return tree


@dataclass(frozen=True)
class EliminationForest:
    trees: tuple[EliminationNode, ...] = ()

    def __iter__(self):
        return iter(self.trees)

    def __len__(self):
        return len(self.trees)


def _preorder(trees: tuple[EliminationNode, ...]) -> Iterator[tuple[EliminationNode, int]]:
    """(node, depth) for every node of the trees, parents before children
    and siblings left to right, on an explicit stack; roots have depth 0."""
    todo = [(t, 0) for t in reversed(trees)]
    while todo:
        node, depth = todo.pop()
        yield node, depth
        todo.extend((c, depth + 1) for c in reversed(node.children))


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
    return max((d for _, d in _preorder(forest.trees)), default=-1) + 1


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
    # Frames (pivot, scope, child scopes, finished children) on an explicit
    # stack, so depth is not bounded by recursion; the bottom one holds the root.
    stack = [(None, None, [scope], [])]
    while True:
        x, s, comps, done = stack[-1]
        if len(done) < len(comps):
            c = comps[len(done)]
            if built and c in built:
                done.append(built[c])
                continue
            y = pivot_of(c)
            if y not in c:  # c - {y} would be c again, without end
                raise ValueError(f"pivot {y} not in scope {format_vertex_set(c)}")
            stack.append((y, c, nontrivial_sccs_within(g, c - {y}), []))
        elif len(stack) > 1:
            stack.pop()
            stack[-1][3].append(EliminationNode(x, s, tuple(done)))
        else:
            return done[0]


def validate_forest(g: Digraph, forest: EliminationForest) -> list[str]:
    """Check the forest conditions; returns a list of violations, empty if ok.

    Limited to n <= MASK_VERTEX_LIMIT."""
    if g.n > MASK_VERTEX_LIMIT:
        raise CapacityError(
            f"validate_forest limited to n <= {MASK_VERTEX_LIMIT}, got n={g.n}")
    domain = set(g.vertices)
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


def forest_to_path_decomposition(g: Digraph, forest: EliminationForest) -> list[frozenset[int]]:
    """Directed path decomposition of width at most height(forest).

    Walks the SCCs of the host in topological order; a trivial component
    becomes a singleton bag, a nontrivial one descends into its tree with
    the pivot added to every inner bag.
    """
    problems = validate_forest(g, forest)
    if problems:
        raise DomainError("invalid elimination forest: " + "; ".join(problems))

    # An explicit stack of (scope, ancestor pivots, children by scope),
    # so depth is not bounded by recursion; a finished bag is pushed as
    # (bag, None, None) to keep the components' order.
    bags: list[frozenset[int]] = []
    todo = [(frozenset(g.vertices), frozenset(), {t.scope: t for t in forest.trees})]
    while todo:
        verts, pivots, by_scope = todo.pop()
        if by_scope is None:
            bags.append(verts)
            continue
        for comp in reversed(sccs_within(g, verts)):
            if not is_nontrivial_component(g, comp):
                todo.append((comp | pivots, None, None))
                continue
            node = by_scope[comp]
            above = pivots | {node.pivot}
            if comp == {node.pivot}:
                todo.append((above, None, None))
            else:
                todo.append((comp - {node.pivot}, above,
                             {c.scope: c for c in node.children}))
    return bags


# ---------------------------------------------------------------------------
# text formats


def serialize_forest(forest: EliminationForest) -> str:
    return "".join(f"{'  ' * depth}{node.pivot} {format_vertex_set(node.scope)}\n"
                   for node, depth in _preorder(forest.trees))


def parse_forest(text: str) -> EliminationForest:
    """Parse the indented node-per-line format back into a forest."""
    entries: list[tuple[int, int, frozenset[int]]] = []  # depth, pivot, scope
    skips: list[int] = []  # reported after any other fault, wherever it is
    for lineno, line in _content_lines(text):
        stripped = line.lstrip(" ")
        indent = len(line) - len(stripped)
        if stripped[0].isspace():  # a tab or other blank among the spaces
            raise ParseError("indentation must be spaces only", line=lineno)
        if indent % 2:
            raise ParseError("indentation must be a multiple of two spaces", line=lineno)
        fields = stripped.split(None, 1)
        if len(fields) != 2:
            raise ParseError(f"expected '<pivot> {{scope}}', got {line!r}", line=lineno)
        try:
            pivot = int(fields[0])
        except ValueError:
            raise ParseError(f"bad pivot {fields[0]!r}", line=lineno) from None
        scope = parse_vertex_set(fields[1], lineno)
        if indent // 2 > (entries[-1][0] + 1 if entries else 0):
            skips.append(lineno)
        entries.append((indent // 2, pivot, scope))
    if skips:
        raise ParseError("node skips an indentation level", line=skips[0])

    # Bottom up: walking the lines in reverse, a node's children are the
    # nodes one level deeper on top of the stack, its first child on top;
    # so every node is built frozen, and depth is not bounded by recursion.
    stack: list[tuple[int, EliminationNode]] = []
    for depth, pivot, scope in reversed(entries):
        children = []
        while stack and stack[-1][0] == depth + 1:
            children.append(stack.pop()[1])
        stack.append((depth, EliminationNode(pivot, scope, tuple(children))))
    return EliminationForest(tuple(node for _, node in reversed(stack)))
