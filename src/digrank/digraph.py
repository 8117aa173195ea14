"""Finite digraphs: the core type, SCC machinery, and text formats.

Vertices are the integers 0..n-1.  Edges are ordered pairs; loops (v, v)
are allowed and matter for every measure in this package, because a single
vertex with a loop is a nontrivial strongly connected component while a
single vertex without one is not.

The edge-list file format::

    # comment lines and blank lines are ignored
    digraph 3
    0 1
    1 2

Strongly connected components are always reported in topological order
(every edge between distinct components goes from an earlier component to
a later one); ties between incomparable components are broken by their
smallest contained vertex id, which makes every listing deterministic.

reach_mask, core_mask and scc_mask_partition are the mask engines.
reach_mask finds what one vertex reaches.  core_mask peels off vertices
with no successor or no predecessor left, keeping every cycle: it is the
one acyclicity test.  scc_mask_partition is the one SCC engine: every SCC
partition in the package comes from it (queries about a single vertex's
component use two reach_mask sweeps directly).  It peels the remainder R
(initially the vertex mask) one component at a time: take the least vertex
v of R, let B be the vertices of R that reach v, and sweep forward from v
inside B.  The sweep finds exactly v's component.  Everything it reaches
lies in B, so it reaches v and is reached from v.  Conversely, if w is in
v's component, every vertex on a path from v to w is reached from v and
reaches w, hence v, so the whole path lies in B.  Since each peel removes
a whole component, v's component in R is its component in the full mask,
and the components come out by ascending least vertex.  sccs_within orders
them topologically with Kahn's algorithm on the condensation.
nontrivial_sccs_within orders only when two or more components are
nontrivial; one or none needs no order.
"""

from __future__ import annotations

import heapq
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

from .bitsets import bits, mask_of, set_of
from .errors import InputError, ParseError

Edge = tuple[int, int]

# Largest n for which crank_approx and validate_forest run.  Both build
# succ_masks and pred_masks, about n^2/4 bytes together: 64 MB at n = 2^14.
# The check comes first, so a file declaring a far larger n fails at once
# instead of growing until memory runs out.
MASK_VERTEX_LIMIT = 1 << 14


@dataclass(frozen=True)
class Digraph:
    """An immutable digraph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"vertex count must be >= 0, got {self.n}")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InputError(f"edge ({u}, {v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Digraph":
        return cls(n, frozenset((int(u), int(v)) for u, v in edges))

    @property
    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
        return tuple(tuple(sorted(vs)) for vs in out)

    @cached_property
    def pred(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            inc[v].append(u)
        return tuple(tuple(sorted(us)) for us in inc)

    @cached_property
    def succ_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(vs) for vs in self.succ)

    @cached_property
    def pred_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(us) for us in self.pred)

    @cached_property
    def loop_mask(self) -> int:
        return mask_of(u for u, v in self.edges if u == v)

    def __repr__(self):
        return f"Digraph(n={self.n}, m={len(self.edges)})"


# ---------------------------------------------------------------------------
# mask-level reachability, shared by the exact solvers


def reach_mask(succ_masks, sub: int, v: int) -> int:
    """Vertices of ``sub`` reachable from v (v included), following succ_masks."""
    seen = 1 << v
    frontier = succ_masks[v] & sub & ~seen
    while frontier:
        seen |= frontier
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= succ_masks[low.bit_length() - 1]
            m ^= low
        frontier = nxt & sub & ~seen
    return seen


def core_mask(succ_masks, pred_masks, sub: int, check: int) -> int:
    """The core of the mask ``sub``: what is left after repeatedly dropping
    a vertex with no successor or no predecessor inside it.  No cycle loses a
    vertex, so the core is empty exactly when ``sub`` is acyclic.  Only
    vertices of ``check`` and neighbours of dropped vertices are tested, so
    ``check`` must hold every vertex that may already qualify."""
    check &= sub
    while check:
        low = check & -check
        check ^= low
        v = low.bit_length() - 1
        if not (succ_masks[v] & sub and pred_masks[v] & sub):
            sub ^= low
            check |= (succ_masks[v] | pred_masks[v]) & sub
    return sub


def scc_mask_partition(succ_masks, pred_masks, sub: int) -> Iterator[int]:
    """Yield the SCC masks of the subgraph on ``sub`` by ascending least vertex.

    See the module docstring for why each peel is exactly one component.
    """
    rem = sub
    while rem:
        v = (rem & -rem).bit_length() - 1
        comp = reach_mask(succ_masks, reach_mask(pred_masks, rem, v), v)
        yield comp
        rem ^= comp


def cut_masks(g: Digraph, comp: int) -> dict[int, int]:
    """For each vertex v of the strongly connected subgraph of G on the
    mask ``comp``, with r its least vertex: the mask of the vertices of
    comp - v outside r's component in comp - v (all of comp - r when v = r).

    r reaches w in comp - v unless v dominates w from r, and w reaches r
    unless v dominates w from r in the reverse graph (Italiano, Laura,
    Santaroni, "Finding strong bridges and strong articulation points in
    linear time", TCS 2012).  So the mask holds v's proper subtrees in the
    forward and the reverse dominator tree from r.

    Each tree is built from the dominator sets in O(|comp|) steps.  The
    dominators of w are totally ordered along the tree path from r, so
    dom[w] - {w} is the set of w's immediate dominator, and distinct
    vertices have distinct sets.  An immediate dominator lies on every
    path from r to w, a shortest one included, so it is strictly nearer
    to r and comes earlier in breadth-first order; in reversed order each
    vertex's subtree is complete before it is ORed into its parent's.
    """
    r = (comp & -comp).bit_length() - 1
    cut = dict.fromkeys(bits(comp), 0)
    for succ_masks, pred_lists in ((g.succ_masks, g.pred), (g.pred_masks, g.succ)):
        dom = _dominator_sets(succ_masks, pred_lists, comp, r)
        vertex_of = {d: w for w, d in dom.items()}
        below = dict.fromkeys(dom, 0)
        for w in reversed(dom):
            if w != r:
                below[vertex_of[dom[w] ^ 1 << w]] |= below[w] | 1 << w
        for v, m in below.items():
            cut[v] |= m
    return cut


def _dominator_sets(succ_masks, pred_lists, comp: int, r: int) -> dict[int, int]:
    """Each vertex's dominator-set mask in the flowgraph on ``comp`` rooted
    at r, following succ_masks (every vertex of comp must be reachable
    from r), keyed in breadth-first order from r.  ``pred_lists`` holds
    every vertex's predecessors in the whole graph (G.pred, or G.succ for
    the reverse flowgraph).

    v's dominators, the vertices on every path from r to v, are the
    greatest solution of dom[r] = {r}, dom[v] = {v} | (the meet of dom[p]
    over v's predecessors p in comp).  Every set starts at comp, above
    that solution, and each update keeps it above: the meet of supersets
    is a superset.  The sets only shrink, so the sweeps stop, and they
    stop at a solution, hence at the greatest one.  Visiting the vertices
    in breadth-first layers from r lets most sets settle in one sweep.

    The sets live in a list over all of G's vertices, each entry starting
    at comp, and only vertices of comp are ever updated.  A predecessor
    outside comp thus keeps the set comp, the identity of a meet inside
    comp, so the full predecessor lists give the meet over the
    predecessors in comp without filtering them.
    """
    order = [r]
    seen = 1 << r
    frontier = succ_masks[r] & comp & ~seen
    while frontier:
        seen |= frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            order.append(v)
            nxt |= succ_masks[v]
            frontier ^= low
        frontier = nxt & comp & ~seen
    dom = [comp] * len(pred_lists)
    dom[r] = 1 << r
    rest = order[1:]
    changed = True
    while changed:
        changed = False
        for v in rest:
            d = comp
            for p in pred_lists[v]:
                d &= dom[p]
            d |= 1 << v
            if d != dom[v]:
                dom[v] = d
                changed = True
    return {v: dom[v] for v in order}


def _vertex_mask(g: Digraph, vertices: Iterable[int]) -> int:
    """Mask of ``vertices``; InputError unless each is a vertex id of G."""
    allowed = set(vertices)
    for v in allowed:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
    return mask_of(allowed)


def sccs_within(g: Digraph, vertices: Iterable[int]) -> list[frozenset[int]]:
    """SCCs of the subgraph induced on ``vertices``, in original labels.

    Topological order, ties by smallest contained vertex id.
    """
    sub = _vertex_mask(g, vertices)
    succ = g.succ_masks
    comps = list(scc_mask_partition(succ, g.pred_masks, sub))
    # Kahn's algorithm on the condensation.  The partition is in ascending
    # least-vertex order, so a component's index is its tie-break key.
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in bits(comp):
            comp_of[v] = i
    targets = []
    indeg = [0] * len(comps)
    for comp in comps:
        out = 0
        for v in bits(comp):
            out |= succ[v]
        ts = {comp_of[w] for w in bits(out & sub & ~comp)}
        for j in ts:
            indeg[j] += 1
        targets.append(ts)
    heap = [i for i, d in enumerate(indeg) if not d]  # ascending, so a heap
    ordered = []
    while heap:
        i = heapq.heappop(heap)
        ordered.append(set_of(comps[i]))
        for j in targets[i]:
            indeg[j] -= 1
            if not indeg[j]:
                heapq.heappush(heap, j)
    return ordered


def is_nontrivial_component(g: Digraph, comp: frozenset[int]) -> bool:
    """A component is nontrivial iff it contains at least one edge."""
    if len(comp) > 1:
        return True
    (v,) = comp
    return (v, v) in g.edges


def nontrivial_sccs_within(g: Digraph, vertices: Iterable[int]) -> list[frozenset[int]]:
    """The nontrivial SCCs of the subgraph induced on ``vertices``, in
    sccs_within order.  At most one needs no ordering, so only two or more
    are handed to sccs_within."""
    sub = _vertex_mask(g, vertices)
    loops = g.loop_mask
    comps = [c for c in scc_mask_partition(g.succ_masks, g.pred_masks, sub)
             if c & (c - 1) or c & loops]
    if len(comps) <= 1:
        return [set_of(c) for c in comps]
    return [c for c in sccs_within(g, bits(sub)) if is_nontrivial_component(g, c)]


def is_acyclic(g: Digraph) -> bool:
    """True iff G has no cycle; a loop counts as a cycle."""
    full = (1 << g.n) - 1
    return not core_mask(g.succ_masks, g.pred_masks, full, full)


def is_strongly_connected(g: Digraph) -> bool:
    """True iff G has at most one SCC (the empty graph passes vacuously)."""
    if g.n <= 1:
        return True
    full = (1 << g.n) - 1
    return reach_mask(g.succ_masks, full, 0) == full and reach_mask(g.pred_masks, full, 0) == full


def induced(g: Digraph, vertices: Iterable[int]) -> Digraph:
    """Subgraph induced on ``vertices``, relabeled canonically.

    New vertex i corresponds to sorted(vertices)[i]; the relabeling is
    therefore recoverable from the argument alone.
    """
    vs = list(bits(_vertex_mask(g, vertices)))
    rank = {v: i for i, v in enumerate(vs)}
    keep = set(vs)
    return Digraph(len(vs), frozenset((rank[u], rank[v]) for u, v in g.edges
                                      if u in keep and v in keep))


def degrees(g: Digraph) -> list[tuple[int, int]]:
    """Per vertex (outdegree, total degree).

    Outdegree counts out-neighbors |{u : (v, u) in E}|; total degree counts
    distinct neighbors in either direction, so a loop contributes one
    neighbor (the vertex itself) to both.
    """
    return [(len(g.succ[v]), len(set(g.succ[v]) | set(g.pred[v]))) for v in g.vertices]


# ---------------------------------------------------------------------------
# text formats


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list format; see the module docstring.

    Repeated edges are collapsed to one; each repeat emits a UserWarning so
    front ends can surface it.
    """
    n: int | None = None
    edges: set[Edge] = set()
    for lineno, line in _content_lines(text):
        fields = line.split()
        if n is None:
            if fields[0] != "digraph" or len(fields) != 2:
                raise ParseError("expected header 'digraph <n>'", line=lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"bad vertex count {fields[1]!r}", line=lineno) from None
            if n < 0:
                raise ParseError(f"vertex count must be >= 0, got {n}", line=lineno)
            continue
        if len(fields) != 2:
            raise ParseError(f"expected '<u> <v>', got {line.lstrip()!r}", line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"bad edge {line.lstrip()!r}", line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u}, {v}) out of range for n={n}", line=lineno)
        if (u, v) in edges:
            warnings.warn(f"duplicate edge {u} {v} (line {lineno})", stacklevel=2)
        edges.add((u, v))
    if n is None:
        raise ParseError("missing 'digraph <n>' header")
    return Digraph(n, frozenset(edges))


def serialize_digraph(g: Digraph) -> str:
    lines = [f"digraph {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def format_vertex_set(s: Iterable[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def parse_vertex_set(text: str, line: int | None = None) -> frozenset[int]:
    """Parse ``{v1,v2,...}``; ``line`` numbers a ParseError."""
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ParseError(f"expected {{v1,v2,...}}, got {text!r}", line=line)
    body = t[1:-1].strip()
    if not body:
        return frozenset()
    try:
        return frozenset(int(p) for p in body.split(","))
    except ValueError:
        raise ParseError(f"bad vertex set {text!r}", line=line) from None


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of ``text`` that holds more than
    a comment, with the ``#`` comment and trailing blanks cut.  Every text
    format of the package reads its lines through here."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line:
            yield lineno, line
