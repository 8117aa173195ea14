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

scc_mask_partition is the one SCC engine: every SCC partition in the
package comes from it (queries about a single vertex's component use two
reach_mask sweeps directly).  It peels the remainder R (initially the
vertex mask) one component at a time: take the least vertex v of R, let B
be the vertices of R that reach v, and sweep forward from v inside B.  The
sweep finds exactly v's component.  Everything it reaches lies in B, so it
reaches v and is reached from v.  Conversely, if w is in v's component,
every vertex on a path from v to w is reached from v and reaches w, hence
v, so the whole path lies in B.  Since each peel removes a whole
component, v's component in R is its component in the full mask, and the
components come out by ascending least vertex.  sccs_within orders them
topologically with Kahn's algorithm on the condensation.
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
        return mask_of(v for v in range(self.n) if (v, v) in self.edges)

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


def acyclic_mask(succ_masks, sub: int) -> bool:
    """True iff the subgraph induced on the mask ``sub`` has no cycle."""
    cur = sub
    while cur:
        drop = 0
        m = cur
        while m:
            low = m & -m
            if not (succ_masks[low.bit_length() - 1] & cur):
                drop |= low
            m ^= low
        if not drop:
            return False
        cur ^= drop
    return True


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


def scc(g: Digraph) -> list[frozenset[int]]:
    """The SCC partition of G, topologically ordered (see sccs_within)."""
    return sccs_within(g, g.vertices)


def is_nontrivial_component(g: Digraph, comp: frozenset[int]) -> bool:
    """A component is nontrivial iff it contains at least one edge."""
    if len(comp) > 1:
        return True
    (v,) = comp
    return (v, v) in g.edges


def nontrivial_sccs_within(g: Digraph, vertices: Iterable[int]) -> list[frozenset[int]]:
    return [c for c in sccs_within(g, vertices) if is_nontrivial_component(g, c)]


def is_acyclic_within(g: Digraph, vertices: Iterable[int]) -> bool:
    return acyclic_mask(g.succ_masks, _vertex_mask(g, vertices))


def is_acyclic(g: Digraph) -> bool:
    """True iff G has no cycle; a loop counts as a cycle."""
    return acyclic_mask(g.succ_masks, (1 << g.n) - 1)


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
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
            raise ParseError(f"expected '<u> <v>', got {line!r}", line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"bad edge {line!r}", line=lineno) from None
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


def to_dot(g: Digraph) -> str:
    lines = ["digraph {"]
    covered = {v for e in g.edges for v in e}
    for v in g.vertices:
        if v not in covered:
            lines.append(f"  {v};")
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_vertex_set(s: Iterable[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def parse_vertex_set(text: str) -> frozenset[int]:
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ParseError(f"expected {{v1,v2,...}}, got {text!r}")
    body = t[1:-1].strip()
    if not body:
        return frozenset()
    try:
        return frozenset(int(p) for p in body.split(","))
    except ValueError:
        raise ParseError(f"bad vertex set {text!r}") from None
