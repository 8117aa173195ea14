"""Directed path decompositions, weak balanced separators, and the chain
of bounds connecting them to cycle rank.

A directed path decomposition of G is a sequence of bags W_1..W_r with

  (a) every vertex in at least one bag,
  (b) W_i  intersected with  W_k contained in W_j whenever i < j < k,
  (c) for every edge (u, v): some bag holds both endpoints, or u appears
      in a strictly earlier bag than some bag holding v.

Its width is the largest bag size minus one; dpw(G) is the least width
over all decompositions.

S is a weak balanced separator for U when every SCC of the subgraph
induced on U minus S has at most ceil(|U - S| / 2) vertices.  The ceiling
is what makes separator sizes upward closed (a size-k separator implies a
size-(k+1) one); note that an arbitrary superset of a separator need not
be one, because the budget shrinks with the residual.  snum(G) maximizes
the minimum separator size over all U.

For loop-free G the chain  snum <= dpw <= crank <= R_k(n) - 1  holds with
k = snum(G), where R_k is the recurrence R_k(n) = k + R_k(ceil((n-k)/2))
with R_k(n) = n for n <= k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bitsets import bits, mask_of, set_of
from .cyclerank import crank_exact
from .digraph import (
    Digraph,
    _content_lines,
    _vertex_mask,
    format_vertex_set,
    parse_vertex_set,
    scc_mask_partition,
)
from .errors import CapacityError, InputError

DPW_VERTEX_LIMIT = 20
SNUM_VERTEX_LIMIT = 15
LAYOUT_LIMIT = 7

Bags = list[frozenset[int]]


def validate_path_decomposition(g: Digraph, bags: Bags) -> list[str]:
    """Check conditions (a)-(c) literally; returns violations, empty if ok."""
    violations: list[str] = []
    positions: dict[int, list[int]] = {}
    for i, bag in enumerate(bags):
        for v in bag:
            if not 0 <= v < g.n:
                violations.append(f"bag {i} contains out-of-range vertex {v}")
            else:
                positions.setdefault(v, []).append(i)
    for v in g.vertices:
        if v not in positions:
            violations.append(f"(a) vertex {v} appears in no bag")
    for v, pos in sorted(positions.items()):
        lo, hi = pos[0], pos[-1]
        have = set(pos)
        for j in range(lo + 1, hi):
            if j not in have:
                violations.append(
                    f"(b) vertex {v} is in bags {lo} and {hi} but not in bag {j}")
                break
    for u, v in sorted(g.edges):
        pu = positions.get(u)
        pv = positions.get(v)
        if not pu or not pv:
            continue  # already reported under (a)
        together = any(u in bag and v in bag for bag in bags)
        if not together and not pu[0] < pv[-1]:
            violations.append(
                f"(c) edge ({u}, {v}) has no joint bag and no earlier-u/later-v pair")
    return violations


def width(bags: Bags) -> int:
    """Largest bag size minus one; the empty decomposition reports 0."""
    if not bags:
        return 0
    return max(len(b) for b in bags) - 1


# ---------------------------------------------------------------------------
# exact directed pathwidth


def dpw_exact(g: Digraph) -> tuple[int, Bags]:
    """Minimum directed pathwidth with a witness decomposition.

    Searches over vertex deletion orders: after deleting the set D, every
    in-neighbor of D outside D is pinned in the current bag, and deleting w
    next momentarily needs A(D), the not-yet-deleted in-neighbors of w, and
    w itself in one bag.  The least achievable maximum bag size over all
    orders, minus one, is dpw(G); iterative deepening over the width with a
    memoized set of failed states keeps the search tame.
    """
    if g.n > DPW_VERTEX_LIMIT:
        raise CapacityError(f"dpw_exact limited to n <= {DPW_VERTEX_LIMIT}, got n={g.n}")
    n = g.n
    if n == 0:
        return 0, []
    pred = g.pred_masks
    full = (1 << n) - 1

    def attempt(k: int) -> Bags | None:
        cap = k + 1
        failed: set[int] = set()

        def dfs(done: int, active: int) -> Bags | None:
            if done == full:
                return []
            if done in failed:
                return None
            m = full & ~done
            while m:
                low = m & -m
                m ^= low
                w = low.bit_length() - 1
                peak = active | (pred[w] & ~done) | low
                if peak.bit_count() <= cap:
                    ndone = done | low
                    rest = dfs(ndone, (active | pred[w]) & ~ndone)
                    if rest is not None:
                        return [set_of(peak)] + rest
            failed.add(done)
            return None

        return dfs(0, 0)

    for k in range(n):
        bags = attempt(k)
        if bags is not None:
            return k, bags
    raise AssertionError("unreachable: width n-1 always admits an order")


def dpw_by_layout_enumeration(g: Digraph) -> int:
    """Brute-force oracle: try every deletion order (n! of them)."""
    if g.n > LAYOUT_LIMIT:
        raise CapacityError(f"layout enumeration limited to n <= {LAYOUT_LIMIT}, got n={g.n}")
    n = g.n
    if n == 0:
        return 0
    pred = g.pred_masks
    best = n
    for perm in itertools.permutations(range(n)):
        done = 0
        active = 0
        peak = 0
        for w in perm:
            low = 1 << w
            size = (active | (pred[w] & ~done) | low).bit_count()
            if size > peak:
                peak = size
                if peak - 1 >= best:
                    break
            done |= low
            active = (active | pred[w]) & ~done
        else:
            best = min(best, peak - 1)
    return best


# ---------------------------------------------------------------------------
# weak balanced separators


def _balanced(g: Digraph, rest: int) -> bool:
    """True iff every SCC of the subgraph on the mask ``rest`` has at most
    ceil(|rest| / 2) vertices."""
    bound = (rest.bit_count() + 1) // 2
    return all(c.bit_count() <= bound
               for c in scc_mask_partition(g.succ_masks, g.pred_masks, rest))


def is_weak_balanced_separator(g: Digraph, u: frozenset[int] | set[int],
                               s: frozenset[int] | set[int]) -> bool:
    """True iff every SCC of the subgraph on U - S has at most
    ceil(|U - S| / 2) vertices.  Requires S subset of U subset of V.
    """
    u = frozenset(u)
    s = frozenset(s)
    if not s <= u:
        raise InputError("separator must be a subset of the target set")
    return _balanced(g, _vertex_mask(g, u) & ~mask_of(s))


def least_separator(g: Digraph, u_mask: int) -> int:
    """Mask of the least weak balanced separator S of U: the first S inside
    U, by size and then lexicographically, leaving every SCC of U - S at
    most ceil(|U - S| / 2) vertices; one SCC partition per candidate.
    S = U always qualifies.
    """
    verts = list(bits(u_mask))
    for k in range(len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            s_mask = mask_of(combo)
            if _balanced(g, u_mask & ~s_mask):
                return s_mask
    raise AssertionError("unreachable: S = U always qualifies")


def snum_exact(g: Digraph) -> int:
    """max over U of the minimum weak balanced separator size for U.

    Doubly exponential enumeration; U ranges over subsets in decreasing
    cardinality with a running bound so most subsets only need to be
    cleared, not solved.
    """
    if g.n > SNUM_VERTEX_LIMIT:
        raise CapacityError(f"snum_exact limited to n <= {SNUM_VERTEX_LIMIT}, got n={g.n}")
    best = 0
    for u_mask in sorted(range(1, 1 << g.n), key=int.bit_count, reverse=True):
        m = u_mask.bit_count()
        if m <= best:
            break  # min separator size never exceeds |U|
        best = max(best, least_separator(g, u_mask).bit_count())
    return best


# ---------------------------------------------------------------------------
# the recurrence bound and the combined report


def rk(k: int, n: int) -> int:
    """R_k(n) = k + R_k(ceil((n - k) / 2)), with R_k(n) = n once n <= k."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n <= k:
        return n
    return k + rk(k, (n - k + 1) // 2)


@dataclass(frozen=True)
class BoundsReport:
    n: int
    snum: int
    dpw: int
    crank: int
    rk_bound: int | None  # R_k(n) - 1 for k = snum, when snum >= 1
    chain_ok: bool


def check_bounds(g: Digraph) -> BoundsReport:
    """Evaluate snum <= dpw <= crank (<= R_k(n) - 1 when k >= 1) on a
    loop-free digraph.  Loops are rejected: the separator-based chain is
    only claimed for loop-free graphs.
    """
    if g.loop_mask:
        raise InputError("bounds chain requires a loop-free digraph")
    k = snum_exact(g)
    d, _ = dpw_exact(g)
    c = crank_exact(g).value
    if k == 0:
        return BoundsReport(g.n, k, d, c, None, k <= d <= c and c == 0)
    bound = rk(k, g.n) - 1
    return BoundsReport(g.n, k, d, c, bound, k <= d <= c <= bound)


# ---------------------------------------------------------------------------
# text format: one bag per line


def serialize_path_decomposition(bags: Bags) -> str:
    return "\n".join(format_vertex_set(b) for b in bags) + ("\n" if bags else "")


def parse_path_decomposition(text: str) -> Bags:
    return [parse_vertex_set(line.lstrip(), lineno) for lineno, line in _content_lines(text)]
