"""Small graph and forest builders shared by the test modules."""

from hypothesis import strategies as st

from digrank import Digraph, EliminationForest, EliminationNode


def cycle(n):
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return Digraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n):
    """All ordered pairs of distinct vertices."""
    return Digraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(n) if i != j])


def chain(n):
    """Acyclic path 0 -> 1 -> ... -> n-1."""
    return Digraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def edgeless(n):
    return Digraph.from_edges(n, [])


def loop_vertex():
    return Digraph.from_edges(1, [(0, 0)])


def bidirected_path(n):
    """Path 0 - 1 - ... - n-1 with both edge directions."""
    return Digraph.from_edges(
        n, [e for i in range(n - 1) for e in ((i, i + 1), (i + 1, i))])


def least_pivot_path_forest(n):
    """The valid forest of bidirected_path(n) that pivots every scope on its
    least vertex: one chain of n - 1 nodes, built bottom up."""
    node = None
    for i in range(n - 2, -1, -1):
        node = EliminationNode(i, frozenset(range(i, n)),
                               (node,) if node else ())
    return EliminationForest((node,) if node else ())


NOTES = ["", "   ", "# a note", "  # an indented note", "#"]
TAILS = ["", "  ", " # a trailing note", "\t# two # marks"]


def with_comments(data, text):
    """``text`` with comment-only and blank lines, trailing comments and
    trailing blanks spliced in where the hypothesis ``data`` draws them;
    every text format must read the result as ``text``."""
    notes = st.lists(st.sampled_from(NOTES), max_size=2)
    out = []
    for line in text.splitlines():
        out += data.draw(notes)
        out.append(line + data.draw(st.sampled_from(TAILS)))
    out += data.draw(notes)
    return "\n".join(out) + "\n"
