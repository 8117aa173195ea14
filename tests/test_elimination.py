"""Elimination forests: validation, height, conversion, text format."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from digrank import (
    Digraph,
    DomainError,
    EliminationForest,
    EliminationNode,
    ParseError,
    crank_exact,
    forest_to_path_decomposition,
    parse_forest,
    serialize_forest,
    validate_forest,
    validate_path_decomposition,
    width,
)
from digrank.digraph import nontrivial_sccs_within
from digrank.elimination import all_nodes, height, pivot_tree

from common import (bidirected_path, chain, clique, cycle, least_pivot_path_forest,
                    loop_vertex, with_comments)


def tree(pivot, scope, *children):
    return EliminationNode(pivot, frozenset(scope), tuple(children))


C3_FOREST = EliminationForest((tree(0, {0, 1, 2}),))
K3_FOREST = EliminationForest((tree(0, {0, 1, 2}, tree(1, {1, 2})),))


def test_height():
    assert height(EliminationForest()) == 0
    assert height(C3_FOREST) == 1
    assert height(K3_FOREST) == 2


def test_all_nodes_walks_every_node():
    assert len(all_nodes(K3_FOREST)) == 2
    assert {n.pivot for n in all_nodes(K3_FOREST)} == {0, 1}


def test_validate_c3_single_root():
    assert validate_forest(cycle(3), C3_FOREST) == []


def test_validate_k3_chain():
    assert validate_forest(clique(3), K3_FOREST) == []


def test_validate_empty_forest_on_acyclic_graph():
    assert validate_forest(chain(3), EliminationForest()) == []


def test_validate_loop_vertex_needs_its_own_root():
    assert validate_forest(loop_vertex(), EliminationForest()) != []
    assert validate_forest(
        loop_vertex(), EliminationForest((tree(0, {0}),))) == []


def test_validate_rejects_partial_root_scope():
    # {0,1} is not a strongly connected component of the 3-cycle.
    bad = EliminationForest((tree(0, {0, 1}),))
    violations = validate_forest(cycle(3), bad)
    assert any("not a nontrivial" in v for v in violations)
    assert any("missing root" in v for v in violations)


def test_validate_rejects_pivot_outside_scope():
    bad = EliminationForest((tree(5, {0, 1, 2}),))
    violations = validate_forest(cycle(3), bad)
    assert any(v.startswith("pivot 5 not in scope") for v in violations)


def test_validate_rejects_scope_outside_host():
    bad = EliminationForest((tree(0, {0, 1, 2, 9}),))
    violations = validate_forest(cycle(3), bad)
    assert any("leaves the host" in v for v in violations)


def test_validate_rejects_duplicate_scopes():
    dup = EliminationForest((tree(0, {0, 1, 2}), tree(1, {0, 1, 2})))
    violations = validate_forest(cycle(3), dup)
    assert any("appears on 2" in v for v in violations)


def test_validate_rejects_missing_child():
    # Removing pivot 0 from K_3 leaves the 2-cycle {1,2}; omitting it is
    # a violation, as is substituting a scope that is no component.
    no_child = EliminationForest((tree(0, {0, 1, 2}),))
    violations = validate_forest(clique(3), no_child)
    assert any("missing child" in v for v in violations)

    wrong_child = EliminationForest((tree(0, {0, 1, 2}, tree(1, {1})),))
    violations = validate_forest(clique(3), wrong_child)
    assert any("missing child" in v for v in violations)
    assert any("is not a" in v for v in violations)


def test_conversion_c3():
    bags = forest_to_path_decomposition(cycle(3), C3_FOREST)
    assert bags == [frozenset({0, 1}), frozenset({0, 2})]
    assert width(bags) == 1


def test_conversion_acyclic_is_singletons_in_topo_order():
    bags = forest_to_path_decomposition(chain(3), EliminationForest())
    assert bags == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_conversion_width_bounded_by_height():
    bags = forest_to_path_decomposition(clique(3), K3_FOREST)
    assert validate_path_decomposition(clique(3), bags) == []
    assert width(bags) <= height(K3_FOREST)


def test_deep_forest_conversion():
    # Deeper than the recursion limit: the conversion must not recurse.
    g = bidirected_path(1201)
    forest = least_pivot_path_forest(1201)
    bags = forest_to_path_decomposition(g, forest)
    assert validate_path_decomposition(g, bags) == []
    assert width(bags) <= height(forest)


def test_conversion_rejects_invalid_forest():
    with pytest.raises(DomainError):
        forest_to_path_decomposition(clique(3), C3_FOREST)


def test_serialize_format():
    assert serialize_forest(K3_FOREST) == "0 {0,1,2}\n  1 {1,2}\n"
    assert serialize_forest(EliminationForest()) == ""


def test_parse_roundtrip():
    for forest in [EliminationForest(), C3_FOREST, K3_FOREST,
                   EliminationForest((tree(0, {0, 1}), tree(2, {2, 3})))]:
        assert parse_forest(serialize_forest(forest)) == forest


def test_deep_forest_roundtrip():
    # Deeper than Python's default recursion limit of 1000 frames.
    forest = least_pivot_path_forest(1201)
    text = serialize_forest(forest)
    parsed = parse_forest(text)
    assert height(parsed) == 1200
    assert parsed == forest
    assert serialize_forest(parsed) == text


def test_deep_forest_equality_and_hash():
    # Deeper than the recursion limit: == and hash() must not recurse.
    n = 1201
    forest = least_pivot_path_forest(n)
    assert forest == least_pivot_path_forest(n)
    assert hash(forest) == hash(least_pivot_path_forest(n))

    # The same chain except for the pivot of the deepest node.
    node = EliminationNode(n - 1, frozenset({n - 2, n - 1}))
    for i in range(n - 3, -1, -1):
        node = EliminationNode(i, frozenset(range(i, n)), (node,))
    other = EliminationForest((node,))
    assert height(other) == height(forest)
    assert other != forest
    assert forest != other


def test_equality_compares_shape():
    # Same nodes in the same preorder, at other depths or fewer of them.
    siblings = tree(0, {0, 1, 2}, tree(1, {1}), tree(2, {2}))
    nested = tree(0, {0, 1, 2}, tree(1, {1}, tree(2, {2})))
    pruned = tree(0, {0, 1, 2}, tree(1, {1}))
    assert siblings == tree(0, {0, 1, 2}, tree(1, {1}), tree(2, {2}))
    for a, b in [(siblings, nested), (siblings, pruned), (pruned, siblings)]:
        assert a != b
    assert siblings != "0 {0,1,2}"


def test_deep_forest_pickles_and_deep_copies():
    # Deeper than the recursion limit: nodes pickle through the text format.
    forest = least_pivot_path_forest(1201)
    for copied in [pickle.loads(pickle.dumps(forest)), copy.deepcopy(forest)]:
        assert copied == forest
        assert height(copied) == 1200
    small = pickle.loads(pickle.dumps(K3_FOREST))
    assert small == K3_FOREST and repr(small) == repr(K3_FOREST)


def test_repr_text():
    # The text a generated dataclass repr prints: one child (a one-element
    # tuple), two children and none.
    assert repr(K3_FOREST) == (
        "EliminationForest(trees=(EliminationNode(pivot=0, scope=frozenset({0, 1, 2}), "
        "children=(EliminationNode(pivot=1, scope=frozenset({1, 2}), children=()),)),))")
    assert repr(tree(0, {0, 1, 2, 3}, tree(1, {1, 2}), tree(3, {3}))) == (
        "EliminationNode(pivot=0, scope=frozenset({0, 1, 2, 3}), children=("
        "EliminationNode(pivot=1, scope=frozenset({1, 2}), children=()), "
        "EliminationNode(pivot=3, scope=frozenset({3}), children=())))")


def test_deep_forest_repr():
    # Deeper than the recursion limit: repr must not recurse.
    text = repr(least_pivot_path_forest(1201))
    assert text.count("EliminationNode(") == 1200
    assert text.endswith("children=())" + ",))" * 1200)


def test_parse_errors():
    # The full error texts.  A fault found on a later line of the first
    # pass still wins over a skipped level above it.
    for text, message in [
            (" 0 {0}\n", "line 1: indentation must be a multiple of two spaces"),
            ("0 {0,1}\n\t1 {1}\n", "line 2: indentation must be spaces only"),
            ("0 {0,1}\n  \t1 {1}\n", "line 2: indentation must be spaces only"),
            ("0 {0,1}\n    1 {1}\n", "line 2: node skips an indentation level"),
            ("  0 {0}\n", "line 1: node skips an indentation level"),
            ("  0 {0}\nx {0}\n", "line 2: bad pivot 'x'"),
            ("x {0}\n", "line 1: bad pivot 'x'"),
            ("0\n", "line 1: expected '<pivot> {scope}', got '0'"),
            ("0   # a note\n", "line 1: expected '<pivot> {scope}', got '0'"),
            ("0 {0,x}\n", "line 1: bad vertex set '{0,x}'"),
            ("0 {0}\n  1 0,1\n", "line 2: expected {v1,v2,...}, got '0,1'")]:
        with pytest.raises(ParseError) as info:
            parse_forest(text)
        assert str(info.value) == message


def test_parse_skips_comments():
    text = "# witness\n0 {0,1,2}  # root\n\n  # its one child:\n  1 {1,2}\n"
    assert parse_forest(text) == K3_FOREST


@st.composite
def graphs_with_priorities(draw):
    n = draw(st.integers(0, 10))
    adj = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    g = Digraph.from_edges(n, [(u, v) for u in range(n) for v in range(n)
                               if adj[u * n + v]])
    return g, draw(st.permutations(range(n)))


def highest_first_forest(g, priority):
    """The forest that pivots every scope on its vertex of highest priority."""
    def highest(scope):
        return max(scope, key=priority.__getitem__)

    return EliminationForest(tuple(
        pivot_tree(g, c, highest) for c in nontrivial_sccs_within(g, g.vertices)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs_with_priorities())
def test_pivot_tree_is_valid_under_any_pivot_rule(case):
    g, priority = case
    forest = highest_first_forest(g, priority)
    assert validate_forest(g, forest) == []
    assert height(forest) >= crank_exact(g).value


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs_with_priorities(), st.data())
def test_text_round_trip_with_comments(case, data):
    forest = highest_first_forest(*case)
    text = serialize_forest(forest)
    parsed = parse_forest(with_comments(data, text))
    assert parsed == forest
    assert serialize_forest(parsed) == text
    assert height(parsed) == height(forest)


def test_pivot_tree_rejects_a_pivot_outside_its_scope():
    # The scope minus such a pivot is the scope again, so the tree would
    # never end.
    with pytest.raises(ValueError):
        pivot_tree(cycle(3), frozenset(range(3)), lambda scope: 7)
