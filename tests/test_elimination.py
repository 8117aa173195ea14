"""Elimination forests: validation, height, conversion, text format."""

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

from common import chain, clique, cycle, least_pivot_path_forest, loop_vertex


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


def test_validate_with_restricted_host():
    # Host restricted to {0,1,2} of C_4: the cycle is broken, no roots.
    assert validate_forest(cycle(4), EliminationForest(), {0, 1, 2}) == []
    assert validate_forest(cycle(4), EliminationForest(), None) != []


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

    # Node equality recurses once per level, so compare the walks instead.
    def shape(f):
        return [(n.pivot, n.scope, len(n.children)) for n in all_nodes(f)]

    assert shape(parsed) == shape(forest)
    assert serialize_forest(parsed) == text


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_forest(" 0 {0}\n")  # odd indentation
    with pytest.raises(ParseError):
        parse_forest("0 {0,1}\n    1 {1}\n")  # skips a level
    with pytest.raises(ParseError):
        parse_forest("x {0}\n")
    with pytest.raises(ParseError):
        parse_forest("0\n")


@st.composite
def graphs_with_priorities(draw):
    n = draw(st.integers(0, 10))
    adj = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    g = Digraph.from_edges(n, [(u, v) for u in range(n) for v in range(n)
                               if adj[u * n + v]])
    return g, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs_with_priorities())
def test_pivot_tree_is_valid_under_any_pivot_rule(case):
    g, priority = case

    def highest(scope):
        return max(scope, key=priority.__getitem__)

    forest = EliminationForest(tuple(
        pivot_tree(g, c, highest) for c in nontrivial_sccs_within(g, g.vertices)))
    assert validate_forest(g, forest) == []
    assert height(forest) >= crank_exact(g).value
