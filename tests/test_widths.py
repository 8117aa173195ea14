"""Path decompositions, weak balanced separators, and the bounds chain.

dpw_by_layout_enumeration (all n! deletion orders) is the oracle for
dpw_exact; separator checks are definitional and serve as their own.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from digrank import (
    CapacityError,
    Digraph,
    InputError,
    ParseError,
    check_bounds,
    crank_exact,
    dpw_exact,
    is_weak_balanced_separator,
    rk,
    snum_exact,
    validate_path_decomposition,
    width,
)
from digrank.bitsets import mask_of, set_of
from digrank.generate import random_digraph
from digrank.widths import (
    dpw_by_layout_enumeration,
    least_separator,
    parse_path_decomposition,
    serialize_path_decomposition,
)

from common import chain, clique, cycle, edgeless, loop_vertex, with_comments


def bags(*sets):
    return [frozenset(s) for s in sets]


def loopless(rng, n, p=0.3):
    return Digraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p])


# path decomposition validation and width


def test_validator_accepts_singleton_chain():
    assert validate_path_decomposition(chain(3), bags({0}, {1}, {2})) == []


def test_validator_rejects_reordered_chain():
    # Edge (0, 1) runs backwards through [{1},{0},{2}].
    violations = validate_path_decomposition(chain(3), bags({1}, {0}, {2}))
    assert any("(0, 1)" in v for v in violations)


def test_validator_accepts_c3_two_bags():
    assert validate_path_decomposition(cycle(3), bags({0, 1}, {0, 2})) == []


def test_validator_rejects_missing_vertex():
    violations = validate_path_decomposition(chain(3), bags({0}, {1}))
    assert any("2" in v for v in violations)


def test_validator_rejects_broken_connectivity():
    # Vertex 0 appears, disappears, reappears.
    violations = validate_path_decomposition(
        edgeless(2), bags({0}, {1}, {0}))
    assert violations != []


def test_width_values():
    assert width(bags({0, 1}, {0, 2})) == 1
    assert width(bags({0})) == 0
    assert width([]) == 0


def test_decomposition_text_roundtrip():
    dec = bags({0, 1}, {0}, {0, 2})
    assert serialize_path_decomposition(dec) == "{0,1}\n{0}\n{0,2}\n"
    assert parse_path_decomposition("{0,1}\n\n{0}\n{0,2}\n") == dec
    assert parse_path_decomposition("") == []
    assert parse_path_decomposition("# bags\n{0,1}  # first\n{0}\n{0,2}\n") == dec
    with pytest.raises(ParseError) as info:
        parse_path_decomposition("{0}\n  {x}  # a note\n")
    assert str(info.value) == "line 2: bad vertex set '{x}'"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.frozensets(st.integers(0, 12)), max_size=8), st.data())
def test_decomposition_round_trip_with_comments(dec, data):
    text = serialize_path_decomposition(dec)
    parsed = parse_path_decomposition(with_comments(data, text))
    assert parsed == dec
    assert serialize_path_decomposition(parsed) == text


# exact directed pathwidth


def test_dpw_pinned_values():
    assert dpw_exact(chain(4))[0] == 0
    for n in range(3, 9):
        assert dpw_exact(cycle(n))[0] == 1
    assert dpw_exact(clique(3))[0] == 2
    assert dpw_exact(edgeless(0)) == (0, [])


def test_dpw_witness_validates():
    rng = random.Random(31)
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(1, 8))
        value, dec = dpw_exact(g)
        assert validate_path_decomposition(g, dec) == []
        assert width(dec) == value


def test_dpw_matches_layout_enumeration():
    rng = random.Random(37)
    for _ in range(50):
        g = random_digraph(rng, rng.randrange(1, 7))
        assert dpw_exact(g)[0] == dpw_by_layout_enumeration(g)


def test_dpw_capacity_limit():
    with pytest.raises(CapacityError):
        dpw_exact(edgeless(21))


# weak balanced separators


def least_weak_separator(g, u):
    """The separator snum_exact takes for U."""
    return set_of(least_separator(g, mask_of(u)))


def first_weak_separator(g, u):
    """Oracle: the definitional check, tried by size and then
    lexicographically, independent of the mask search."""
    return next(
        frozenset(combo)
        for k in range(len(u) + 1)
        for combo in itertools.combinations(sorted(u), k)
        if is_weak_balanced_separator(g, u, frozenset(combo)))


def test_separator_pinned_checks():
    c4 = cycle(4)
    full = frozenset(range(4))
    assert is_weak_balanced_separator(c4, full, {0})
    assert not is_weak_balanced_separator(c4, full, frozenset())
    assert is_weak_balanced_separator(c4, frozenset(), frozenset())


def test_separator_containment_errors():
    with pytest.raises(InputError):
        is_weak_balanced_separator(cycle(3), {0, 1}, {2})
    with pytest.raises(InputError):
        is_weak_balanced_separator(cycle(3), {0, 9}, {0})


def test_bigger_separators_can_fail():
    # The residual shrinks and the ceiling budget with it: a 3-cycle plus
    # three isolated vertices is balanced with S = {} (3 <= ceil(6/2)),
    # yet removing two isolated vertices leaves the 3-cycle over budget
    # (3 > ceil(4/2)).  Supersets of separators are not separators in
    # general; only the k to k+1 step survives (tested below).
    g = Digraph.from_edges(6, [(0, 1), (1, 2), (2, 0)])
    full = frozenset(range(6))
    assert is_weak_balanced_separator(g, full, frozenset())
    assert not is_weak_balanced_separator(g, full, {3, 4})


def test_separator_size_is_upward_closed_by_one():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(2, 7)
        g = random_digraph(rng, n)
        u = frozenset(v for v in range(n) if rng.random() < 0.7)
        k = len(least_weak_separator(g, u))
        if k + 1 > len(u):
            continue
        assert any(
            is_weak_balanced_separator(g, u, frozenset(combo))
            for combo in itertools.combinations(sorted(u), k + 1))


def test_min_separator_tie_break():
    s = least_weak_separator(cycle(4), frozenset(range(4)))
    assert s == frozenset({0})
    assert is_weak_balanced_separator(cycle(4), frozenset(range(4)), s)
    assert least_weak_separator(clique(3), frozenset(range(3))) == {0, 1}


def test_min_separator_is_the_first_accepted_combination():
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randrange(1, 8)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.1, 0.5))
        u = frozenset(v for v in range(n) if rng.random() < 0.8)
        assert least_weak_separator(g, u) == first_weak_separator(g, u)


def test_snum_pinned_values():
    assert snum_exact(chain(4)) == 0
    for n in range(3, 9):
        assert snum_exact(cycle(n)) == 1
    assert snum_exact(clique(3)) == 2


def test_snum_is_the_max_over_subsets():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randrange(1, 6)
        g = random_digraph(rng, n)
        best = 0
        for r in range(n + 1):
            for u in map(frozenset, itertools.combinations(range(n), r)):
                s = least_weak_separator(g, u)
                assert s == first_weak_separator(g, u)
                best = max(best, len(s))
        assert snum_exact(g) == best


def test_snum_capacity_limit():
    with pytest.raises(CapacityError):
        snum_exact(edgeless(16))


# the recurrence and the chain report


def test_rk_pinned_values():
    assert rk(1, 1) == 1
    assert rk(1, 4) == 3
    assert rk(2, 10) == 5
    assert rk(3, 3) == 3


def test_rk_rejects_bad_arguments():
    with pytest.raises(InputError):
        rk(0, 5)
    with pytest.raises(InputError):
        rk(1, 0)


def test_check_bounds_c4():
    rep = check_bounds(cycle(4))
    assert (rep.snum, rep.dpw, rep.crank, rep.rk_bound) == (1, 1, 1, 2)
    assert rep.chain_ok


def test_check_bounds_k3():
    rep = check_bounds(clique(3))
    assert (rep.snum, rep.dpw, rep.crank, rep.rk_bound) == (2, 2, 2, 2)
    assert rep.chain_ok


def test_check_bounds_acyclic():
    rep = check_bounds(chain(4))
    assert (rep.snum, rep.dpw, rep.crank, rep.rk_bound) == (0, 0, 0, None)
    assert rep.chain_ok


def test_check_bounds_rejects_loops():
    with pytest.raises(InputError):
        check_bounds(loop_vertex())


def test_chain_holds_on_random_loopfree_graphs():
    rng = random.Random(47)
    for _ in range(40):
        g = loopless(rng, rng.randrange(1, 8))
        rep = check_bounds(g)
        assert rep.chain_ok
        assert rep.snum <= rep.dpw <= rep.crank
        if rep.snum >= 1:
            assert rep.crank <= rep.rk_bound
        else:
            assert rep.crank == 0


def test_chain_members_agree_with_direct_calls():
    g = cycle(5)
    rep = check_bounds(g)
    assert rep.snum == snum_exact(g)
    assert rep.dpw == dpw_exact(g)[0]
    assert rep.crank == crank_exact(g).value
