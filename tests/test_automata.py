"""Automata: bideterminism, star height transfer, and the two recodings.

Membership questions are settled two independent ways throughout: the
subset-simulating nfa_accepts against the position-automaton regex matcher,
and original-versus-recoded automata against each other.
"""

import hashlib
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from digrank import (
    CapacityError,
    Dfa,
    Digraph,
    DomainError,
    InputError,
    Nfa,
    binarize,
    binarize_word,
    crank_exact,
    is_bideterministic,
    is_deterministic,
    matches,
    nfa_accepts,
    parse_automaton,
    parse_regex,
    regex_to_nfa,
    serialize_automaton,
    star_height,
    star_height_bidet,
    trim,
    underlying_digraph,
    validate_forest,
    walk_language_automaton,
)
from digrank.automata import edge_symbol
from digrank.digraph import MASK_VERTEX_LIMIT
from digrank.generate import (
    random_bideterministic,
    random_regex,
    random_strongly_connected,
    random_words,
)
from digrank import ParseError
from digrank.regex import serialize_regex

from common import clique, cycle, with_comments


def a_cycle(n):
    """Single-symbol cycle DFA: accepts (a^n)*."""
    return Dfa(n, ("a",), frozenset((i, "a", (i + 1) % n) for i in range(n)),
               0, frozenset([0]))


# The instance that shows why binarize shares digit trees: 2 states over
# a 3-symbol alphabet whose recoded language admits no bideterministic
# acceptor under per-transition chain paths.
TWO_STATE = Dfa(
    2, ("x", "y", "z"),
    frozenset({(0, "y", 1), (1, "x", 0), (1, "y", 0), (1, "z", 1)}),
    1, frozenset([0]))


# construction and validation


def test_nfa_validation():
    with pytest.raises(InputError):
        Nfa(0, (), frozenset(), 0, frozenset())
    for bad in ("a b", " a", "a\t", "\u2003"):
        with pytest.raises(InputError, match="whitespace-free"):
            Nfa(1, (bad,), frozenset(), 0, frozenset())
    with pytest.raises(InputError):
        Nfa(1, ("eps",), frozenset(), 0, frozenset())
    with pytest.raises(InputError):
        Nfa(1, ("a", "a"), frozenset(), 0, frozenset())
    with pytest.raises(InputError):
        Nfa(1, ("a",), frozenset({(0, "a", 5)}), 0, frozenset())
    with pytest.raises(InputError):
        Nfa(1, ("a",), frozenset({(0, "b", 0)}), 0, frozenset())
    with pytest.raises(InputError):
        Nfa(1, ("a",), frozenset(), 3, frozenset())


def test_symbols_cannot_hold_a_comment_mark():
    # The text format would cut such a symbol at its '#', so the
    # automaton could not survive serialize_automaton and parse_automaton.
    for alphabet in [("a#b", "c"), ("#",), ("a", "#b")]:
        with pytest.raises(InputError, match="'#' starts a comment"):
            Nfa(2, alphabet, frozenset(), 0, frozenset())


def test_dfa_validation():
    with pytest.raises(InputError):
        Dfa(2, ("a",), frozenset({(0, None, 1)}), 0, frozenset([1]))
    with pytest.raises(InputError):
        Dfa(2, ("a",), frozenset({(0, "a", 0), (0, "a", 1)}), 0, frozenset([1]))


def test_determinism_predicates():
    assert is_deterministic(a_cycle(4))
    assert is_bideterministic(a_cycle(4))
    assert is_bideterministic(TWO_STATE)

    merging = Dfa(3, ("a", "b"),
                  frozenset({(0, "a", 2), (1, "b", 2), (0, "b", 1), (2, "a", 1)}),
                  0, frozenset([2]))
    assert is_deterministic(merging)
    two_in = Dfa(3, ("a",), frozenset({(0, "a", 2), (1, "a", 2)}),
                 0, frozenset([2]))
    assert not is_bideterministic(two_in)
    two_finals = Dfa(2, ("a",), frozenset({(0, "a", 1)}), 0, frozenset([0, 1]))
    assert not is_bideterministic(two_finals)


def test_determinism_predicates_match_a_pairwise_definition():
    # Random NFAs with epsilon moves and repeated (source, symbol) pairs,
    # against determinism spelled out over every pair of transitions.
    rng = random.Random(151)
    seen = {"deterministic": 0, "bideterministic": 0, "epsilon": 0, "clash": 0}
    for _ in range(2000):
        n = rng.randint(1, 4)
        symbols = [None] * (rng.random() < 0.2) + ["a", "b"]
        transitions = frozenset((rng.randrange(n), rng.choice(symbols), rng.randrange(n))
                                for _ in range(rng.randint(0, 5)))
        a = Nfa(n, ("a", "b"), transitions, 0,
                frozenset(rng.sample(range(n), rng.randint(0, min(2, n)))))
        pairs = [(s, t) for s in transitions for t in transitions if s != t]
        clash = any(s[:2] == t[:2] for s, t in pairs)
        deterministic = all(sym is not None for _, sym, _ in transitions) and not clash
        bideterministic = (deterministic and len(a.finals) == 1
                           and not any(s[1:] == t[1:] for s, t in pairs))
        assert is_deterministic(a) == deterministic, serialize_automaton(a)
        assert is_bideterministic(a) == bideterministic, serialize_automaton(a)
        seen["deterministic"] += deterministic
        seen["bideterministic"] += bideterministic
        seen["epsilon"] += any(sym is None for _, sym, _ in transitions)
        seen["clash"] += clash
    assert all(seen.values()), seen


def test_underlying_digraph():
    loop = Dfa(1, ("a",), frozenset({(0, "a", 0)}), 0, frozenset([0]))
    assert underlying_digraph(loop) == Digraph.from_edges(1, [(0, 0)])
    parallel = Nfa(2, ("a", "b"),
                   frozenset({(0, "a", 1), (0, "b", 1)}), 0, frozenset([1]))
    assert underlying_digraph(parallel) == Digraph.from_edges(2, [(0, 1)])
    assert underlying_digraph(a_cycle(5)) == cycle(5)


# acceptance and trimming


def test_nfa_accepts_star():
    star = regex_to_nfa(parse_regex("a*"))
    assert nfa_accepts(star, "aaa")
    assert nfa_accepts(star, "")
    with pytest.raises(InputError):
        nfa_accepts(star, "b")


def test_accepts_foreign_symbol_with_declared_alphabet():
    star = regex_to_nfa(parse_regex("a*"), alphabet=("a", "b"))
    assert not nfa_accepts(star, "b")


def test_regex_symbol_outside_the_declared_alphabet():
    with pytest.raises(InputError, match="transition symbol 'b' not in alphabet"):
        regex_to_nfa(parse_regex("a*b"), alphabet=("a",))


def test_trim_drops_useless_states():
    # State 2 is unreachable, state 3 leads nowhere.
    messy = Dfa(4, ("a",),
                frozenset({(0, "a", 1), (2, "a", 1), (1, "a", 3)}),
                0, frozenset([1]))
    t = trim(messy)
    assert t.states == 2
    assert t.finals == frozenset([1])
    assert nfa_accepts(t, "a")
    assert not nfa_accepts(t, "aa")


def test_trim_is_identity_on_trim_automata():
    assert trim(a_cycle(3)) == a_cycle(3)
    walk = walk_language_automaton(cycle(3), 0)
    assert trim(walk) == walk


def test_trim_empty_language_warns():
    dead = Dfa(2, ("a",), frozenset({(0, "a", 1)}), 0, frozenset())
    with pytest.warns(UserWarning):
        t = trim(dead)
    assert t.states == 1
    assert t.finals == frozenset()
    assert isinstance(t, Dfa)


def test_trim_preserves_type_and_language():
    rng = random.Random(101)
    for _ in range(40):
        r = random_regex(rng, rng.randrange(0, 4), "ab")
        nfa = regex_to_nfa(r, alphabet=("a", "b"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = trim(nfa)
        assert type(t) is Nfa
        for word in random_words(rng, "ab", 15, 6):
            assert nfa_accepts(t, word) == nfa_accepts(nfa, word)


def test_accepts_and_trim_on_random_epsilon_nfas():
    # Hand-built automata with epsilon cycles, unreachable states and 0-3
    # finals, which regex_to_nfa never produces, against set-based
    # references written here.
    def closure(seeds, moves):
        out, todo = set(seeds), list(seeds)
        while todo:
            p = todo.pop()
            for q in moves.get(p, ()):
                if q not in out:
                    out.add(q)
                    todo.append(q)
        return out

    rng = random.Random(109)
    seen = {"epsilon cycle": 0, "unreachable state": 0, "no finals": 0}
    for _ in range(300):
        n = rng.randint(1, 9)
        transitions = {(rng.randrange(n), rng.choice((None, "a", "b")), rng.randrange(n))
                       for _ in range(rng.randint(0, 2 * n))}
        a = Nfa(n, ("a", "b"), frozenset(transitions), rng.randrange(n),
                frozenset(rng.sample(range(n), rng.randint(0, min(3, n)))))
        eps, fwd, bwd = {}, {}, {}
        for p, sym, q in transitions:
            fwd.setdefault(p, []).append(q)
            bwd.setdefault(q, []).append(p)
            if sym is None:
                eps.setdefault(p, []).append(q)
        reach = closure([a.initial], fwd)
        seen["epsilon cycle"] += any(p in closure(eps.get(p, ()), eps) for p in range(n))
        seen["unreachable state"] += len(reach) < n
        seen["no finals"] += not a.finals

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = trim(a)
        kept = sorted(reach & closure(a.finals, bwd))
        relabel = {q: i for i, q in enumerate(kept)}
        assert t.states == max(1, len(kept))
        assert t.transitions == {(relabel[p], sym, relabel[q]) for p, sym, q in transitions
                                 if p in relabel and q in relabel}
        assert t.finals == {relabel[q] for q in a.finals if q in relabel}

        for word in random_words(rng, "ab", 20, 6):
            cur = closure([a.initial], eps)
            for sym in word:
                cur = closure({q for p, s, q in transitions if p in cur and s == sym}, eps)
            want = bool(cur & a.finals)
            assert nfa_accepts(a, word) == want, (serialize_automaton(a), word)
            assert nfa_accepts(t, word) == want, (serialize_automaton(a), word)
    assert all(seen.values()), seen


# regex -> NFA and the star height upper bound


def test_regex_to_nfa_pinned_cranks():
    assert crank_exact(underlying_digraph(regex_to_nfa(parse_regex("a")))).value == 0
    assert crank_exact(underlying_digraph(regex_to_nfa(parse_regex("a*")))).value == 1
    assert crank_exact(
        underlying_digraph(regex_to_nfa(parse_regex("(a*b)*")))).value <= 2


def test_regex_to_nfa_agrees_with_matcher():
    rng = random.Random(103)
    for _ in range(100):
        r = random_regex(rng, rng.randrange(0, 5), "ab")
        nfa = regex_to_nfa(r, alphabet=("a", "b"))
        for word in random_words(rng, "ab", 20, 6):
            assert nfa_accepts(nfa, word) == matches(r, "".join(word)), (
                serialize_regex(r), word)


def test_regex_to_nfa_long_concatenation():
    # A left-deep chain, deeper than the recursion limit.
    nfa = regex_to_nfa(parse_regex("a" * 5000))
    assert nfa_accepts(nfa, "a" * 5000)
    assert not nfa_accepts(nfa, "a" * 4999)


def test_crank_of_construction_bounded_by_star_height():
    rng = random.Random(107)
    for _ in range(150):
        r = random_regex(rng, rng.randrange(0, 5), "abc")
        g = underlying_digraph(regex_to_nfa(r))
        assert crank_exact(g).value <= star_height(r)


# star height of bideterministic automata


def test_star_height_bidet_pinned():
    lone = Dfa(1, (), frozenset(), 0, frozenset([0]))
    assert star_height_bidet(lone)[0] == 0
    for n in (1, 2, 5):
        value, witness = star_height_bidet(a_cycle(n))
        assert value == 1
        assert validate_forest(underlying_digraph(a_cycle(n)), witness) == []
    assert star_height_bidet(walk_language_automaton(clique(3), 0))[0] == 2
    assert star_height_bidet(TWO_STATE)[0] == 1


def test_star_height_bidet_trims_first():
    # A dead branch does not block the bideterminism check.
    padded = Dfa(3, ("a",),
                 frozenset({(0, "a", 1), (1, "a", 0), (2, "a", 0)}),
                 0, frozenset([0]))
    assert not is_bideterministic(padded)
    assert star_height_bidet(padded)[0] == 1


def test_star_height_bidet_rejects_others():
    two_in = Dfa(3, ("a", "b"),
                 frozenset({(0, "a", 2), (0, "b", 1), (1, "a", 2), (2, "a", 0)}),
                 0, frozenset([2]))
    with pytest.raises(DomainError):
        star_height_bidet(two_in)


# walk languages


def test_walk_automaton_c3():
    walk = walk_language_automaton(cycle(3), 0)
    assert walk.states == 3
    assert walk.alphabet == ("(0,1)", "(1,2)", "(2,0)")
    assert walk.initial == 0
    assert walk.finals == frozenset([0])
    assert is_bideterministic(walk)
    assert nfa_accepts(walk, ())
    assert nfa_accepts(walk, ("(0,1)", "(1,2)", "(2,0)"))
    assert not nfa_accepts(walk, ("(0,1)",))
    assert star_height_bidet(walk)[0] == 1


def test_walk_automaton_copies_the_digraph():
    rng = random.Random(109)
    for _ in range(20):
        g = random_strongly_connected(rng, rng.randrange(1, 8), max_outdeg=3)
        walk = walk_language_automaton(g, 0)
        assert underlying_digraph(walk) == g


def test_walk_automaton_errors():
    with pytest.raises(InputError):
        walk_language_automaton(cycle(3), 5)
    with pytest.raises(DomainError):
        walk_language_automaton(Digraph.from_edges(2, [(0, 1)]), 0)


def test_walk_star_height_equals_crank():
    rng = random.Random(113)
    for _ in range(40):
        n = rng.randrange(1, 8)
        g = random_strongly_connected(rng, n, max_outdeg=2,
                                      allow_loops=rng.random() < 0.3)
        v = rng.randrange(n)
        assert star_height_bidet(walk_language_automaton(g, v))[0] == \
            crank_exact(g).value


# binary recoding


def test_codewords_pinned():
    assert binarize_word(("x", "y"), ("x",)) == ("a", "a", "a")
    assert binarize_word(("x", "y"), ("y",)) == ("b", "a", "b")
    assert binarize_word(("x", "y", "z"), ("z",)) == ("b", "a", "a", "b", "a")
    assert binarize_word(("x",), ("x", "x")) == ("a", "a")
    assert binarize_word(("x", "y"), ()) == ()
    with pytest.raises(InputError):
        binarize_word(("x",), ("q",))


def test_binarize_single_loop():
    loop = Dfa(1, ("x", "y"), frozenset({(0, "x", 0)}), 0, frozenset([0]))
    b = binarize(loop)
    assert b.alphabet == ("a", "b")
    assert b.states == 3  # the codeword aaa traced as a 3-cycle
    assert is_bideterministic(b)
    assert nfa_accepts(b, "aaa" * 4)
    assert not nfa_accepts(b, "aa")
    assert star_height_bidet(b)[0] == star_height_bidet(loop)[0] == 1


def test_binarize_regression_two_state():
    b = binarize(TWO_STATE)
    assert is_bideterministic(b)
    assert star_height_bidet(b)[0] == star_height_bidet(TWO_STATE)[0] == 1
    accepted = ("y",)  # 1 -y-> 0 reaches the final state
    assert nfa_accepts(TWO_STATE, accepted)
    assert nfa_accepts(b, binarize_word(TWO_STATE.alphabet, accepted))


def test_binarize_requires_bideterminism():
    two_in = Dfa(3, ("a",), frozenset({(0, "a", 2), (1, "a", 2)}),
                 0, frozenset([2]))
    with pytest.raises(DomainError):
        binarize(two_in)


def test_binarize_membership_agreement():
    rng = random.Random(127)
    for _ in range(40):
        r = rng.randrange(1, 4)
        alphabet = ("s0", "s1", "s2")[:r]
        a = random_bideterministic(rng, 5, alphabet)
        b = binarize(a)
        assert is_bideterministic(b)
        for word in random_words(rng, alphabet, 25, 5):
            assert nfa_accepts(a, word) == \
                nfa_accepts(b, binarize_word(alphabet, word))


def test_binarize_rejects_off_code_words():
    # Words that are not codeword concatenations must be rejected.
    loop = Dfa(1, ("x", "y"), frozenset({(0, "y", 0)}), 0, frozenset([0]))
    b = binarize(loop)
    assert nfa_accepts(b, "bab")
    for w in ("b", "ba", "baa", "abb", "bba", "babb"):
        assert not nfa_accepts(b, w)


def test_binarize_preserves_star_height():
    # Small instances here; the acceptance suite runs the full-size sweep.
    rng = random.Random(131)
    for _ in range(30):
        r = rng.randrange(1, 4)
        a = random_bideterministic(rng, 4, ("s0", "s1", "s2")[:r])
        assert star_height_bidet(binarize(a))[0] == star_height_bidet(a)[0]


def test_binarize_degree_bounds():
    from digrank import degrees
    rng = random.Random(137)
    for _ in range(30):
        r = rng.randrange(1, 4)
        a = random_bideterministic(rng, 6, ("s0", "s1", "s2")[:r])
        g = underlying_digraph(binarize(a))
        for out, total in degrees(g):
            assert out <= 2
            assert total <= 4


def test_binarize_is_deterministic_output():
    rng = random.Random(139)
    a = random_bideterministic(rng, 5, ("s0", "s1"))
    assert binarize(a) == binarize(a)


def _untrimmed(rng, a):
    """a plus an unreachable state u looping on one symbol and a dead
    state entered on a symbol some state lacks; one time in four u is the
    only final state, so the language is empty.  Bideterministic as a is."""
    u, dead = a.states, a.states + 1
    extra = {(u, rng.choice(a.alphabet), u)}
    keys = {(p, sym) for p, sym, _ in a.transitions}
    missing = [(p, sym) for p in range(a.states) for sym in a.alphabet
               if (p, sym) not in keys]
    if missing:
        p, sym = rng.choice(missing)
        extra.add((p, sym, dead))
    finals = frozenset([u]) if rng.random() < 0.25 else a.finals
    return Dfa(a.states + 2, a.alphabet, a.transitions | extra, a.initial, finals)


def test_binarize_may_exceed_the_state_limit_of_its_input():
    # The recoding of a cycle on 1 500 states over four symbols has 13
    # states per original one, more than trim takes; binarize trims its
    # input, never the recoding.
    n = 1500
    alphabet = ("s0", "s1", "s2", "s3")
    a = Dfa(n, alphabet,
            frozenset((p, sym, (p + k + 1) % n) for k, sym in enumerate(alphabet)
                      for p in range(n)),
            0, frozenset([0]))
    b = binarize(a)
    assert b.states == 13 * n > MASK_VERTEX_LIMIT
    with pytest.raises(CapacityError):
        trim(b)


def test_binarize_output_pinned():
    # Digest of the text of 300 recoded automata over 1-5 symbols, half of
    # them padded with useless states; a change to the recoding's paths,
    # its trimming or its numbering shows here.
    rng = random.Random(157)
    h = hashlib.sha256()
    for i in range(300):
        alphabet = ("s0", "s1", "s2", "s3", "s4")[:rng.randint(1, 5)]
        a = random_bideterministic(rng, 6, alphabet)
        if i % 2:
            a = _untrimmed(rng, a)
        h.update(serialize_automaton(binarize(a)).encode())
    assert h.hexdigest() == "b5b7391ea5a0003c3a49e8e528d638ee562fe90c95e17811299318021e27e571"


# text format


def test_serialize_automaton_pinned():
    out = serialize_automaton(a_cycle(2))
    assert out == ("states 2\n"
                   "alphabet a\n"
                   "initial 0\n"
                   "finals 0\n"
                   "0 a 1\n"
                   "1 a 0\n")


def test_serialize_epsilon_spelling():
    nfa = Nfa(2, ("a",), frozenset({(0, None, 1)}), 0, frozenset([1]))
    assert "0 eps 1" in serialize_automaton(nfa)


def test_parse_automaton_roundtrip():
    rng = random.Random(149)
    samples = [a_cycle(4), TWO_STATE,
               walk_language_automaton(cycle(3), 0),
               regex_to_nfa(parse_regex("(a*b)*"))]
    samples.extend(random_bideterministic(rng, 5, ("s0", "s1"))
                   for _ in range(10))
    assert all(type(a) is Dfa for a in samples[4:])
    for a in samples:
        text = serialize_automaton(a)
        back = parse_automaton(text, as_dfa_flag=isinstance(a, Dfa))
        assert back.states == a.states
        assert back.alphabet == a.alphabet
        assert back.transitions == a.transitions
        assert back.initial == a.initial
        assert back.finals == a.finals
        assert type(back) is type(a)


def test_parse_automaton_accepts_comments():
    text = ("# walk\nstates 1\nalphabet a\ninitial 0\nfinals 0\n"
            "0 a 0  # loop\n")
    a = parse_automaton(text, as_dfa_flag=True)
    assert a.transitions == frozenset({(0, "a", 0)})


def test_parse_automaton_errors():
    for text, message in [
            ("states 1\n", "expected header lines: states, alphabet, initial, finals"),
            ("states 1\nalphabet a\ninitial 0\nfinals 0\n0 a\n",
             "line 5: expected 'p symbol q', got '0 a'"),
            ("states 1\nalphabet a\ninitial 0\nfinals 0\n0  a   # a note\n",
             "line 5: expected 'p symbol q', got '0 a'")]:
        with pytest.raises(ParseError) as info:
            parse_automaton(text)
        assert str(info.value) == message
    with pytest.raises(ParseError):
        parse_automaton("states x\nalphabet a\ninitial 0\nfinals 0\n")
    with pytest.raises(ParseError):
        parse_automaton("alphabet a\nstates 1\ninitial 0\nfinals 0\n")
    with pytest.raises(ParseError):
        parse_automaton("states 1\nalphabet a\ninitial 0\nfinals 0\n0 a\n")
    with pytest.raises(ParseError):  # eps in a DFA file
        parse_automaton("states 2\nalphabet a\ninitial 0\nfinals 1\n0 eps 1\n",
                        as_dfa_flag=True)
    with pytest.raises(ParseError):  # out of range, wrapped from validation
        parse_automaton("states 1\nalphabet a\ninitial 5\nfinals 0\n")


SYMBOLS = ["a", "b", "xy", "(0,1)", "s0"]


@st.composite
def automata(draw):
    states = draw(st.integers(1, 5))
    alphabet = draw(st.lists(st.sampled_from(SYMBOLS), unique=True, max_size=4))
    state = st.integers(0, states - 1)
    transitions = draw(st.frozensets(
        st.tuples(state, st.sampled_from([None, *alphabet]), state), max_size=8))
    return Nfa(states, alphabet, transitions, draw(state), draw(st.frozensets(state)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(automata(), st.data())
def test_text_round_trip_with_comments(a, data):
    text = serialize_automaton(a)
    commented = with_comments(data, text)
    parsed = parse_automaton(commented)
    assert parsed == a
    assert serialize_automaton(parsed) == text
    if is_deterministic(a):
        dfa = parse_automaton(commented, as_dfa_flag=True)
        assert dfa == Dfa(a.states, a.alphabet, a.transitions, a.initial, a.finals)


def test_edge_symbol_format():
    assert edge_symbol(3, 12) == "(3,12)"
