"""Regular expressions: parsing, printing, star height, matching.

The matcher oracle below decides membership denotationally, by recursion
over the AST with all split points tried; slow but an independent path
from the position-automaton matcher under test.
"""

import copy
import pickle
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from digrank import InputError, ParseError, Regex, matches, parse_regex, serialize_regex
from digrank.generate import random_regex, random_words
from digrank.regex import (
    Concat,
    EmptySet,
    EmptyWord,
    Star,
    Symbol,
    Union,
    star_height,
    symbols_of,
)


def language_member(r, word):
    """Reference matcher: structural recursion over splits of the word."""

    @lru_cache(maxsize=None)
    def go(node, w):
        if isinstance(node, EmptySet):
            return False
        if isinstance(node, EmptyWord):
            return w == ""
        if isinstance(node, Symbol):
            return w == node.char
        if isinstance(node, Union):
            return go(node.left, w) or go(node.right, w)
        if isinstance(node, Concat):
            return any(go(node.left, w[:i]) and go(node.right, w[i:])
                       for i in range(len(w) + 1))
        if isinstance(node, Star):
            if w == "":
                return True
            return any(go(node.inner, w[:i]) and go(node, w[i:])
                       for i in range(1, len(w) + 1))
        raise TypeError(node)

    return go(r, word)


A, B, C = Symbol("a"), Symbol("b"), Symbol("c")


def test_parse_pinned_shapes():
    assert parse_regex("a+b") == Union(A, B)
    assert parse_regex("ab*") == Concat(A, Star(B))
    assert parse_regex("(a*b)*") == Star(Concat(Star(A), B))
    assert parse_regex("#") == EmptySet()
    assert parse_regex("@") == EmptyWord()
    # Star binds tighter than concatenation, concatenation tighter than union.
    assert parse_regex("ab+c") == Union(Concat(A, B), C)
    assert parse_regex("a+bc*") == Union(A, Concat(B, Star(C)))
    assert parse_regex("a**") == Star(Star(A))


def test_parse_errors_carry_positions():
    cases = {
        "": "position 0: unexpected end of input",
        "a+": "position 2: unexpected end of input",
        "(a": "position 2: expected ')'",
        ")": "position 0: unexpected ')'",
        "*a": "position 0: unexpected '*'",
        "a b": "position 1: unexpected ' '",
        "a)": "position 1: trailing input ')'",
        "()": "position 1: unexpected ')'",
        "(+a)": "position 1: unexpected '+'",
        "a(": "position 2: unexpected end of input",
        "(a))": "position 3: trailing input ')'",
        "a+*": "position 2: unexpected '*'",
        "((a)": "position 4: expected ')'",
        "ab)c": "position 2: trailing input ')'",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as info:
            parse_regex(text)
        assert str(info.value) == message, text


def test_deep_parentheses_parse():
    # The parser keeps one frame per open parenthesis, not one call.
    deep = parse_regex("(" * 5000 + "a*b" + ")" * 5000)
    assert deep == parse_regex("a*b")
    assert parse_regex("(" * 5000 + "a" + ")*" * 5000) == parse_regex("a" + "*" * 5000)


def test_symbol_is_one_character_the_syntax_can_spell():
    # Otherwise its text would parse, and unpickle, to another tree.
    for char in ["ab", "", "+", "(", " "]:
        with pytest.raises(InputError):
            Symbol(char)


def test_serialize_minimal_parentheses():
    assert serialize_regex(Union(Concat(A, B), C)) == "ab+c"
    assert serialize_regex(Concat(Union(A, B), C)) == "(a+b)c"
    assert serialize_regex(Star(Union(A, B))) == "(a+b)*"
    assert serialize_regex(Star(Concat(A, B))) == "(ab)*"
    assert serialize_regex(Concat(Star(A), B)) == "a*b"
    assert serialize_regex(Star(Star(A))) == "a**"


def test_serialize_parse_roundtrip():
    rng = random.Random(89)
    for _ in range(200):
        r = random_regex(rng, rng.randrange(0, 5), "abc")
        assert parse_regex(serialize_regex(r)) == r


def test_serialize_long_concatenation():
    # 5000 nested Concat nodes; a recursive serializer overflows the stack.
    assert serialize_regex(parse_regex("a" * 5000)) == "a" * 5000
    assert serialize_regex(parse_regex("(a+b)*" * 2000)) == "(a+b)*" * 2000


def test_star_height_pinned():
    assert star_height(parse_regex("a+b")) == 0
    assert star_height(parse_regex("ab*")) == 1
    assert star_height(parse_regex("(a*b)*")) == 2
    assert star_height(EmptySet()) == 0
    assert star_height(Star(Star(Star(A)))) == 3


def test_star_height_takes_max_across_branches():
    assert star_height(Union(Star(A), Star(Star(B)))) == 2
    assert star_height(Concat(A, Star(B))) == 1


def test_nullable_pinned():
    assert matches(EmptyWord(), "")
    assert matches(Star(A), "")
    assert matches(Union(A, EmptyWord()), "")
    assert not matches(A, "")
    assert not matches(EmptySet(), "")
    assert not matches(Concat(Star(A), B), "")


def test_symbols_of():
    assert symbols_of(parse_regex("(a*b)*c+a")) == frozenset("abc")
    assert symbols_of(EmptySet()) == frozenset()


def test_matches_pinned():
    r = parse_regex("a*b")
    assert matches(r, "b")
    assert matches(r, "aab")
    assert not matches(r, "ba")
    assert not matches(r, "")
    assert matches(parse_regex("@"), "")
    assert not matches(parse_regex("#"), "")
    assert matches(parse_regex("(a*b)*"), "abaab")
    assert not matches(parse_regex("a*"), "c")  # a letter r never uses
    assert not matches(parse_regex("a#"), "a")
    assert matches(parse_regex("a#*"), "a")


def test_matches_agrees_with_reference():
    rng = random.Random(97)
    for _ in range(150):
        r = random_regex(rng, rng.randrange(0, 5), "ab")
        for word in random_words(rng, "ab", 25, 7):
            w = "".join(word)
            assert matches(r, w) == language_member(r, w), (
                serialize_regex(r), w)


regexes = st.recursive(
    st.sampled_from([EmptySet(), EmptyWord(), A, B]),
    lambda inner: st.one_of(st.builds(Union, inner, inner),
                            st.builds(Concat, inner, inner),
                            st.builds(Star, inner)),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(regexes, st.text("ab", max_size=6))
def test_roundtrip_and_matches_agree_with_reference(r, w):
    assert parse_regex(serialize_regex(r)) == r
    assert matches(r, w) == language_member(r, w)


def test_deep_regexes_match_without_recursion():
    # Each nests thousands of nodes deep, past the recursion limit.
    word = parse_regex("a" * 5000)
    assert matches(word, "a" * 5000)
    assert not matches(word, "a")
    assert repr(word).startswith("Concat(left=Concat(left=")
    assert matches(parse_regex("(a+b)*" * 2000), "ab")
    assert matches(parse_regex("a" + "*" * 2000), "aaa")


def test_repr_is_the_dataclass_text():
    assert repr(parse_regex("(a+@)*#b")) == (
        "Concat(left=Concat(left=Star(inner=Union(left=Symbol(char='a'), "
        "right=EmptyWord())), right=EmptySet()), right=Symbol(char='b'))")


def test_regex_nodes_are_hashable_values():
    assert parse_regex("a+b") == parse_regex("a+b")
    assert len({parse_regex("a"), parse_regex("a"), parse_regex("b")}) == 2
    assert isinstance(parse_regex("a"), Regex)


def test_long_concatenation_hash_and_equality():
    # 5000 nested Concat nodes; a recursive hash or == overflows the stack.
    r, s = parse_regex("a" * 5000), parse_regex("a" * 5000)
    t = parse_regex("a" * 4999 + "b")
    assert r is not s
    assert hash(r) == hash(s)
    assert r == s and not r != s
    assert r != t and not r == t
    assert not Union(A, B) == Concat(A, B)
    assert Star(A) != A


def test_pickled_regex_keeps_value_and_hash():
    r = parse_regex("(a+b)*c@+#")
    words = ["", "c", "abc", "ba"]
    # The first call builds the matcher on r; the copy builds its own.
    assert [matches(r, w) for w in words] == [False, True, True, False]
    s = pickle.loads(pickle.dumps(r))
    assert s == r and hash(s) == hash(r)
    assert [matches(s, w) for w in words] == [False, True, True, False]


def test_deep_regexes_pickle_and_deep_copy():
    # Both go through the text, so neither recurses once per level.
    for r in [parse_regex("a" * 5000), parse_regex("(" * 5000 + "a*b" + ")" * 5000),
              parse_regex("(a+b)*" * 2000), parse_regex("a" + "*" * 5000)]:
        assert pickle.loads(pickle.dumps(r)) == r
        assert copy.deepcopy(r) == r


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(regexes)
def test_pickle_roundtrip(r):
    s = pickle.loads(pickle.dumps(r))
    assert s == r and hash(s) == hash(r) and repr(s) == repr(r)
