"""Regular expressions: a small immutable AST, a parser, star height,
and a derivative-based matcher.

Concrete syntax: ``#`` is the empty set, ``@`` the empty word, ``+``
union, juxtaposition concatenation, postfix ``*`` iteration, parentheses
group.  Star binds tighter than concatenation, concatenation tighter
than union.  Symbols are single characters outside the reserved set
``# @ + * ( )``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, ParseError

RESERVED = set("#@+*()")


class Regex:
    __slots__ = ()


@dataclass(frozen=True)
class EmptySet(Regex):
    __slots__ = ()


@dataclass(frozen=True)
class EmptyWord(Regex):
    __slots__ = ()


@dataclass(frozen=True)
class Symbol(Regex):
    char: str


@dataclass(frozen=True)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


def parse_regex(text: str, alphabet: frozenset[str] | None = None) -> Regex:
    """Parse the concrete syntax; positions in errors are 0-based offsets.

    With ``alphabet`` given, symbols outside it are rejected.
    """
    pos = 0

    def peek() -> str | None:
        return text[pos] if pos < len(text) else None

    def error(msg: str) -> ParseError:
        return ParseError(f"position {pos}: {msg}")

    def parse_union() -> Regex:
        nonlocal pos
        node = parse_concat()
        while peek() == "+":
            pos += 1
            node = Union(node, parse_concat())
        return node

    def parse_concat() -> Regex:
        nonlocal pos
        node = parse_starred()
        while True:
            c = peek()
            if c is None or c in ")+":
                return node
            node = Concat(node, parse_starred())

    def parse_starred() -> Regex:
        nonlocal pos
        node = parse_atom()
        while peek() == "*":
            pos += 1
            node = Star(node)
        return node

    def parse_atom() -> Regex:
        nonlocal pos
        c = peek()
        if c is None:
            raise error("unexpected end of input")
        if c == "(":
            pos += 1
            node = parse_union()
            if peek() != ")":
                raise error("expected ')'")
            pos += 1
            return node
        if c == "#":
            pos += 1
            return EmptySet()
        if c == "@":
            pos += 1
            return EmptyWord()
        if c in RESERVED or c.isspace():
            raise error(f"unexpected {c!r}")
        if alphabet is not None and c not in alphabet:
            raise error(f"symbol {c!r} not in the declared alphabet")
        pos += 1
        return Symbol(c)

    node = parse_union()
    if pos != len(text):
        raise ParseError(f"position {pos}: trailing input {text[pos]!r}")
    return node


def serialize_regex(r: Regex) -> str:
    """Concrete syntax that parses back to an equal AST, minimally
    parenthesized."""

    def go(node: Regex, level: int) -> str:
        # level: 0 union context, 1 concat, 2 star operand
        if isinstance(node, EmptySet):
            return "#"
        if isinstance(node, EmptyWord):
            return "@"
        if isinstance(node, Symbol):
            return node.char
        if isinstance(node, Star):
            return go(node.inner, 2) + "*"
        if isinstance(node, Concat):
            s = go(node.left, 1) + go(node.right, 2)
            return f"({s})" if level >= 2 else s
        if isinstance(node, Union):
            s = go(node.left, 0) + "+" + go(node.right, 1)
            return f"({s})" if level >= 1 else s
        raise InputError(f"unknown node {node!r}")

    return go(r, 0)


def symbols_of(r: Regex) -> frozenset[str]:
    if isinstance(r, Symbol):
        return frozenset(r.char)
    if isinstance(r, (Union, Concat)):
        return symbols_of(r.left) | symbols_of(r.right)
    if isinstance(r, Star):
        return symbols_of(r.inner)
    return frozenset()


def star_height(r: Regex) -> int:
    """Maximum star nesting depth."""
    # An explicit stack: concatenation builds a left-deep tree, so a long
    # word nests as deep as it is long.
    best = 0
    todo = [(r, 0)]
    while todo:
        node, depth = todo.pop()
        if isinstance(node, Star):
            todo.append((node.inner, depth + 1))
        elif isinstance(node, (Union, Concat)):
            todo.append((node.left, depth))
            todo.append((node.right, depth))
        elif depth > best:
            best = depth
    return best


def nullable(r: Regex) -> bool:
    """True iff the language of r contains the empty word."""
    if isinstance(r, (EmptyWord, Star)):
        return True
    if isinstance(r, Union):
        return nullable(r.left) or nullable(r.right)
    if isinstance(r, Concat):
        return nullable(r.left) and nullable(r.right)
    return False


@lru_cache(maxsize=None)
def _derivative(r: Regex, c: str) -> Regex:
    if isinstance(r, (EmptySet, EmptyWord)):
        return EmptySet()
    if isinstance(r, Symbol):
        return EmptyWord() if r.char == c else EmptySet()
    if isinstance(r, Union):
        return _union(_derivative(r.left, c), _derivative(r.right, c))
    if isinstance(r, Concat):
        d = _concat(_derivative(r.left, c), r.right)
        if nullable(r.left):
            return _union(d, _derivative(r.right, c))
        return d
    if isinstance(r, Star):
        return _concat(_derivative(r.inner, c), r)
    raise InputError(f"unknown node {r!r}")


def _union(a: Regex, b: Regex) -> Regex:
    # light smart constructors keep derivative chains small
    if isinstance(a, EmptySet):
        return b
    if isinstance(b, EmptySet):
        return a
    if a == b:
        return a
    return Union(a, b)


def _concat(a: Regex, b: Regex) -> Regex:
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        return EmptySet()
    if isinstance(a, EmptyWord):
        return b
    if isinstance(b, EmptyWord):
        return a
    return Concat(a, b)


def matches(r: Regex, word: str) -> bool:
    """Membership by successive derivatives.  Independent of any automaton
    machinery, so it can cross-check translations."""
    for c in word:
        r = _derivative(r, c)
        if isinstance(r, EmptySet):
            return False
    return nullable(r)
