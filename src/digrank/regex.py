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
MAX_PAREN_DEPTH = 100  # parse_regex spends 4 frames per level of nesting


class Regex:
    """Base of the AST nodes.

    Each node stores its hash, computed once from its children's stored
    hashes, and equality walks an explicit stack, so neither is bounded by
    the recursion limit on long concatenations (a word nests as deep as it
    is long).
    """

    __slots__ = ("_hash",)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((type(self), self._fields())))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Copies and pickles go through __init__, so the hash is computed
        # afresh: a str hash differs from one process to the next.
        return type(self), self._fields()

    def __eq__(self, other):
        # The cache of _derivative compares many equal but distinct leaves
        # and small trees, so those return before the stack is built.
        if self is other:
            return True
        if type(other) is not type(self):
            return False if isinstance(other, Regex) else NotImplemented
        if self._hash != other._hash:
            return False
        if not self.__match_args__:  # EmptySet, EmptyWord
            return True
        todo = [(self, other)]
        for a, b in todo:
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if type(a) is Symbol:
                if a.char != b.char:
                    return False
            elif type(a) is Star:
                todo.append((a.inner, b.inner))
            elif type(a) is Union or type(a) is Concat:
                todo += ((a.left, b.left), (a.right, b.right))
        return True


@dataclass(frozen=True, eq=False)
class EmptySet(Regex):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class EmptyWord(Regex):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Symbol(Regex):
    char: str


@dataclass(frozen=True, eq=False)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, eq=False)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, eq=False)
class Star(Regex):
    inner: Regex


def parse_regex(text: str, alphabet: frozenset[str] | None = None) -> Regex:
    """Parse the concrete syntax; positions in errors are 0-based offsets.

    With ``alphabet`` given, symbols outside it are rejected.
    """
    pos = 0
    depth = 0

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
        nonlocal pos, depth
        c = peek()
        if c is None:
            raise error("unexpected end of input")
        if c == "(":
            if depth == MAX_PAREN_DEPTH:
                raise error(f"parentheses nested deeper than {MAX_PAREN_DEPTH}")
            pos += 1
            depth += 1
            node = parse_union()
            if peek() != ")":
                raise error("expected ')'")
            pos += 1
            depth -= 1
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
    # An explicit stack, for the same reason as in star_height below.  It
    # holds text still to emit and (node, level) pairs still to expand,
    # where level is 0 in a union context, 1 in a concat, 2 as a star
    # operand; the top is emitted next.
    out: list[str] = []
    todo: list[str | tuple[Regex, int]] = [(r, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        if isinstance(node, EmptySet):
            out.append("#")
        elif isinstance(node, EmptyWord):
            out.append("@")
        elif isinstance(node, Symbol):
            out.append(node.char)
        elif isinstance(node, Star):
            todo += ["*", (node.inner, 2)]
        elif isinstance(node, Concat):
            parts = [(node.right, 2), (node.left, 1)]
            todo += [")", *parts, "("] if level >= 2 else parts
        elif isinstance(node, Union):
            parts = [(node.right, 1), "+", (node.left, 0)]
            todo += [")", *parts, "("] if level >= 1 else parts
        else:
            raise InputError(f"unknown node {node!r}")
    return "".join(out)


def symbols_of(r: Regex) -> frozenset[str]:
    # An explicit stack, for the same reason as in star_height below.
    out: set[str] = set()
    todo = [r]
    while todo:
        node = todo.pop()
        if isinstance(node, Symbol):
            out.add(node.char)
        elif isinstance(node, (Union, Concat)):
            todo += [node.left, node.right]
        elif isinstance(node, Star):
            todo.append(node.inner)
    return frozenset(out)


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
