"""Regular expressions: a small immutable AST, a parser, star height,
and a matcher on the position automaton.

Concrete syntax: ``#`` is the empty set, ``@`` the empty word, ``+``
union, juxtaposition concatenation, postfix ``*`` iteration, parentheses
group.  Star binds tighter than concatenation, concatenation tighter
than union.  Symbols are single characters outside the reserved set
``# @ + * ( )``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bitsets import bits
from .errors import InputError, ParseError

RESERVED = set("#@+*()")
MAX_PAREN_DEPTH = 100  # parse_regex spends 4 frames per level of nesting


class Regex:
    """Base of the AST nodes.

    ``==``, ``hash`` and ``repr`` walk explicit stacks, so none is bounded
    by the recursion limit on long concatenations (a word nests as deep as
    it is long).
    """

    def __hash__(self):
        # Equal trees serialize equally.
        return hash(serialize_regex(self))

    def __eq__(self, other):
        if not isinstance(other, Regex):
            return NotImplemented
        todo = [(self, other)]
        for a, b in todo:
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if type(a) is Symbol:
                if a.char != b.char:
                    return False
            elif type(a) is Star:
                todo.append((a.inner, b.inner))
            elif type(a) is Union or type(a) is Concat:
                todo += ((a.left, b.left), (a.right, b.right))
        return True

    def __repr__(self):
        # The text the generated dataclass repr would print.
        parts = []
        todo: list[str | Regex] = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(f"{type(item).__qualname__}(")
            todo.append(")")
            names = item.__match_args__
            for i in range(len(names) - 1, -1, -1):
                value = getattr(item, names[i])
                todo.append(value if isinstance(value, Regex) else repr(value))
                todo.append(f"{', ' if i else ''}{names[i]}=")
        return "".join(parts)

    @cached_property
    def _positions(self) -> tuple[bool, int, int, dict[str, int], list[int]]:
        """The position automaton (Glushkov; McNaughton and Yamada): one
        position per Symbol leaf, numbered left to right.  Returns whether
        the empty word is in the language, the masks of positions that can
        start and end a word, each symbol's mask of positions, and each
        position's mask of positions that can follow it."""
        on: dict[str, int] = {}
        follow: list[int] = []
        # Post-order on an explicit stack, as in regex_to_nfa: a node's
        # (nullable, first, last) goes on ``built`` once its children's do.
        built: list[tuple[bool, int, int]] = []
        todo: list[tuple[Regex, bool]] = [(self, False)]
        while todo:
            node, ready = todo.pop()
            if not ready and isinstance(node, (Union, Concat)):
                todo += [(node, True), (node.right, False), (node.left, False)]
            elif not ready and isinstance(node, Star):
                todo += [(node, True), (node.inner, False)]
            elif isinstance(node, Symbol):
                p = 1 << len(follow)
                follow.append(0)
                on[node.char] = on.get(node.char, 0) | p
                built.append((False, p, p))
            elif isinstance(node, Star):
                _, first, last = built.pop()
                for p in bits(last):
                    follow[p] |= first
                built.append((True, first, last))
            elif isinstance(node, Union):
                r_null, r_first, r_last = built.pop()
                l_null, l_first, l_last = built.pop()
                built.append((l_null or r_null, l_first | r_first, l_last | r_last))
            elif isinstance(node, Concat):
                r_null, r_first, r_last = built.pop()
                l_null, l_first, l_last = built.pop()
                for p in bits(l_last):
                    follow[p] |= r_first
                built.append((l_null and r_null, l_first | (r_first if l_null else 0),
                              r_last | (l_last if r_null else 0)))
            elif isinstance(node, (EmptySet, EmptyWord)):
                built.append((isinstance(node, EmptyWord), 0, 0))
            else:
                raise InputError(f"unknown node {node!r}")
        [(nullable, first, last)] = built
        return nullable, first, last, on, follow


@dataclass(frozen=True, eq=False, repr=False)
class EmptySet(Regex):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class EmptyWord(Regex):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Symbol(Regex):
    char: str


@dataclass(frozen=True, eq=False, repr=False)
class Union(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, eq=False, repr=False)
class Concat(Regex):
    left: Regex
    right: Regex


@dataclass(frozen=True, eq=False, repr=False)
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


def matches(r: Regex, word: str) -> bool:
    """Membership on r's position automaton, built on the first call and
    kept on r.  Independent of any NFA machinery, so it can cross-check
    translations."""
    nullable, first, last, on, follow = r._positions
    if not word:
        return nullable
    cur = first & on.get(word[0], 0)
    for c in word[1:]:
        nxt = 0
        while cur:
            low = cur & -cur
            nxt |= follow[low.bit_length() - 1]
            cur ^= low
        cur = nxt & on.get(c, 0)
    return bool(cur & last)
