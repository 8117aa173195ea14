"""Regular expressions: a small immutable AST, a parser, star height,
and a matcher on the position automaton.

Concrete syntax: ``#`` is the empty set, ``@`` the empty word, ``+``
union, juxtaposition concatenation, postfix ``*`` iteration, parentheses
group.  Star binds tighter than concatenation, concatenation tighter
than union.  Symbols are single characters outside the reserved set
``# @ + * ( )``.

No function here recurses: the parser keeps one frame per open
parenthesis and every walk over a tree runs on an explicit stack, so
neither nesting depth nor the length of a word is bounded by Python's
recursion limit.  Trees pickle and deep-copy through their text.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest

from .bitsets import bits
from .errors import InputError, ParseError

RESERVED = set("#@+*()")


class Regex:
    """Base of the AST nodes.

    ``==``, ``hash``, ``repr`` and pickling walk explicit stacks, so none is
    bounded by the recursion limit on long concatenations (a word nests as
    deep as it is long).
    """

    def __hash__(self):
        # Equal trees serialize equally.
        return hash(serialize_regex(self))

    def __eq__(self, other):
        if not isinstance(other, Regex):
            return NotImplemented
        # Every node type has a fixed number of children, so the post-order
        # sequence of (type, char) determines the tree.
        return all(type(a) is type(b) and getattr(a, "char", None) == getattr(b, "char", None)
                   for a, b in zip_longest(_postorder(self), _postorder(other)))

    def __reduce__(self):
        # Through the text, which both directions handle without recursion.
        return parse_regex, (serialize_regex(self),)

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
        # A node's (nullable, first, last) goes on ``built`` after its
        # children's.
        built: list[tuple[bool, int, int]] = []
        for node in _postorder(self):
            if isinstance(node, Symbol):
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

    def __post_init__(self):
        # A character the syntax can spell, so that the text, and with it
        # hashing and pickling, stands for this tree alone.
        if len(self.char) != 1 or self.char in RESERVED or self.char.isspace():
            raise InputError(f"symbol {self.char!r} is not one unreserved character")


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


def parse_regex(text: str) -> Regex:
    """Parse the concrete syntax; positions in errors are 0-based offsets."""
    # One frame per open parenthesis, the outermost level at the bottom:
    # [union of the finished branches, concatenation before the last atom,
    # last atom], each None while empty.  The last atom stays apart so that
    # a star can still wrap it.
    stack: list[list[Regex | None]] = [[None, None, None]]
    for pos, c in enumerate(text):
        frame = stack[-1]
        union, concat, last = frame
        if last is not None:
            if c == "*":
                frame[2] = Star(last)
                continue
            if c == "+":
                frame[:] = _close(union, concat, last), None, None
                continue
            if c == ")":
                if len(stack) == 1:
                    raise ParseError(f"position {pos}: trailing input {c!r}")
                stack.pop()
                stack[-1][2] = _close(union, concat, last)
                continue
            # Another atom begins.
            frame[1:] = _close(None, concat, last), None
        if c == "(":
            stack.append([None, None, None])
        elif c == "#":
            frame[2] = EmptySet()
        elif c == "@":
            frame[2] = EmptyWord()
        elif c in RESERVED or c.isspace():
            raise ParseError(f"position {pos}: unexpected {c!r}")
        else:
            frame[2] = Symbol(c)
    union, concat, last = stack[-1]
    if last is None:
        raise ParseError(f"position {len(text)}: unexpected end of input")
    if len(stack) > 1:
        raise ParseError(f"position {len(text)}: expected ')'")
    return _close(union, concat, last)


def _close(union: Regex | None, concat: Regex | None, last: Regex) -> Regex:
    """A parser frame's expression once its last atom ends its branch."""
    branch = last if concat is None else Concat(concat, last)
    return branch if union is None else Union(union, branch)


def serialize_regex(r: Regex) -> str:
    """Concrete syntax that parses back to an equal AST, minimally
    parenthesized."""
    # An explicit stack, for the same reason as in _postorder below.  It
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


def _postorder(r: Regex) -> Iterator[Regex]:
    """r's nodes, children before parent and left before right.

    An explicit stack: concatenation builds a left-deep tree, so a long
    word nests as deep as it is long."""
    todo: list[tuple[Regex, bool]] = [(r, False)]
    while todo:
        node, ready = todo.pop()
        if ready:
            yield node
        elif isinstance(node, (Union, Concat)):
            todo += [(node, True), (node.right, False), (node.left, False)]
        elif isinstance(node, Star):
            todo += [(node, True), (node.inner, False)]
        else:
            yield node


def symbols_of(r: Regex) -> frozenset[str]:
    return frozenset(node.char for node in _postorder(r) if isinstance(node, Symbol))


def star_height(r: Regex) -> int:
    """Maximum star nesting depth."""
    heights: list[int] = []  # one per finished subtree not yet folded
    for node in _postorder(r):
        if isinstance(node, Star):
            heights[-1] += 1
        elif isinstance(node, (Union, Concat)):
            right = heights.pop()
            heights[-1] = max(heights[-1], right)
        else:
            heights.append(0)
    [h] = heights
    return h


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
