"""Finite automata and their connection to cycle rank: regex to NFA
conversion, bideterminism, star height of bideterministic languages, and
two reductions that transfer cycle rank between digraphs and automata
(the walk-language automaton of a strongly connected digraph, and a
binary recoding that squeezes any alphabet down to {a, b}).

Symbols are arbitrary whitespace-free tokens, so edge names like
``(0,1)`` are valid symbols.  A word is a sequence of symbols; a plain
string works for single-character alphabets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cyclerank import crank_exact
from .digraph import Digraph, is_strongly_connected
from .elimination import EliminationForest
from .errors import DomainError, InputError, ParseError
from .regex import (Concat, EmptySet, EmptyWord, Regex, Star, Symbol, Union,
                    symbols_of)

Transition = tuple[int, "str | None", int]  # symbol None means epsilon


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic finite automaton with a single initial state.

    transitions hold (source, symbol, target) triples; symbol None is an
    epsilon move.
    """

    states: int
    alphabet: tuple[str, ...]
    transitions: frozenset[Transition]
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.states < 1:
            raise InputError(f"state count must be positive, got {self.states}")
        seen = set()
        for sym in self.alphabet:
            if not sym or sym != sym.strip() or any(c.isspace() for c in sym):
                raise InputError(f"bad symbol {sym!r}: must be a whitespace-free token")
            if sym == "eps":
                raise InputError("symbol 'eps' is reserved for epsilon")
            if sym in seen:
                raise InputError(f"duplicate symbol {sym!r} in alphabet")
            seen.add(sym)
        if not 0 <= self.initial < self.states:
            raise InputError(f"initial state {self.initial} out of range")
        for q in self.finals:
            if not 0 <= q < self.states:
                raise InputError(f"final state {q} out of range")
        for p, sym, q in self.transitions:
            if not (0 <= p < self.states and 0 <= q < self.states):
                raise InputError(f"transition ({p}, {sym!r}, {q}) out of range")
            if sym is not None and sym not in seen:
                raise InputError(f"transition symbol {sym!r} not in alphabet")


@dataclass(frozen=True)
class Dfa(Nfa):
    """Deterministic automaton: no epsilon moves, at most one transition
    per (state, symbol).  Partial transition functions are allowed."""

    def __post_init__(self):
        super().__post_init__()
        seen: set[tuple[int, str]] = set()
        for p, sym, q in self.transitions:
            if sym is None:
                raise InputError("epsilon transition in a DFA")
            if (p, sym) in seen:
                raise InputError(f"two transitions from state {p} on {sym!r}")
            seen.add((p, sym))


def is_deterministic(a: Nfa) -> bool:
    seen: set[tuple[int, str]] = set()
    for p, sym, q in a.transitions:
        if sym is None or (p, sym) in seen:
            return False
        seen.add((p, sym))
    return True


def is_bideterministic(a: Nfa) -> bool:
    """Deterministic, a single final state, and deterministic again after
    reversing every transition and swapping initial with final."""
    if len(a.finals) != 1 or not is_deterministic(a):
        return False
    seen: set[tuple[int, str]] = set()
    for p, sym, q in a.transitions:
        if (q, sym) in seen:
            return False
        seen.add((q, sym))
    return True


def underlying_digraph(a: Nfa) -> Digraph:
    """Transition structure with labels forgotten; parallel transitions
    collapse to one edge, self-transitions become loops."""
    return Digraph(a.states, {(p, q) for p, _, q in a.transitions})


def _eps_closure(a: Nfa, states: frozenset[int]) -> frozenset[int]:
    out = set(states)
    frontier = list(states)
    eps = {}
    for p, sym, q in a.transitions:
        if sym is None:
            eps.setdefault(p, []).append(q)
    while frontier:
        p = frontier.pop()
        for q in eps.get(p, ()):
            if q not in out:
                out.add(q)
                frontier.append(q)
    return frozenset(out)


def nfa_accepts(a: Nfa, word: Sequence[str]) -> bool:
    """Subset simulation with epsilon closure.  word is a sequence of
    alphabet symbols; symbols outside the alphabet raise InputError."""
    symbols = set(a.alphabet)
    step: dict[tuple[int, str], set[int]] = {}
    for p, sym, q in a.transitions:
        if sym is not None:
            step.setdefault((p, sym), set()).add(q)
    cur = _eps_closure(a, frozenset([a.initial]))
    for sym in word:
        if sym not in symbols:
            raise InputError(f"symbol {sym!r} not in the alphabet")
        nxt = set()
        for p in cur:
            nxt |= step.get((p, sym), set())
        cur = _eps_closure(a, frozenset(nxt))
        if not cur:
            return False
    return bool(cur & a.finals)


def trim(a: Nfa) -> Nfa:
    """Restrict to states that are reachable from the initial state and
    co-reachable to some final state.  Preserves the language and the
    concrete type (a Dfa stays a Dfa).

    An empty language leaves no useful states at all; the result is then
    a single initial state with no transitions and no finals, and a
    UserWarning is emitted.
    """
    fwd: dict[int, list[int]] = {}
    bwd: dict[int, list[int]] = {}
    for p, _, q in a.transitions:
        fwd.setdefault(p, []).append(q)
        bwd.setdefault(q, []).append(p)

    def closure(seeds: Iterable[int], adj: dict[int, list[int]]) -> set[int]:
        out = set(seeds)
        frontier = list(out)
        while frontier:
            p = frontier.pop()
            for q in adj.get(p, ()):
                if q not in out:
                    out.add(q)
                    frontier.append(q)
        return out

    useful = closure([a.initial], fwd) & closure(a.finals, bwd)
    if not useful:
        warnings.warn("empty language: trim kept only the initial state", stacklevel=2)
        return type(a)(1, a.alphabet, frozenset(), 0, frozenset())
    order = sorted(useful)
    relabel = {q: i for i, q in enumerate(order)}
    return type(a)(
        len(order), a.alphabet,
        frozenset((relabel[p], sym, relabel[q]) for p, sym, q in a.transitions
                  if p in useful and q in useful),
        relabel[a.initial],
        frozenset(relabel[q] for q in a.finals if q in useful))


def regex_to_nfa(r: Regex, alphabet: Iterable[str] | None = None) -> Nfa:
    """Inductive epsilon construction.  Each fragment has one entry and
    one exit state; every Star wraps its fragment in a single new cycle,
    so the cycle rank of the underlying digraph never exceeds the star
    height of the expression.
    """
    transitions: set[Transition] = set()
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def build(node: Regex) -> tuple[int, int]:
        if isinstance(node, EmptySet):
            return fresh(), fresh()
        if isinstance(node, EmptyWord):
            s, e = fresh(), fresh()
            transitions.add((s, None, e))
            return s, e
        if isinstance(node, Symbol):
            s, e = fresh(), fresh()
            transitions.add((s, node.char, e))
            return s, e
        if isinstance(node, Union):
            ls, le = build(node.left)
            rs, re = build(node.right)
            s, e = fresh(), fresh()
            transitions.update([(s, None, ls), (s, None, rs), (le, None, e), (re, None, e)])
            return s, e
        if isinstance(node, Concat):
            ls, le = build(node.left)
            rs, re = build(node.right)
            transitions.add((le, None, rs))
            return ls, re
        if isinstance(node, Star):
            is_, ie = build(node.inner)
            s, e = fresh(), fresh()
            transitions.update([(s, None, is_), (ie, None, e), (ie, None, is_), (s, None, e)])
            return s, e
        raise InputError(f"unknown node {node!r}")

    start, end = build(r)
    if alphabet is None:
        syms = tuple(sorted(symbols_of(r)))
    else:
        syms = tuple(alphabet)
        missing = symbols_of(r) - set(syms)
        if missing:
            raise InputError(f"symbols {sorted(missing)} not in the declared alphabet")
    return Nfa(counter[0], syms, frozenset(transitions), start, frozenset([end]))


def star_height_bidet(a: Nfa) -> tuple[int, EliminationForest]:
    """Star height of L(A) for automata whose trim part is
    bideterministic, where it equals the cycle rank of the trimmed
    transition structure.  Returns the rank with an elimination forest
    witnessing it.  DomainError if the trimmed automaton is not
    bideterministic: the equality is not guaranteed then.
    """
    t = trim(a)
    if not is_bideterministic(t):
        raise DomainError("trimmed automaton is not bideterministic")
    res = crank_exact(underlying_digraph(t))
    return res.value, res.witness


def edge_symbol(u: int, v: int) -> str:
    return f"({u},{v})"


def walk_language_automaton(g: Digraph, v: int) -> Dfa:
    """Automaton of closed walks through v in a strongly connected G:
    states are the vertices, each edge (x,y) becomes a transition on its
    own symbol ``(x,y)``, initial = final = v.  Bideterministic and trim
    by construction, and its transition structure is G itself.
    """
    if not 0 <= v < g.n:
        raise InputError(f"vertex {v} out of range for n={g.n}")
    if not is_strongly_connected(g):
        raise DomainError("walk language automaton requires a strongly connected digraph")
    edges = sorted(g.edges)
    return Dfa(g.n,
               tuple(edge_symbol(x, y) for x, y in edges),
               frozenset((x, edge_symbol(x, y), y) for x, y in edges),
               v, frozenset([v]))


def _canonical_relabel(a: Dfa) -> Dfa:
    """Number states in BFS discovery order from the initial state,
    expanding symbols in alphabet order.  Requires a trim automaton."""
    nxt = {(p, s): q for p, s, q in a.transitions}
    relabel = {a.initial: 0}
    frontier = [a.initial]
    while frontier:
        nf = []
        for p in frontier:
            for s in a.alphabet:
                q = nxt.get((p, s))
                if q is not None and q not in relabel:
                    relabel[q] = len(relabel)
                    nf.append(q)
        frontier = nf
    if len(relabel) != a.states:
        raise InputError("canonical relabeling requires all states reachable")
    return Dfa(a.states, a.alphabet,
               frozenset((relabel[p], s, relabel[q]) for p, s, q in a.transitions),
               0, frozenset(relabel[q] for q in a.finals))


def _code_words(r: int) -> list[tuple[str, ...]]:
    """Binary codeword per symbol index: the index written with a/b
    digits at fixed width ceil(log2 r), a marker a, then the same digits
    again.  Uniform length, so the code is uniquely decodable."""
    if r == 0:
        return []
    width = (r - 1).bit_length()
    words = []
    for i in range(r):
        digits = tuple("b" if i >> (width - 1 - k) & 1 else "a"
                       for k in range(width))
        words.append(digits + ("a",) + digits)
    return words


def binarize_word(alphabet: Sequence[str], word: Sequence[str]) -> tuple[str, ...]:
    """Image of a word under the binary recoding used by binarize."""
    codes = dict(zip(alphabet, _code_words(len(alphabet))))
    out: list[str] = []
    for sym in word:
        if sym not in codes:
            raise InputError(f"symbol {sym!r} not in the alphabet")
        out.extend(codes[sym])
    return tuple(out)


def binarize(a: Nfa) -> Dfa:
    """Recode a bideterministic automaton into a bideterministic one over
    {a, b} with the same star height, accepting the image of the language
    under the codeword map of binarize_word.

    Each transition p -> q on symbol number i becomes a path spelling i's
    codeword: the leading index digits run through a prefix tree owned by
    p (shared prefixes share states, keeping the automaton
    deterministic), the marker a crosses over, and the trailing digits
    run through a suffix tree owned by q (shared suffixes share states,
    keeping the reversal deterministic).  Deleting an interior tree
    vertex of the underlying digraph never beats deleting the tree's
    owner, so the cycle rank, and with it the star height, is exactly
    preserved.  The result is trimmed and relabeled in BFS order.
    """
    if not is_bideterministic(a):
        raise DomainError("binarize requires a bideterministic automaton")
    codes = dict(zip(a.alphabet, _code_words(len(a.alphabet))))
    width = (len(a.alphabet) - 1).bit_length() if a.alphabet else 0
    node_ids: dict[tuple, int] = {}

    def node(key: tuple) -> int:
        return node_ids.setdefault(key, a.states + len(node_ids))

    transitions: set[Transition] = set()
    for p, sym, q in a.transitions:
        digits = codes[sym][:width]
        cur = p
        for d in range(width):
            nxt = node(("pre", p, digits[:d + 1]))
            transitions.add((cur, digits[d], nxt))
            cur = nxt
        transitions.add((cur, "a", node(("suf", q, digits)) if width else q))
        pending = digits
        while pending:
            nxt = q if len(pending) == 1 else node(("suf", q, pending[1:]))
            transitions.add((node(("suf", q, pending)), pending[0], nxt))
            pending = pending[1:]

    raw = Dfa(a.states + len(node_ids), ("a", "b"), frozenset(transitions),
              a.initial, a.finals)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty-language trim is fine here
        result = trim(raw)
    if result.finals and not is_bideterministic(result):
        raise DomainError("binarize produced a non-bideterministic automaton")
    return _canonical_relabel(result) if result.finals else result


def serialize_automaton(a: Nfa) -> str:
    """Text form; parse_automaton inverts it.

    Lines: ``states N``, ``alphabet s1 s2 ...``, ``initial q``,
    ``finals q1 q2 ...``, then one ``p sym q`` per transition with
    epsilon spelled ``eps``.
    """
    lines = [f"states {a.states}",
             "alphabet" + "".join(f" {s}" for s in a.alphabet),
             f"initial {a.initial}",
             "finals" + "".join(f" {q}" for q in sorted(a.finals))]
    def key(t: Transition):
        p, sym, q = t
        return (p, sym is not None, sym or "", q)
    for p, sym, q in sorted(a.transitions, key=key):
        lines.append(f"{p} {'eps' if sym is None else sym} {q}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str, as_dfa_flag: bool = False) -> Nfa:
    """Parse the serialize_automaton format.  Blank lines and ``#``
    comments are allowed.  With as_dfa_flag, epsilon transitions are
    rejected and the result is a validated Dfa."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    if len(rows) < 4:
        raise ParseError("expected header lines: states, alphabet, initial, finals")

    def header(i: int, name: str) -> tuple[int, list[str]]:
        lineno, parts = rows[i]
        if parts[0] != name:
            raise ParseError(f"expected '{name}' line", line=lineno)
        return lineno, parts[1:]

    lineno, parts = header(0, "states")
    if len(parts) != 1 or not parts[0].isdigit():
        raise ParseError("states line needs one nonnegative count", line=lineno)
    states = int(parts[0])

    _, alphabet = header(1, "alphabet")

    lineno, parts = header(2, "initial")
    if len(parts) != 1 or not parts[0].isdigit():
        raise ParseError("initial line needs one state index", line=lineno)
    initial = int(parts[0])

    lineno, parts = header(3, "finals")
    try:
        finals = frozenset(int(p) for p in parts)
    except ValueError:
        raise ParseError("finals line needs state indices", line=lineno) from None

    transitions = set()
    for lineno, parts in rows[4:]:
        if len(parts) != 3:
            raise ParseError(f"expected 'p symbol q', got {' '.join(parts)!r}", line=lineno)
        ps, sym, qs = parts
        if not (ps.isdigit() and qs.isdigit()):
            raise ParseError("transition endpoints must be state indices", line=lineno)
        if sym == "eps":
            if as_dfa_flag:
                raise ParseError("epsilon transition not allowed in a DFA file", line=lineno)
            symv: str | None = None
        else:
            symv = sym
        transitions.add((int(ps), symv, int(qs)))

    cls = Dfa if as_dfa_flag else Nfa
    try:
        return cls(states, tuple(alphabet), frozenset(transitions), initial, finals)
    except InputError as e:
        raise ParseError(str(e)) from None
