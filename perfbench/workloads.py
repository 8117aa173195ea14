"""The benchmark's workloads: seeded instance pools and the operation that
takes one instance from text to a checked certificate.

Every instance is generated from the workload seed during set-up and
handed to the program as text only.  An operation goes through the same
public functions the command line handlers call: parse, solve, serialize
the certificate, parse it back and check it with the independent
validator.  A failed check raises CheckFailed.

Instance sizes are stratified: the pool is a sequence of blocks, each
holding one instance from every size stratum in a seeded order.  Any
stretch of the pool then has about the same size mix, so a run's
throughput depends on the program and not on how many large instances a
seed happened to draw.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """An operation's certificate or answer did not check out."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Instance:
    kind: str  # which operation runs it
    text: str


def _strata_blocks(rng: random.Random, strata, blocks: int):
    """Per block, one draw from each (lo, hi) stratum in a seeded order."""
    for _ in range(blocks):
        order = list(strata)
        rng.shuffle(order)
        for lo, hi in order:
            yield rng.randint(lo, hi)


def _graph_pool(dr, rng, strata, blocks, max_outdeg, kind):
    from digrank.generate import random_strongly_connected

    return [Instance(kind, dr.serialize_digraph(
                random_strongly_connected(rng, n, max_outdeg=max_outdeg)))
            for n in _strata_blocks(rng, strata, blocks)]


# Strata of `language` automata by the size of their binary recoding.
# Star height of the recoded automaton takes under 2 ms below 20 states,
# about 8 ms at 20-31, 80 ms at 32-40 and 350 ms at 41-44, and from 0.2 s
# to over a minute at 50-60 states, so larger automata are redrawn: one
# of them would outlast a run.
AUTOMATON_STRATA = ((1, 19), (20, 31), (32, 40))
REGEX_OPS_PER_AUTOMATON = 3
WORDS_PER_REGEX = 1000
REGEX_ALPHABET = ("a", "b", "c")


def recoded_states(a) -> int:
    """States of the binary recoding of a trim bideterministic automaton:
    its own states, one per (state, codeword prefix) leaving a state and
    one per (state, codeword suffix) entering one.  Computed here rather
    than by calling binarize, so the pool does not change with it."""
    width = (len(a.alphabet) - 1).bit_length()
    index = {sym: i for i, sym in enumerate(a.alphabet)}
    pre, suf = set(), set()
    for p, sym, q in a.transitions:
        digits = tuple(index[sym] >> (width - 1 - k) & 1 for k in range(width))
        pre.update((p, digits[:d + 1]) for d in range(width))
        suf.update((q, digits[d:]) for d in range(width))
    return a.states + len(pre) + len(suf)


def _automaton(rng, lo: int, hi: int):
    """An automaton of the acceptance-10 family (at most 6 states, 1 to 3
    symbols) whose recoding has lo..hi states, by rejection.  Alphabet
    sizes whose recoding cannot reach lo (6 states for 1 symbol, 30 for
    2) are rejected before an automaton is drawn."""
    from digrank.generate import random_bideterministic

    while True:
        r = rng.randint(1, 3)
        if (6, 30, hi)[r - 1] < lo:
            continue
        a = random_bideterministic(rng, 6, tuple("xyz"[:r]))
        if lo <= recoded_states(a) <= hi:
            return a


def _language_pool(dr, rng, blocks):
    from digrank.generate import random_regex

    # One seeded word list; each regex gets its own 1000-word slice.
    vocab = ["".join(rng.choices(REGEX_ALPHABET, k=rng.randint(0, 8)))
             for _ in range(20 * WORDS_PER_REGEX)]
    classes = [(k, k) for k in range(len(AUTOMATON_STRATA))]
    pool = []
    for k in _strata_blocks(rng, classes, blocks):
        pool.append(Instance("automaton", dr.serialize_automaton(
            _automaton(rng, *AUTOMATON_STRATA[k]))))
        for _ in range(REGEX_OPS_PER_AUTOMATON):
            r = random_regex(rng, rng.randint(0, 4),
                             REGEX_ALPHABET[:rng.randint(1, 3)])
            start = rng.randrange(len(vocab) - WORDS_PER_REGEX)
            pool.append(Instance("regex", "\n".join(
                [dr.serialize_regex(r), " ".join(REGEX_ALPHABET)]
                + vocab[start:start + WORDS_PER_REGEX])))
    return pool


# -- operations -------------------------------------------------------------
# Each returns (pinned answer, height of the checked forest or None).


def op_crank_exact(dr, text):
    g = dr.parse_digraph(text)
    res = dr.crank_exact(g)
    return res.value, _checked_forest(dr, g, res.witness, res.value)


def op_crank_approx(dr, text):
    g = dr.parse_digraph(text)
    res = dr.crank_approx(g)
    return res.height, _checked_forest(dr, g, res.forest, res.height)


def op_automaton(dr, text):
    a = dr.parse_automaton(text, as_dfa_flag=True)
    b = dr.binarize(a)
    value, _ = dr.star_height_bidet(a)
    value_b, witness = dr.star_height_bidet(b)
    check(value == value_b, f"star height {value} became {value_b} after binarize")
    host = dr.underlying_digraph(dr.trim(b))
    return value, _checked_forest(dr, host, witness, value)


def op_regex(dr, text):
    expr, alphabet, *words = text.split("\n")
    r = dr.parse_regex(expr)
    nfa = dr.parse_automaton(dr.serialize_automaton(
        dr.regex_to_nfa(r, alphabet=alphabet.split())))
    accepted = 0
    for w in words:
        got = dr.nfa_accepts(nfa, w)
        check(got == dr.matches(r, w), f"NFA and derivatives disagree on {w!r}")
        accepted += got
    return accepted, None


def op_min_dfvs(dr, text):
    g = dr.parse_digraph(text)
    res = dr.min_dfvs(g)
    digraph = dr.digraph
    s = digraph.parse_vertex_set(digraph.format_vertex_set(res.minimum_set))
    check(dr.is_dfvs(g, s), "minimum set is not a feedback vertex set")
    check(len(s) == res.minimum_size, "reported size differs from the set")
    check(res.forced <= s, "a loop vertex is missing from the set")
    return res.minimum_size, None


def _checked_forest(dr, g, forest, value):
    parsed = dr.parse_forest(dr.serialize_forest(forest))
    problems = dr.validate_forest(g, parsed)
    check(not problems, "invalid forest: " + "; ".join(problems[:3]))
    h = dr.elimination.height(parsed)
    check(h == value, f"forest height {h} differs from the answer {value}")
    return h


OPERATIONS: dict[str, Callable] = {
    "exact": op_crank_exact,
    "approx": op_crank_approx,
    "automaton": op_automaton,
    "regex": op_regex,
    "dfvs": op_min_dfvs,
}


# workload name -> (digrank package, rng) -> instance pool.  Graph sizes
# are an odd number of fixed strata, so the median operation falls inside
# the middle size and not in the gap between two.  Pools are larger than
# one run at the parent commit gets through; a faster program goes round
# its pool again.
WORKLOADS: dict[str, Callable] = {
    # crank_exact on outdegree-2 digraphs, the paper's regime.
    "exact-sparse": lambda dr, rng: _graph_pool(
        dr, rng, [(n, n) for n in (15, 16, 17)], 150, 2, "exact"),
    # crank_approx on outdegree-3 digraphs.
    "approx": lambda dr, rng: _graph_pool(
        dr, rng, [(n, n) for n in (80, 90, 100)], 40, 3, "approx"),
    "language": lambda dr, rng: _language_pool(dr, rng, 200),
    # min_dfvs on outdegree-3 digraphs.
    "dfvs": lambda dr, rng: _graph_pool(
        dr, rng, [(n, n) for n in (16, 17, 18)], 240, 3, "dfvs"),
}


def make_pool(dr, workload: str, seed: int) -> list[Instance]:
    return WORKLOADS[workload](dr, random.Random(f"{workload}/{seed}"))


def digest(pool: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in pool:
        h.update(inst.kind.encode() + b"\0" + inst.text.encode() + b"\0")
    return h.hexdigest()


def run_op(dr, inst: Instance):
    return OPERATIONS[inst.kind](dr, inst.text)
