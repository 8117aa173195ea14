"""Seeded random instance generators used by the benchmark command and
the test suite.  Every function takes an explicit random.Random so runs
are reproducible."""

from __future__ import annotations

import random
import warnings
from typing import Sequence

from .automata import Dfa, Nfa, trim
from .digraph import Digraph
from .errors import InputError
from .regex import Concat, EmptySet, EmptyWord, Regex, Star, Symbol, Union


def random_digraph(rng: random.Random, n: int, edge_prob: float = 0.3,
                   allow_loops: bool = True) -> Digraph:
    edges = [(a, b) for a in range(n) for b in range(n)
             if (allow_loops or a != b) and rng.random() < edge_prob]
    return Digraph(n, edges)


def random_bounded_outdegree(rng: random.Random, n: int, max_outdeg: int,
                             allow_loops: bool = False) -> Digraph:
    """Each vertex draws an outdegree in 0..max_outdeg and that many
    distinct targets."""
    if max_outdeg < 0:
        raise InputError("max_outdeg must be nonnegative")
    edges = []
    for v in range(n):
        pool = [u for u in range(n) if allow_loops or u != v]
        k = min(rng.randint(0, max_outdeg), len(pool))
        edges.extend((v, u) for u in rng.sample(pool, k))
    return Digraph(n, edges)


def random_strongly_connected(rng: random.Random, n: int,
                              max_outdeg: int | None = None,
                              extra_prob: float = 0.3,
                              allow_loops: bool = False) -> Digraph:
    """A random Hamiltonian cycle plus extra edges, so the result is
    strongly connected; max_outdeg caps each vertex's outdegree (must be
    >= 1 to leave room for the cycle edge)."""
    if n < 1:
        raise InputError("n must be positive")
    if max_outdeg is not None and max_outdeg < 1 and n > 1:
        raise InputError("max_outdeg must be at least 1 for the spanning cycle")
    if n == 1:
        return Digraph(1, [(0, 0)] if allow_loops and rng.random() < extra_prob else [])
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    outdeg = {v: 1 for v in range(n)}
    for v in range(n):
        budget = n if max_outdeg is None else max_outdeg
        pool = [u for u in range(n)
                if (allow_loops or u != v) and (v, u) not in edges]
        rng.shuffle(pool)
        for u in pool:
            if outdeg[v] >= budget:
                break
            if rng.random() < extra_prob:
                edges.add((v, u))
                outdeg[v] += 1
    return Digraph(n, edges)


def random_regex(rng: random.Random, depth: int, alphabet: Sequence[str]) -> Regex:
    """Uniform constructor choice, leaves only once depth runs out."""
    choices = 6 if depth > 0 else 3
    k = rng.randrange(choices)
    if k == 0:
        return Symbol(rng.choice(alphabet))
    if k == 1:
        return EmptyWord()
    if k == 2:
        return EmptySet()
    if k == 3:
        return Union(random_regex(rng, depth - 1, alphabet),
                     random_regex(rng, depth - 1, alphabet))
    if k == 4:
        return Concat(random_regex(rng, depth - 1, alphabet),
                      random_regex(rng, depth - 1, alphabet))
    return Star(random_regex(rng, depth - 1, alphabet))


def random_words(rng: random.Random, alphabet: Sequence[str], count: int,
                 max_len: int) -> list[tuple[str, ...]]:
    """Sampled words including the empty one; may repeat."""
    out = [()]
    while len(out) < count:
        length = rng.randint(0, max_len)
        out.append(tuple(rng.choice(alphabet) for _ in range(length)))
    return out[:count]


def random_bideterministic(rng: random.Random, max_states: int,
                           alphabet: Sequence[str],
                           max_tries: int = 200) -> Dfa:
    """A random trim bideterministic automaton.

    Per symbol, the transition relation is a random partial injection on
    the states, which is exactly forward plus reverse determinism; a
    single final state completes bideterminism.  Sampling retries until
    trimming keeps a nonempty language (the trim of a bideterministic
    automaton is again bideterministic).
    """
    if max_states < 1:
        raise InputError("max_states must be positive")
    alphabet = tuple(alphabet)
    for _ in range(max_tries):
        n = rng.randint(1, max_states)
        transitions = set()
        for sym in alphabet:
            sources = [q for q in range(n) if rng.random() < 0.7]
            targets = rng.sample(range(n), len(sources))
            transitions.update((p, sym, t) for p, t in zip(sources, targets))
        cand = Dfa(n, alphabet, frozenset(transitions),
                   rng.randrange(n), frozenset([rng.randrange(n)]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t = trim(cand)
        if t.finals:
            return t  # trim keeps the concrete type, so a Dfa
    raise InputError(f"no trim bideterministic automaton found in {max_tries} tries")
