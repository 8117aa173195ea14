"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
"acceptance N <label>: PASS/FAIL" line (run with -s to see them live).
Criteria 1 and 2 share one exhaustive sweep, computed once and cached.
All randomness is seeded, so every run checks the same instances.
"""

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from digrank import (
    check_bounds,
    count_sc_subsets,
    crank_approx,
    crank_bruteforce,
    crank_exact,
    matches,
    min_dfvs,
    nfa_accepts,
    regex_to_nfa,
    sc_subset_bound,
    star_height,
    star_height_bidet,
    validate_forest,
    walk_language_automaton,
)
from digrank.automata import binarize, underlying_digraph
from digrank.dfvs import is_dfvs, maximal_acyclic_subsets, minimal_dfvs_enumerate
from digrank.digraph import (Digraph, degrees, induced, is_acyclic,
                             is_strongly_connected)
from digrank.elimination import height
from digrank.generate import (
    random_bideterministic,
    random_bounded_outdegree,
    random_digraph,
    random_regex,
    random_strongly_connected,
    random_words,
)

pytestmark = pytest.mark.acceptance

FLOAT_TOL = 1e-6


def _verdict(num: int, label: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {num} {label}: {status}{tail}")
    assert not failures, failures[:10]


def _all_digraphs(n: int, allow_loops: bool):
    pairs = [(u, v) for u in range(n) for v in range(n) if allow_loops or u != v]
    for mask in range(1 << len(pairs)):
        yield Digraph(n, frozenset(
            p for i, p in enumerate(pairs) if mask >> i & 1))


@dataclass(frozen=True)
class _Sweep:
    total: int
    elapsed: float
    value_mismatches: tuple
    witness_failures: tuple


_SWEEP_CACHE: list = []


def _sweep() -> _Sweep:
    """All digraphs with n <= 4 plus 500 random n = 8, shared by
    criteria 1 and 2."""
    if _SWEEP_CACHE:
        return _SWEEP_CACHE[0]
    t0 = time.monotonic()
    rng = random.Random(1)
    instances = itertools.chain(
        (g for n in range(5) for g in _all_digraphs(n, allow_loops=True)),
        (random_digraph(rng, 8, edge_prob=rng.uniform(0.05, 0.6))
         for _ in range(500)))
    total = 0
    value_mismatches = []
    witness_failures = []
    for g in instances:
        res = crank_exact(g)
        if res.value != crank_bruteforce(g):
            value_mismatches.append(g)
        if validate_forest(g, res.witness) or height(res.witness) != res.value:
            witness_failures.append(g)
        total += 1
    out = _Sweep(total, time.monotonic() - t0,
                 tuple(value_mismatches), tuple(witness_failures))
    _SWEEP_CACHE.append(out)
    return out


def test_01_oracle_equivalence():
    sweep = _sweep()
    failures = list(sweep.value_mismatches)
    assert sweep.total == 66067 + 500
    if sweep.elapsed >= 300.0:
        failures.append(f"sweep took {sweep.elapsed:.0f}s, budget 300s")
    _verdict(1, "oracle equivalence", failures,
             f"{sweep.total} instances in {sweep.elapsed:.0f}s")


def test_02_witness_validity():
    sweep = _sweep()
    _verdict(2, "witness validity", list(sweep.witness_failures),
             f"{sweep.total} witnesses")


def test_03_bounds_chain():
    failures = []
    checked = 0
    for n in range(5):
        for g in _all_digraphs(n, allow_loops=False):
            if not is_strongly_connected(g):
                continue
            rep = check_bounds(g)
            if not rep.chain_ok:
                failures.append(g)
            if rep.rk_bound is not None and rep.crank > rep.rk_bound:
                failures.append(g)
            checked += 1
    rng = random.Random(3)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(0, 8),
                           edge_prob=rng.uniform(0.05, 0.6), allow_loops=False)
        if not check_bounds(g).chain_ok:
            failures.append(g)
        checked += 1
    _verdict(3, "bounds chain", failures, f"{checked} instances")


def test_04_census_bound():
    failures = []
    rng = random.Random(4)
    for n in (10, 15, 20):
        bound = 1.9129 ** n + n
        # the library base is 7**(1/3) = 1.91293..., so the rounded 1.9129
        # bound sits within a 1e-3 relative band of sc_subset_bound up to n=20
        assert sc_subset_bound(n, 2) == pytest.approx(bound, rel=1e-3)
        for _ in range(100):
            g = random_bounded_outdegree(rng, n, 2)
            census = count_sc_subsets(g)
            if census.total > bound + FLOAT_TOL:
                failures.append((n, "census", census.total))
            res = crank_exact(g)
            if res.memo_size > bound + FLOAT_TOL:
                failures.append((n, "memo", res.memo_size))
    _verdict(4, "census bound", failures, "300 instances")


def test_05_scaling():
    failures = []
    details = []
    memo_bound = sc_subset_bound(24, 2)
    assert memo_bound == pytest.approx(5.7e6, rel=0.02)
    for seed in (0, 1, 2):
        g = random_strongly_connected(random.Random(seed), 24, max_outdeg=2)
        t0 = time.monotonic()
        res = crank_exact(g)
        dt = time.monotonic() - t0
        details.append(f"n=24/{seed}: {dt:.1f}s memo {res.memo_size}")
        if dt >= 600.0:
            failures.append(f"n=24 seed {seed} took {dt:.0f}s")
        if res.memo_size > memo_bound + FLOAT_TOL:
            failures.append(f"n=24 seed {seed} memo {res.memo_size}")
    g = random_digraph(random.Random(5), 20, edge_prob=0.3)
    t0 = time.monotonic()
    res = crank_exact(g)
    dt = time.monotonic() - t0
    details.append(f"n=20: {dt:.1f}s memo {res.memo_size}")
    if dt >= 600.0:
        failures.append(f"n=20 took {dt:.0f}s")
    if res.memo_size > 1 << 20:
        failures.append(f"n=20 memo {res.memo_size}")
    _verdict(5, "scaling", failures, "; ".join(details))


def test_06_dfvs_duality():
    failures = []
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(0, 8)
        g = random_digraph(rng, n, edge_prob=rng.uniform(0.05, 0.6))
        res = min_dfvs(g)
        brute_min = min(k for k in range(n + 1)
                        for c in itertools.combinations(range(n), k)
                        if is_dfvs(g, set(c)))
        if res.minimum_size != brute_min:
            failures.append((g, res.minimum_size, brute_min))
        maximal = maximal_acyclic_subsets(g)
        minimal = minimal_dfvs_enumerate(g)
        vs = frozenset(range(n))
        if {vs - m for m in maximal} != set(minimal):
            failures.append((g, "complement mismatch"))
        if any(not is_dfvs(g, d) for d in minimal):
            failures.append((g, "non-dfvs in enumeration"))
        if any(not is_acyclic(induced(g, m)) for m in maximal):
            failures.append((g, "cyclic maximal set"))
    _verdict(6, "dfvs duality", failures, "300 instances")


def test_07_approximation_soundness():
    failures = []
    ratios = []
    rng = random.Random(7)
    for _ in range(200):
        g = random_digraph(rng, rng.randint(0, 14),
                           edge_prob=rng.uniform(0.05, 0.5))
        res = crank_approx(g)
        if validate_forest(g, res.forest):
            failures.append((g, "invalid forest"))
        exact = crank_exact(g).value
        if res.height < exact:
            failures.append((g, res.height, exact))
        if exact:
            ratios.append(res.height / exact)
    # the ratio is reported, not asserted: no fixed bound is promised
    detail = (f"ratio mean {sum(ratios) / len(ratios):.3f} "
              f"max {max(ratios):.3f} over {len(ratios)} cyclic instances")
    _verdict(7, "approximation soundness", failures, detail)


def test_08_regex_nfa_bound():
    failures = []
    alphabet = ("a", "b", "c")
    rng = random.Random(8)
    for _ in range(500):
        r = random_regex(rng, rng.randint(0, 4), alphabet[:rng.randint(1, 3)])
        a = regex_to_nfa(r, alphabet=alphabet)
        if crank_exact(underlying_digraph(a)).value > star_height(r):
            failures.append(r)
            continue
        for w in random_words(rng, alphabet, 1000, max_len=8):
            if nfa_accepts(a, w) != matches(r, w):
                failures.append((r, w))
                break
    _verdict(8, "regex nfa bound", failures, "500 regexes x 1000 words")


def test_09_walk_language_pipeline():
    failures = []
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 7)
        g = random_strongly_connected(rng, n, extra_prob=rng.uniform(0.1, 0.5))
        v = rng.randrange(n)
        got = star_height_bidet(walk_language_automaton(g, v))[0]
        want = crank_exact(g).value
        if got != want:
            failures.append((g, v, got, want))
    _verdict(9, "walk language pipeline", failures, "100 instances")


def test_10_binary_recoding():
    failures = []
    rng = random.Random(10)
    for i in range(50):
        r = rng.randint(1, 3)
        a = random_bideterministic(rng, 6, tuple("xyz"[:r]))
        b = binarize(a)  # already trim by construction
        if star_height_bidet(b)[0] != star_height_bidet(a)[0]:
            failures.append((i, "star height changed"))
        for v, (out, tot) in enumerate(degrees(underlying_digraph(b))):
            if out > 2 or tot > 4:
                failures.append((i, v, out, tot))
    _verdict(10, "binary recoding", failures, "50 automata")
