"""Command line front end.

Exit codes: 0 success, 1 input or parse error, 2 validation failure or
domain error, 3 capacity or resource limit.  Errors go to stderr with an
``error:`` prefix, warnings with ``warning:``.  stdout is byte-identical
across runs on the same inputs and seed; wall-clock timings go to stderr.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import warnings
from importlib import metadata

from .approx import crank_approx
from .automata import (binarize, parse_automaton, serialize_automaton,
                       star_height_bidet, walk_language_automaton)
from .cyclerank import (EXACT_VERTEX_LIMIT, count_sc_subsets, crank_bruteforce, crank_exact,
                        sc_subset_bound)
from .dfvs import min_dfvs, minimal_dfvs_enumerate
from .digraph import Digraph, format_vertex_set, parse_digraph
from .elimination import parse_forest, serialize_forest, validate_forest
from .errors import CapacityError, DigrankError, InputError
from .generate import random_strongly_connected
from .regex import parse_regex, star_height
from .widths import check_bounds, dpw_exact, serialize_path_decomposition, snum_exact


class _Parser(argparse.ArgumentParser):
    """argparse exits on its own; raise instead so errors map to exit 1."""

    def error(self, message):
        raise InputError(message)


def _version() -> str:
    try:
        return metadata.version("artifact")
    except metadata.PackageNotFoundError:
        return "unknown"


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "kv"], default="text",
                        help="metric lines as 'key value' (text) or 'key=value' (kv)")

    p = _Parser(prog="digrank", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"digrank {_version()}")
    sub = p.add_subparsers(dest="command", required=True)

    crank = sub.add_parser("crank", help="cycle rank of a digraph",
                           parents=[common])
    crank.add_argument("mode", choices=["exact", "brute", "approx"])
    crank.add_argument("graph", help="digraph file")
    crank.add_argument("--base-threshold", default=None,
                       help="approx: piece size that ends the recursion (int or 'auto')")
    crank.add_argument("--memo-limit", type=int, default=None,
                       help="exact: most memo entries before giving up (exit 3)")

    forest = sub.add_parser("forest", help="elimination forest utilities",
                            parents=[common])
    forest.add_argument("action", choices=["validate"])
    forest.add_argument("graph")
    forest.add_argument("forest", help="forest file")

    dpw = sub.add_parser("dpw", help="directed pathwidth with a witness",
                         parents=[common])
    dpw.add_argument("graph")

    snum = sub.add_parser("snum", help="weak separator number", parents=[common])
    snum.add_argument("graph")

    bounds = sub.add_parser("bounds", help="snum <= dpw <= crank chain report",
                            parents=[common])
    bounds.add_argument("graph")

    dfvs = sub.add_parser("dfvs", help="directed feedback vertex sets",
                          parents=[common])
    dfvs.add_argument("mode", choices=["min", "enumerate"])
    dfvs.add_argument("graph")
    dfvs.add_argument("--cap", type=int, default=None,
                      help="enumerate: most minimal feedback sets found before giving up (exit 3)")

    csc = sub.add_parser("count-sc", help="census of strongly connected vertex sets",
                         parents=[common])
    csc.add_argument("graph")

    sh = sub.add_parser("sh", help="star height", parents=[common])
    sh.add_argument("mode", choices=["regex", "bidet"])
    sh.add_argument("source", help="regular expression, or an automaton file for bidet")

    # reduce prints automaton text only, so it takes no --format.
    reduce_ = sub.add_parser("reduce", help="digraph/automaton reductions")
    rsub = reduce_.add_subparsers(dest="reduction", required=True)
    walk = rsub.add_parser("walk", help="walk-language automaton of a vertex")
    walk.add_argument("graph")
    walk.add_argument("vertex", type=int)
    binz = rsub.add_parser("binarize", help="recode over a binary alphabet")
    binz.add_argument("automaton", help="DFA file")

    bench = sub.add_parser("bench", help="benchmarks", parents=[common])
    bench.add_argument("target", choices=["crank"])
    bench.add_argument("--n", type=int, required=True,
                       help=f"vertex count (<= {EXACT_VERTEX_LIMIT})")
    bench.add_argument("--outdeg", type=int, default=2, help="max outdegree")
    bench.add_argument("--trials", type=int, default=10)
    bench.add_argument("--seed", type=int, default=0)

    return p


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None


def _metric(fmt: str, key: str, value) -> str:
    return f"{key}={value}" if fmt == "kv" else f"{key} {value}"


def _cmd_crank(args) -> int:
    if args.memo_limit is not None and args.mode != "exact":
        raise InputError("--memo-limit applies to 'crank exact' only")
    if args.base_threshold is not None and args.mode != "approx":
        raise InputError("--base-threshold applies to 'crank approx' only")
    g = parse_digraph(_read(args.graph))
    if args.mode == "brute":
        print(_metric(args.format, "crank", crank_bruteforce(g)))
        return 0
    if args.mode == "exact":
        if args.memo_limit is not None and args.memo_limit < 1:
            raise InputError("--memo-limit must be positive")
        res = crank_exact(g, memo_limit=args.memo_limit)
        print(_metric(args.format, "crank", res.value))
        print(serialize_forest(res.witness), end="")
        return 0
    threshold = "auto" if args.base_threshold is None else args.base_threshold
    res = crank_approx(g, base_threshold=threshold)
    print(_metric(args.format, "height", res.height))
    print(serialize_forest(res.forest), end="")
    return 0


def _cmd_forest(args) -> int:
    g = parse_digraph(_read(args.graph))
    forest = parse_forest(_read(args.forest))
    violations = validate_forest(g, forest)
    if not violations:
        print(_metric(args.format, "valid", "yes"))
        return 0
    print(_metric(args.format, "valid", "no"))
    for v in violations:
        print(f"violation: {v}")
    return 2


def _cmd_dpw(args) -> int:
    g = parse_digraph(_read(args.graph))
    value, bags = dpw_exact(g)
    print(_metric(args.format, "dpw", value))
    if not bags:
        # Degenerate case: no vertices means no bags, and "largest bag
        # minus one" is undefined; the 0 above is a convention.
        print(_metric(args.format, "empty", "yes"))
    print(serialize_path_decomposition(bags), end="")
    return 0


def _cmd_snum(args) -> int:
    g = parse_digraph(_read(args.graph))
    print(_metric(args.format, "snum", snum_exact(g)))
    return 0


def _cmd_bounds(args) -> int:
    g = parse_digraph(_read(args.graph))
    rep = check_bounds(g)
    chain = "ok" if rep.chain_ok else "violated"
    bound = "-" if rep.rk_bound is None else rep.rk_bound
    # One line in text, one metric a line in kv.
    print(*(_metric(args.format, key, value)
            for key, value in [("snum", rep.snum), ("dpw", rep.dpw),
                               ("crank", rep.crank), ("rk-1", bound),
                               ("chain", chain)]),
          sep="\n" if args.format == "kv" else " ")
    return 0 if rep.chain_ok else 2


def _cmd_dfvs(args) -> int:
    g = parse_digraph(_read(args.graph))
    if args.mode == "min":
        if args.cap is not None:
            raise InputError("--cap applies to 'dfvs enumerate' only")
        res = min_dfvs(g)
        print(_metric(args.format, "size", res.minimum_size))
        print(_metric(args.format, "min", format_vertex_set(res.minimum_set)))
        print(_metric(args.format, "forced", format_vertex_set(res.forced)))
        return 0
    if args.cap is not None and args.cap < 1:
        raise InputError("--cap must be positive")
    sets = minimal_dfvs_enumerate(g, cap=args.cap)
    print(_metric(args.format, "count", len(sets)))
    for s in sets:
        print(format_vertex_set(s))
    return 0


def _cmd_count_sc(args) -> int:
    g = parse_digraph(_read(args.graph))
    census = count_sc_subsets(g)
    print(_metric(args.format, "nontrivial", census.nontrivial))
    print(_metric(args.format, "total", census.total))
    return 0


def _cmd_sh(args) -> int:
    if args.mode == "regex":
        print(_metric(args.format, "sh", star_height(parse_regex(args.source))))
        return 0
    a = parse_automaton(_read(args.source), as_dfa_flag=True)
    value, witness = star_height_bidet(a)
    print(_metric(args.format, "sh", value))
    print(serialize_forest(witness), end="")
    return 0


def _cmd_reduce(args) -> int:
    if args.reduction == "walk":
        g = parse_digraph(_read(args.graph))
        print(serialize_automaton(walk_language_automaton(g, args.vertex)), end="")
        return 0
    a = parse_automaton(_read(args.automaton), as_dfa_flag=True)
    print(serialize_automaton(binarize(a)), end="")
    return 0


def _cmd_bench(args) -> int:
    if not 0 <= args.n <= EXACT_VERTEX_LIMIT:
        raise CapacityError(
            f"bench requires 0 <= n <= {EXACT_VERTEX_LIMIT}, got {args.n}")
    if args.trials < 0:
        raise InputError("--trials must be nonnegative")
    if args.outdeg < 1:
        raise InputError("--outdeg must be at least 1")
    rng = random.Random(args.seed)
    bound = sc_subset_bound(args.n, args.outdeg)
    worst = 0
    for trial in range(args.trials):
        if args.n == 0:
            g = Digraph(0, [])
        else:
            g = random_strongly_connected(rng, args.n, max_outdeg=args.outdeg)
        res = crank_exact(g)
        worst = max(worst, res.memo_size)
        within = "yes" if res.memo_size <= bound + 1e-6 else "no"
        print(*(_metric(args.format, key, value)
                for key, value in [("trial", trial), ("crank", res.value),
                                   ("memo", res.memo_size), ("within", within)]))
        print(f"trial {trial} time {res.elapsed * 1000:.1f} ms", file=sys.stderr)
    print(_metric(args.format, "max-memo", worst))
    print(_metric(args.format, "bound", f"{bound:.1f}"))
    return 0 if worst <= bound + 1e-6 else 2


_HANDLERS = {
    "crank": _cmd_crank,
    "forest": _cmd_forest,
    "dpw": _cmd_dpw,
    "snum": _cmd_snum,
    "bounds": _cmd_bounds,
    "dfvs": _cmd_dfvs,
    "count-sc": _cmd_count_sc,
    "sh": _cmd_sh,
    "reduce": _cmd_reduce,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (say, `digrank ... | head -1`).
        # Point the descriptor at devnull so the flush at exit stays
        # silent instead of printing a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = parser.parse_args(argv)
            return _HANDLERS[args.command](args)
        except DigrankError as e:
            error = e
        except (OverflowError, MemoryError) as e:
            # A declared size far past what the machine can hold.
            error = CapacityError(f"input too large: {str(e) or type(e).__name__}")
        finally:
            # Every warning reaches stderr, ahead of any error line.
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    print(f"error: {error}", file=sys.stderr)
    if isinstance(error, InputError):
        return 1
    return 3 if isinstance(error, CapacityError) else 2


if __name__ == "__main__":
    sys.exit(main())
