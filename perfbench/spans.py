"""Span tracing at module boundaries, from outside the program.

A Tracer replaces public digrank functions by timing wrappers at every
module attribute that holds them (``digrank.approx.sccs_within``,
``digrank.automata.crank_exact``, the package namespace, ...), so each
caller's lookup reaches the wrapper.  Each call records one span: name,
start, end, parent span and operation id.  Spans are kept in flat arrays
in memory and written out once the run ends.

Mask primitives (``reach_mask``, ``acyclic_mask``, ``bits``) are never
wrapped: they run millions of times per operation and a wrapper would
swamp what it measures.
"""

from __future__ import annotations

import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (layer module, public function) pairs that get a span per call.
TRACED = (
    ("digraph", "parse_digraph"),
    ("digraph", "sccs_within"),
    ("digraph", "nontrivial_sccs_within"),
    ("digraph", "induced"),
    ("cyclerank", "crank_exact"),
    ("elimination", "validate_forest"),
    ("elimination", "serialize_forest"),
    ("elimination", "parse_forest"),
    ("approx", "crank_approx"),
    ("approx", "find_balanced_separator"),
    ("automata", "parse_automaton"),
    ("automata", "binarize"),
    ("automata", "regex_to_nfa"),
    ("automata", "nfa_accepts"),
    ("automata", "star_height_bidet"),
    ("regex", "parse_regex"),
    ("regex", "matches"),
    ("dfvs", "min_dfvs"),
    ("dfvs", "maximal_acyclic_subsets"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _ in TRACED))
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fn in TRACED)


class Tracer:
    """Records spans for the functions in TRACED while installed.

    ``observers`` maps a span name to ``f(args, result)``, called after
    each successful call so counters are taken where the work happens.
    """

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.names = array("h")
        self.parents = array("l")
        self.ops = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.ok = array("b")
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, ok, stack = self.starts, self.ends, self.ok, self._stack
        observe = self.observers.get(SPAN_NAMES[name_id])
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ok.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            ok[idx] = 1
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Point every digrank module attribute holding a traced function
        at its wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "digrank" or name.startswith("digrank."))]
        for name_id, (layer, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"digrank.{layer}"], fn_name)
            wrapper = self._wrap(name_id, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self, op: int):
        self.op = op
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self._stack.clear()

    def dump(self, path) -> None:
        """Write the spans: one JSON header line naming the arrays, then
        each array's raw bytes in that order."""
        arrays = [("name", self.names), ("parent", self.parents), ("op", self.ops),
                  ("start", self.starts), ("end", self.ends), ("ok", self.ok)]
        header = {"span_names": list(SPAN_NAMES), "count": len(self.starts),
                  "arrays": [[key, arr.typecode, arr.itemsize] for key, arr in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)


def self_times(starts, ends, parents) -> list[float]:
    """Per span, its duration minus the part of it covered by the union
    of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = [e - s for s, e in zip(starts, ends)]
    for p, intervals in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(intervals):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out
