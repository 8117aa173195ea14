"""digrank benchmark: certified answers per second on seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload exact-sparse --seed 1 --seconds 25 --trace 0

One process, one caller, one operation at a time (a closed loop with a
single client, no threads).  Set-up imports digrank from ``src/`` of the
checkout and generates and serializes the workload's instances from the
seed; it is repeated SETUP_REPEATS times and the median is reported.  The
run then takes instances from the pool in order, one operation each,
until ``--seconds`` have passed.

An operation fails if it raises, if its certificate fails its validator,
or if its answer differs from the answer pinned in pins.json for that
seed and instance.  Seeds without pins are still checked by the
validators.

With ``--trace 0`` the end-to-end metrics are reported.  With
``--trace 1`` each operation runs twice, once under the span tracer and
once without it (alternating which goes first), and the per-layer
metrics come from the traced runs; their ratio is trace.overhead_ratio.
The spans are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
OUT = HERE / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # operations beyond the tail percentile


def import_digrank():
    """Import digrank fresh from the checkout's src/, never from elsewhere."""
    if not (SRC / "digrank" / "__init__.py").is_file():
        raise SystemExit(f"error: no digrank sources under {SRC}")
    for name in [n for n in sys.modules if n == "digrank" or n.startswith("digrank.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import digrank

    if Path(digrank.__file__).resolve().parent != (SRC / "digrank").resolve():
        raise SystemExit(f"error: digrank imported from {digrank.__file__}, not {SRC}")
    return digrank


def setup(workload: str, seed: int, repeats: int = SETUP_REPEATS):
    """Import digrank and build the pool, `repeats` times; returns the
    package, the pool and the median set-up time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        dr = import_digrank()
        pool = workloads.make_pool(dr, workload, seed)
        times.append(time.perf_counter() - t0)
    return dr, pool, statistics.median(times)


def load_pins(workload: str, seed: int):
    if not PINS.is_file():
        return None
    return json.loads(PINS.read_text()).get(workload, {}).get(str(seed))


class Outcomes:
    """Answers, heights and failures of the operations of one run."""

    def __init__(self, pool, pins):
        self.pool = pool
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.heights: list[int] = []
        self.errors: list[str] = []
        self.digest_ok = pins is None or pins["digest"] == workloads.digest(pool)

    def run(self, dr, i: int, tracer=None) -> tuple[float, bool]:
        """Run operation i (instance i mod pool size); returns its time
        and whether it passed its checks."""
        inst = self.pool[i % len(self.pool)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer, height = workloads.run_op(dr, inst)
            else:
                with tracer.installed(i):
                    answer, height = workloads.run_op(dr, inst)
            dt = time.perf_counter() - t0
            if self.pins is not None:
                if not self.digest_ok:
                    raise workloads.CheckFailed("instance texts differ from the pinned digest")
                want = self.pins["answers"][i % len(self.pool)]
                if answer != want:
                    raise workloads.CheckFailed(f"answer {answer} differs from the pinned {want}")
        except Exception as e:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            if len(self.errors) < 20:
                self.errors.append(f"operation {i}: {type(e).__name__}: {e}")
            return dt, False
        if height is not None:
            self.heights.append(height)
        return dt, True

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure(dr, outcomes: Outcomes, seconds: float) -> tuple[list[float], float]:
    """Untraced closed loop; returns per-operation times and wall time."""
    times = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    i = 0
    while True:
        dt, ok = outcomes.run(dr, i)
        times.append(dt)
        outcomes.count(ok)
        i += 1
        if time.perf_counter() >= deadline:
            return times, time.perf_counter() - t_start


def measure_traced(dr, outcomes: Outcomes, seconds: float, tracer):
    """Each operation traced and untraced, alternating which goes first;
    returns the traced and the untraced times."""
    traced, plain = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        passed = True
        for with_tracer in ((False, True) if i % 2 else (True, False)):
            dt, ok = outcomes.run(dr, i, tracer if with_tracer else None)
            (traced if with_tracer else plain).append(dt)
            passed = passed and ok
        outcomes.count(passed)
        i += 1
        if time.perf_counter() >= deadline:
            return traced, plain


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with TAIL_BEYOND operations beyond
    it, and that percentile; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end_metrics(times, wall, outcomes, setup_s):
    tail_s, pct = tail(times)
    completed = outcomes.attempted - outcomes.failed
    metrics = {
        "instances_per_s": (completed / wall, "1/s"),
        "instance_s_p50": (statistics.median(times), "s"),
        "instance_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {"instance_s_tail": f"p{pct:.1f} of {len(times)} operations"}
    return metrics, notes


class Counters:
    """Counts taken from results at traced boundaries, as means per call."""

    def __init__(self, dr):
        self.dr = dr
        self.sums: dict[str, list[float]] = {}

    def add(self, key: str, value: float) -> None:
        self.sums.setdefault(key, []).append(value)

    def mean(self, key: str) -> float:
        values = self.sums.get(key)
        return sum(values) / len(values) if values else 0.0

    def observers(self):
        dr = self.dr

        def crank(args, res):
            g = args[0]
            self.add("memo", res.memo_size)
            d = max((len(s) for s in g.succ), default=0)
            if d >= 1:
                self.add("fill", res.memo_size / dr.sc_subset_bound(g.n, d))

        return {
            "cyclerank.crank_exact": crank,
            "elimination.validate_forest": lambda args, res: self.add(
                "forest_nodes", len(dr.elimination.all_nodes(args[1]))),
            "approx.crank_approx": lambda args, res: self.add(
                "separator", sum(size for _, size in res.separator_log)),
            "dfvs.maximal_acyclic_subsets": lambda args, res: self.add(
                "minimal_sets", len(res)),
        }


def per_layer_metrics(tracer, counters, traced, plain, outcomes):
    n_ops = len(traced)
    total = sum(traced)
    selfs = spans.self_times(tracer.starts, tracer.ends, tracer.parents)
    calls = [0] * len(spans.SPAN_NAMES)
    self_s = [0.0] * len(spans.SPAN_NAMES)
    for name_id, s in zip(tracer.names, selfs):
        calls[name_id] += 1
        self_s[name_id] += s

    metrics = {}
    for k, name in enumerate(spans.SPAN_NAMES):
        metrics[f"{name}.calls"] = (calls[k] / n_ops, "count/op")
        metrics[f"{name}.self_s"] = (self_s[k] / n_ops, "s/op")
    for layer in spans.LAYERS:
        layer_s = sum(s for name, s in zip(spans.SPAN_NAMES, self_s)
                      if name.startswith(layer + "."))
        metrics[f"{layer}.share"] = (layer_s / total, "ratio")
    metrics["untraced.share"] = (1 - sum(self_s) / total, "ratio")

    # base crank_exact calls made inside crank_approx: returned / attempted
    exact_id = spans.SPAN_NAMES.index("cyclerank.crank_exact")
    approx_id = spans.SPAN_NAMES.index("approx.crank_approx")
    attempts = hits = 0
    for i, name_id in enumerate(tracer.names):
        if name_id != exact_id:
            continue
        p = tracer.parents[i]
        while p >= 0 and tracer.names[p] != approx_id:
            p = tracer.parents[p]
        if p >= 0:
            attempts += 1
            hits += tracer.ok[i]

    metrics.update({
        "cyclerank.memo_entries": (counters.mean("memo"), "count"),
        "cyclerank.memo_fill": (counters.mean("fill"), "ratio"),
        "elimination.forest_nodes": (counters.mean("forest_nodes"), "count"),
        "approx.separator_vertices": (counters.mean("separator"), "count"),
        "approx.base_exact_hit_ratio": (hits / attempts if attempts else 0.0, "ratio"),
        "dfvs.minimal_sets": (counters.mean("minimal_sets"), "count"),
        "trace.overhead_ratio": (total / sum(plain), "ratio"),
        "forest_height_mean": (statistics.fmean(outcomes.heights)
                               if outcomes.heights else 0.0, "count"),
        "failed_ratio": (outcomes.failed / outcomes.attempted, "ratio"),
    })
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    dr, pool, setup_s = setup(args.workload, args.seed)
    pins = load_pins(args.workload, args.seed)
    outcomes = Outcomes(pool, pins)
    if pins is None:
        print(f"note: no pinned answers for {args.workload} seed {args.seed};"
              " checking certificates only", file=sys.stderr)

    if args.trace:
        counters = Counters(dr)
        tracer = spans.Tracer(counters.observers())
        traced, plain = measure_traced(dr, outcomes, args.seconds, tracer)
        metrics = per_layer_metrics(tracer, counters, traced, plain, outcomes)
        notes = {}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans")
    else:
        times, wall = measure(dr, outcomes, args.seconds)
        metrics, notes = end_to_end_metrics(times, wall, outcomes, setup_s)

    for err in outcomes.errors:
        print(f"failure: {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} pool {len(pool)}"
          f" attempted {outcomes.attempted} failed {outcomes.failed}"
          f" pinned {'yes' if pins is not None else 'no'}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
