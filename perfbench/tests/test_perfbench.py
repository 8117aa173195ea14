"""Tests of the benchmark itself: inputs, trace arithmetic, failure
accounting and the metric names it prints.

Run from the root of the checkout: python3 -m pytest perfbench/tests
"""

import io
import json
from contextlib import redirect_stdout

import pytest

import run
import spans
import workloads
from workloads import Instance


@pytest.fixture
def dr():
    return run.import_digrank()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_instances(dr, workload):
    first = workloads.digest(workloads.make_pool(dr, workload, 3))
    assert workloads.digest(workloads.make_pool(dr, workload, 3)) == first
    assert workloads.digest(workloads.make_pool(dr, workload, 4)) != first


def test_recoded_states_matches_binarize(dr):
    import random

    from digrank.generate import random_bideterministic

    rng = random.Random(0)
    for _ in range(300):
        a = random_bideterministic(rng, 6, tuple("xyz"[:rng.randint(1, 3)]))
        assert workloads.recoded_states(a) == dr.binarize(a).states


def test_self_times_on_nested_trace():
    # A [0,10] with children B [1,4] and C [3,6] overlapping; B has child
    # D [2,3]; E [11,12] is a second root.
    starts = [0.0, 1.0, 3.0, 2.0, 11.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, -1]
    assert spans.self_times(starts, ends, parents) == [5.0, 2.0, 3.0, 1.0, 1.0]


def test_tracer_records_nesting_and_restores(dr):
    original = dr.digraph.sccs_within
    tracer = spans.Tracer()
    g = dr.parse_digraph("digraph 3\n0 1\n1 0\n2 2\n")
    with tracer.installed(7):
        assert dr.digraph.nontrivial_sccs_within(g, range(3)) == [frozenset({0, 1}), frozenset({2})]
        assert dr.approx.sccs_within is not original
    assert dr.digraph.sccs_within is original and dr.approx.sccs_within is original
    names = [spans.SPAN_NAMES[k] for k in tracer.names]
    assert names == ["digraph.nontrivial_sccs_within", "digraph.sccs_within"]
    assert list(tracer.parents) == [-1, 0] and list(tracer.ops) == [7, 7]
    assert tracer.starts[0] <= tracer.starts[1] <= tracer.ends[1] <= tracer.ends[0]


def _one_op_run(dr, answers, traced=False):
    pool = [Instance("exact", "digraph 3\n0 1\n1 2\n2 0\n")]
    outcomes = run.Outcomes(pool, {"digest": workloads.digest(pool), "answers": answers})
    if traced:
        counters = run.Counters(dr)
        tracer = spans.Tracer(counters.observers())
        traced_t, plain_t = run.measure_traced(dr, outcomes, 0, tracer)
        metrics = run.per_layer_metrics(tracer, counters, traced_t, plain_t, outcomes)
        return outcomes, metrics["failed_ratio"][0]
    run.measure(dr, outcomes, 0)
    return outcomes, outcomes.failed / outcomes.attempted


@pytest.mark.parametrize("traced", [False, True])
def test_right_answer_passes(dr, traced):
    outcomes, failed_ratio = _one_op_run(dr, [1], traced)
    assert outcomes.correct and failed_ratio == 0


@pytest.mark.parametrize("traced", [False, True])
def test_wrong_pin_fails(dr, traced):
    outcomes, failed_ratio = _one_op_run(dr, [2], traced)
    assert not outcomes.correct and failed_ratio > 0


@pytest.mark.parametrize("traced", [False, True])
def test_corrupted_forest_fails(dr, monkeypatch, traced):
    crank_exact = dr.crank_exact

    def corrupted(g, *args, **kwargs):
        res = crank_exact(g, *args, **kwargs)
        (root,) = res.witness.trees
        bad = dr.EliminationNode(root.pivot, root.scope, ())  # drops a child
        return type(res)(res.value, dr.EliminationForest((bad,)), res.memo_size, res.elapsed)

    g = dr.parse_digraph("digraph 3\n0 1\n1 0\n1 2\n2 1\n0 2\n2 0\n")
    assert crank_exact(g).witness.trees[0].children  # the child to drop exists
    monkeypatch.setattr(dr, "crank_exact", corrupted)
    pool = [Instance("exact", dr.serialize_digraph(g))]
    outcomes = run.Outcomes(pool, None)
    run.measure(dr, outcomes, 0)
    assert not outcomes.correct and outcomes.failed / outcomes.attempted > 0
    assert "invalid forest" in outcomes.errors[0]


def test_digest_mismatch_fails(dr):
    pool = [Instance("exact", "digraph 3\n0 1\n1 2\n2 0\n")]
    outcomes = run.Outcomes(pool, {"digest": "0" * 64, "answers": [1]})
    run.measure(dr, outcomes, 0)
    assert not outcomes.correct and outcomes.failed == outcomes.attempted


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared[section]}
    units = {m["name"]: m["unit"] for m in declared[section]}
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload", "dfvs", "--seed", "0", "--seconds", "0",
                         "--trace", str(trace)]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == names
    assert all(m["unit"] == units[k] for k, m in result["metrics"].items())
    report = {line.split()[0] for line in lines[1:-1]}
    assert report == names
