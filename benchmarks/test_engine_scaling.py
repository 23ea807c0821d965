"""PERF — cross-engine scaling on transitive closure.

The library-wide comparison: the same pure-Datalog query on every
deterministic engine, sweeping instance size.  Shape: semi-naive is
the fastest and the gap to naive widens with size; the forward-chaining
engines (inflationary/noninflationary) track semi-naive within a
constant factor; the well-founded engine pays its alternation overhead
even on negation-free input.

Index maintenance: the counters on :class:`EngineStats` pin down the
invariant that evaluation never rebuilds a hash index once built —
every mutation lands as an in-place update.

Set ``REPRO_BENCH_SIZES`` (comma-separated) to override the size sweep,
e.g. ``REPRO_BENCH_SIZES=8,12`` for a CI smoke run."""

import os

import pytest

from repro.semantics.inflationary import evaluate_inflationary
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.noninflationary import evaluate_noninflationary
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import evaluate_wellfounded
from repro.programs.tc import tc_nonlinear_program, tc_program
from repro.workloads.graphs import chain, graph_database, random_gnp

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "16,32,48").split(",")
    if s.strip()
]

ENGINES = {
    "naive": lambda p, db: evaluate_datalog_naive(p, db),
    "seminaive": lambda p, db: evaluate_datalog_seminaive(p, db),
    "stratified": lambda p, db: evaluate_stratified(p, db),
    "inflationary": lambda p, db: evaluate_inflationary(p, db),
    "noninflationary": lambda p, db: evaluate_noninflationary(p, db, validate=False),
}


def _graph(n: int):
    return graph_database(random_gnp(n, 2.5 / n, seed=n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("engine", list(ENGINES))
def test_tc_scaling(benchmark, bench_artifact, engine, n):
    db = _graph(n)
    run = ENGINES[engine]
    result = benchmark(run, tc_program(), db)
    reference = evaluate_datalog_seminaive(tc_program(), db).answer("T")
    assert result.answer("T") == reference
    bench_artifact.record("tc_scaling", engine, n, result.stats)


@pytest.mark.parametrize("n", [16, 24])
def test_tc_wellfounded(benchmark, bench_artifact, n):
    db = _graph(n)
    model = benchmark(evaluate_wellfounded, tc_program(), db)
    reference = evaluate_datalog_seminaive(tc_program(), db).answer("T")
    assert model.answer("T") == reference
    assert model.is_total()
    bench_artifact.record("tc_scaling", "wellfounded", n, model.stats)


@pytest.mark.parametrize("depth", [3, 5])
def test_same_generation_seminaive(benchmark, depth):
    """Non-linear recursion: the other classic shape next to TC."""
    from repro.programs.same_generation import (
        same_generation_program,
        tree_instance,
    )

    db = tree_instance(depth=depth)
    result = benchmark(
        evaluate_datalog_seminaive, same_generation_program(), db
    )
    # Every same-level pair is in one generation: Σ (2^k)(2^k − 1).
    expected = sum((2**k) * (2**k - 1) for k in range(1, depth + 1))
    assert len(result.answer("sg")) == expected


def test_seminaive_beats_naive_in_firings(benchmark):
    def measure():
        gaps = []
        for n in SIZES:
            db = _graph(n)
            naive = evaluate_datalog_naive(tc_program(), db)
            semi = evaluate_datalog_seminaive(tc_program(), db)
            gaps.append(naive.rule_firings - semi.rule_firings)
        return gaps

    gaps = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert all(g >= 0 for g in gaps)
    assert gaps[-1] > 0


def test_seminaive_index_updates_not_rebuilds(benchmark):
    """Semi-naive TC never rebuilds an index once it is constructed.

    Nonlinear TC is the shape that exercises the indexes: the self-join
    probes the growing T through a hash index while T mutates every
    stage.  (Linear TC under semi-naive touches no index at all — the
    delta literal is scanned and G has no bound positions.)  The stats
    must show a single index construction, zero rebuilds in every later
    stage, and mutation counts that track |T| linearly.
    """

    def measure():
        per_size = []
        for n in SIZES:
            db = graph_database(chain(n))
            result = evaluate_datalog_seminaive(tc_nonlinear_program(), db)
            reference = evaluate_datalog_seminaive(tc_program(), db)
            assert result.answer("T") == reference.answer("T")
            per_size.append(result.stats)
        return per_size

    per_size = benchmark.pedantic(measure, rounds=1, iterations=1)
    for stats in per_size:
        # The planner's index cover serves the self-join with exactly
        # two chain indexes (the full pass probes T on {0}, the flipped
        # delta variant on {1}), each built once...
        assert stats.index_builds == 2
        # ...and every stage after the last build does zero (re)builds:
        # mutations land as in-place updates instead.
        built_at = max(
            i for i, stage in enumerate(stats.stages) if stage.index_builds
        )
        assert sum(s.index_builds for s in stats.stages[built_at + 1 :]) == 0
        assert stats.index_updates > 0
    # Updates grow linearly with the derived tuples (|T| = n(n-1)/2 on a
    # chain; at most one update per live chain per insertion) —
    # rebuild-per-stage would grow a factor |stages| faster.
    ratios = [
        stats.index_updates / (n * (n - 1) // 2)
        for n, stats in zip(SIZES, per_size)
    ]
    assert max(ratios) <= 2.0
    assert max(ratios) <= min(ratios) * 1.5
