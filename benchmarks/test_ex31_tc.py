"""EX3.1 — transitive closure (§3.1): naive vs semi-naive.

The shape: both engines compute the same minimum model; semi-naive
performs strictly fewer rule firings, with the gap growing with the
number of stages (graph diameter)."""

import pytest

from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.programs.tc import tc_program
from repro.workloads.graphs import chain, graph_database, random_gnp

SIZES = [32, 64, 128]


@pytest.mark.parametrize("n", SIZES)
def test_tc_naive_chain(benchmark, n):
    db = graph_database(chain(n))
    result = benchmark(evaluate_datalog_naive, tc_program(), db)
    assert len(result.answer("T")) == n * (n - 1) // 2


@pytest.mark.parametrize("n", SIZES)
def test_tc_seminaive_chain(benchmark, n):
    db = graph_database(chain(n))
    result = benchmark(evaluate_datalog_seminaive, tc_program(), db)
    assert len(result.answer("T")) == n * (n - 1) // 2


@pytest.mark.parametrize("n", [24, 48])
def test_tc_seminaive_random(benchmark, n):
    db = graph_database(random_gnp(n, 2.0 / n, seed=n))
    result = benchmark(evaluate_datalog_seminaive, tc_program(), db)
    assert result.stage_count >= 1


def test_seminaive_firing_gap_grows(benchmark):
    """The headline shape: the naive/semi-naive firing ratio grows with
    the diameter (long chains are the worst case)."""

    def measure():
        ratios = []
        for n in (16, 32, 64):
            db = graph_database(chain(n))
            naive = evaluate_datalog_naive(tc_program(), db)
            semi = evaluate_datalog_seminaive(tc_program(), db)
            assert naive.answer("T") == semi.answer("T")
            ratios.append(naive.rule_firings / semi.rule_firings)
        return ratios

    ratios = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert ratios == sorted(ratios), f"ratio must grow with n: {ratios}"
    assert ratios[-1] > 2.0
