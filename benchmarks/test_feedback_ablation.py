"""PERF — feedback-directed planning: stats-cold vs stats-warmed.

The filtered-ring workload (:mod:`repro.programs.feedback_ring`)
evaluated twice from identical inputs — once planning *cold* (no
persisted statistics: the planner sees the recursive ``Filter``
relation at live size 0 and falls back to its static dataflow prior,
which overshoots) and once planning *warmed* from a
:class:`~repro.obs.store.StatsStore` recorded off one prior run (the
planner knows ``Filter`` measured tiny and runs it first).

The workload is the deliberate worst case for purely static priors:
the selective relation lives *inside* the recursive component, so no
amount of live sizing or mid-run replanning can rescue the component's
first full pass — only remembering last run's cardinalities can.  Each
measured round builds a **fresh program object** (the plan context
rides on the program), so warming is re-applied per round exactly as
``repro run`` does it.

Shape asserted: cold and warmed produce identical answers (feedback
priors are an optimization, never a semantics change); the warmed
planner attributes ``Filter``'s cardinality to ``measured`` where the
cold one says ``static``; and from ``RATIO_FLOOR`` up the warmed run
is at least ``RATIO_FACTOR``× faster.  Below the floor (CI smoke
sizes) the semantics and provenance assertions still run; the
wall-clock ratio is not asserted.

Set ``REPRO_BENCH_SIZES`` (comma-separated) to override the size
sweep, e.g. ``REPRO_BENCH_SIZES=8,12`` for a CI smoke run."""

import gc
import os
import time

import pytest

from repro.obs import RunMetrics, StatsStore, warm_from_store
from repro.programs.feedback_ring import (
    feedback_ring_database,
    feedback_ring_program,
    reference_feedback_ring,
)
from repro.semantics.seminaive import evaluate_datalog_seminaive

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "16,32,60").split(",")
    if s.strip()
]

#: The wall-clock gate only applies from this size up (below it the
#: cold-start penalty has not opened far enough past fixed costs).
RATIO_FLOOR = 32

#: The acceptance bar: warmed at least this many times faster than cold.
RATIO_FACTOR = 2.0

ROUNDS = 5

#: Body index of ``Filter`` in rule 0 (``Out :- Big, Mid, Filter``) —
#: the literal a warmed planner must move to the front.
FILTER_POSITION = 2


def _run(n: int, store: StatsStore | None):
    """One evaluation from a fresh program, optionally stats-warmed."""
    program = feedback_ring_program()
    if store is not None:
        assert warm_from_store(program, store), "store must match program"
    return evaluate_datalog_seminaive(program, feedback_ring_database(n))


def _best(n: int, store: StatsStore | None):
    """(best wall-clock, last result) over warm rounds, GC paused."""
    _run(n, store)  # warmup
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = _run(n, store)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best, result


def _rule0_full(result) -> dict:
    """The planner's full-pass decision entry for the ``Out`` rule."""
    report = result.stats.planner
    assert report is not None
    return report["rules"]["0"]["full"]


@pytest.mark.parametrize("n", SIZES)
def test_feedback_cold_vs_warmed(n):
    reference = reference_feedback_ring(n)

    # The store a warmed run loads: one prior cold run's measurements.
    prior = _run(n, None)
    store = StatsStore()
    store.record(
        RunMetrics.from_run(
            feedback_ring_program(), prior.stats, prior.database
        )
    )

    cold_seconds, cold = _best(n, None)
    warm_seconds, warm = _best(n, store)

    # Parity: feedback priors never change the answer.
    for relation, expected in reference.items():
        assert cold.answer(relation) == expected, relation
        assert warm.answer(relation) == expected, relation
    assert cold.rule_firings == warm.rule_firings

    # Provenance: the warmed planner's winning order runs Filter first
    # because it *measured* tiny; the cold planner guessed from the
    # static prior and buried it last.
    cold_full = _rule0_full(cold)
    warm_full = _rule0_full(warm)
    assert cold_full["sources"]["Filter"] == "static"
    assert warm_full["sources"]["Filter"] == "measured"
    assert warm_full["order"][0] == FILTER_POSITION

    if n >= RATIO_FLOOR:
        assert warm_seconds * RATIO_FACTOR <= cold_seconds, (
            f"feedback_ring({n}): cold {cold_seconds:.6f}s, warmed "
            f"{warm_seconds:.6f}s — under the {RATIO_FACTOR}× bar"
        )
