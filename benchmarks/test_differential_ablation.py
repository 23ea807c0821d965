"""PERF — incremental maintenance vs from-scratch re-evaluation.

The latency of one single-edge base update, answered either by
:class:`~repro.semantics.differential.DifferentialEngine` (per-SCC
DRed with delta-restricted rederivation, routed through the planner
and compiled kernel) or by throwing the view away and
re-running semi-naive evaluation on the updated base.

* nonlinear transitive closure on a chain — the recursive (DRed)
  headline: attaching a fresh node to the chain head touches O(n) of
  the Θ(n²) closure, so the differential cell's advantage grows with
  the chain;
* chain of gated TC components — multi-SCC: the update lands in the
  first component, and the per-SCC sweep skips every component whose
  inputs did not change, while from-scratch recomputes all K closures.

Shape asserted: the maintained view equals from-scratch evaluation
after every measured update (parity always), and at full sizes
(``size >= SPEEDUP_FLOOR``) the differential update is strictly
faster and touches fewer facts than the view it maintains.  Below
that floor (CI smoke sizes) wall-clock is not asserted.

Set ``REPRO_BENCH_SIZES`` (comma-separated) to override the size
sweep, e.g. ``REPRO_BENCH_SIZES=8,12`` for a CI smoke run."""

import gc
import os
import time

import pytest

from repro.programs.component_chain import (
    component_chain_database,
    component_chain_program,
)
from repro.programs.tc import tc_nonlinear_program
from repro.semantics.differential import DifferentialEngine
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.workloads.graphs import chain, graph_database

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "16,32,60").split(",")
    if s.strip()
]

#: Below this size the differential/scratch gap is scheduler noise on
#: CI smoke runs; the speedup assertion only applies from here up.
SPEEDUP_FLOOR = 48

ROUNDS = 9


def _best_latency(operation, restore):
    """Best wall-clock of ``operation()`` over warm rounds.

    ``restore()`` undoes the operation between rounds (untimed), so
    every round measures the same state transition.  GC is paused
    around the timed region; minimum-of-rounds discards scheduler
    noise.
    """
    operation()  # warmup
    restore()
    best = float("inf")
    for _ in range(ROUNDS):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            operation()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        restore()
    operation()  # leave the updated state in place for parity checks
    return best


def _run_cell(benchmark_name, size, program, base, edge_relation, edge):
    """Measure both modes of one single-edge-insert update cell."""
    engine = DifferentialEngine(program, base)

    diff_seconds = _best_latency(
        lambda: engine.insert([(edge_relation, edge)]),
        lambda: engine.delete([(edge_relation, edge)]),
    )
    touched = engine.stats.differential["last_facts_touched"]

    updated = base.copy()
    updated.add_fact(edge_relation, edge)

    def scratch():
        return evaluate_datalog_seminaive(program, updated)

    scratch_seconds = _best_latency(scratch, lambda: None)
    result = scratch()

    # Parity: the maintained view equals from-scratch, always.
    for relation in sorted(program.idb):
        assert engine.answer(relation) == result.answer(relation), relation

    if size >= SPEEDUP_FLOOR:
        assert diff_seconds < scratch_seconds, (
            f"{benchmark_name}({size}): differential {diff_seconds:.6f}s "
            f"not faster than scratch {scratch_seconds:.6f}s"
        )
        assert touched < engine.stats.differential["view_size"]


@pytest.mark.parametrize("n", SIZES)
def test_differential_tc_nonlinear(n):
    # Fresh node attached to the chain head: O(n) new closure pairs
    # out of a Θ(n²) view.
    _run_cell(
        "tc_nonlinear_chain",
        n,
        tc_nonlinear_program(),
        graph_database(chain(n)),
        "G",
        ("x", "n0"),
    )


@pytest.mark.parametrize("n", SIZES)
def test_differential_component_chain(n):
    # n gated components of chain length 8; the update lands in E0, so
    # downstream components' inputs are unchanged and the per-SCC
    # sweep skips them entirely.
    _run_cell(
        "component_chain",
        n,
        component_chain_program(n, length=8),
        component_chain_database(n, length=8),
        "E0",
        ("z", "c0_0"),
    )
