"""PERF — magic-set demand evaluation vs the full minimum model.

A single-source reachability query ``T(n0, ?)`` over left-linear
transitive closure on a chain, answered either by the magic-set
rewrite (:func:`~repro.semantics.magic.query_magic` — adorned rules
guarded by a seeded magic predicate, evaluated semi-naively) or by
evaluating the untransformed program to its full minimum model and
filtering.

On a chain the contrast is the paper's §3.1 relevance story in its
purest form: the full closure is Θ(n²) facts, while the demand cone of
the bound query is the n facts actually reachable from the source —
the magic run derives ~n tuples (answers + magic seeds), a ≥5× and
asymptotically growing reduction.

Shape asserted: answers are identical between the two modes at every
size (parity always), and from ``FACTS_FLOOR`` up the full evaluation
derives at least ``FACTS_FACTOR``× more facts than the magic one.
Wall-clock is not measured: the gate counts derived facts.

Set ``REPRO_BENCH_SIZES`` (comma-separated) to override the size
sweep, e.g. ``REPRO_BENCH_SIZES=8,12`` for a CI smoke run."""

import os

import pytest

from repro.programs.tc import tc_left_program
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.topdown import query_topdown
from repro.workloads.graphs import chain, graph_database

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "16,32,60").split(",")
    if s.strip()
]

#: The fact-reduction gate only applies from this size up (below it the
#: quadratic/linear gap has not opened far enough to assert 5×).
FACTS_FLOOR = 32

#: The acceptance bar: full evaluation derives ≥ this many times the
#: facts the magic-set run derives.
FACTS_FACTOR = 5


@pytest.mark.parametrize("n", SIZES)
def test_magic_single_source_reachability(n):
    program = tc_left_program()
    db = graph_database(chain(n))
    source = "n0"
    pattern = (source, None)

    magic_result = query_topdown(
        program, db, "T", pattern, strategy="magic"
    )
    magic_facts = magic_result.facts_computed()

    full_result = evaluate_datalog_seminaive(program, db)
    full_facts = sum(
        len(full_result.answer(relation))
        for relation in sorted(program.idb)
    )
    full_answers = frozenset(
        t for t in full_result.answer("T") if t[0] == source
    )

    # Parity: the rewrite is semantics-preserving, always.
    assert magic_result.answers == full_answers

    if n >= FACTS_FLOOR:
        assert full_facts >= FACTS_FACTOR * magic_facts, (
            f"chain({n}): full evaluation derived {full_facts} facts, "
            f"magic {magic_facts} — under the {FACTS_FACTOR}× bar"
        )
