"""ABL — what tracing costs: a traced evaluation against an untraced one.

A full tracer (``repro profile``, ``repro trace``, ``repro run
--trace-out``) keeps every planner decision and only swaps each pass's
kernel for its counting twin, the scalar kernel plus per-literal
candidate and match counts (:mod:`repro.semantics.codegen_traced`).
What it costs is then the scalar kernel where the untraced pass runs a
batch or grouped one, plus the counts.  Three programs, each from a
fresh parse per evaluation:

* tc — nonlinear TC under semi-naive evaluation on
  ``random_gnp(n, 3 / n)`` (``tc_closure``'s shape: long grouped
  passes untraced);
* win — Example 3.2's ``win`` under the well-founded engine on a chain
  game: many short passes;
* ctc — Example 4.3 under inflationary evaluation on a chain (the
  factored kernels).

Shape asserted: the traced and the untraced run give the same answer
and the same firings, and every rule span that fired carries
per-literal counts, each literal with a match.  Printed: the traced and
untraced wall-clock (the best of ``ROUNDS``) and their ratio, whose
figures EXPERIMENTS.md (TRACE) compares across changes.

Set ``REPRO_BENCH_SIZES`` (comma-separated) to override the size
sweep, e.g. ``REPRO_BENCH_SIZES=8,12`` for a CI smoke run."""

import os
import time

import pytest

from repro.obs import CollectorSink, Tracer
from repro.parser import parse_program
from repro.programs.ctc_inflationary import CTC_INFLATIONARY_SOURCE
from repro.programs.tc import TC_NONLINEAR_SOURCE
from repro.programs.win import WIN_SOURCE
from repro.semantics.inflationary import evaluate_inflationary
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.wellfounded import evaluate_wellfounded
from repro.workloads.games import game_database
from repro.workloads.graphs import chain, graph_database, random_gnp

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "20,40,80").split(",")
    if s.strip()
]

ROUNDS = 3

#: name → (source, engine, database for size n, answer of a result).
PROGRAMS = {
    "tc": (
        TC_NONLINEAR_SOURCE, evaluate_datalog_seminaive,
        lambda n: graph_database(random_gnp(n, 3 / n, 1)),
        lambda result: result.answer("T"),
    ),
    "win": (
        WIN_SOURCE, evaluate_wellfounded,
        lambda n: game_database(chain(n)),
        lambda model: (model.answer("win"), model.unknowns("win")),
    ),
    "ctc": (
        CTC_INFLATIONARY_SOURCE, evaluate_inflationary,
        lambda n: graph_database(chain(n)),
        lambda result: result.answer("CT"),
    ),
}


def _evaluate(source, engine, db, traced):
    """The last result, its rule spans (traced only) and the best
    wall-clock of ``ROUNDS`` evaluations of a fresh parse."""
    best, result, spans = float("inf"), None, []
    for _ in range(ROUNDS):
        program = parse_program(source)
        collector = CollectorSink() if traced else None
        tracer = Tracer([collector]) if traced else None
        start = time.perf_counter()
        result = engine(program, db.copy(), tracer=tracer)
        best = min(best, time.perf_counter() - start)
        spans = collector.rule_events() if traced else []
    return result, spans, best


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_traced_against_untraced(name, n):
    source, engine, database, answer = PROGRAMS[name]
    db = database(n)
    plain, _none, plain_s = _evaluate(source, engine, db, traced=False)
    traced, spans, traced_s = _evaluate(source, engine, db, traced=True)

    assert answer(traced) == answer(plain)
    assert traced.rule_firings == plain.rule_firings
    assert traced.stats.matcher == "columnar"
    fired = [span for span in spans if span.firings]
    assert fired
    for span in fired:
        # Every rule here has a positive literal, and a rule fires only
        # when each of its positive literals matched.
        assert span.literals, span.rule
        assert all(lp.matches > 0 for lp in span.literals), span.rule
    print(f"\n{name}({n}): untraced {plain_s * 1e3:.2f} ms, traced "
          f"{traced_s * 1e3:.2f} ms, ratio {traced_s / plain_s:.1f}x")
