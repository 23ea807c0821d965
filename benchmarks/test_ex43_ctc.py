"""EX4.3 — complement of TC via the delay technique.

Shape: the inflationary program (Example 4.3, verbatim) and the generic
delay compiler both match the stratified baseline exactly; the delayed
programs pay roughly double the stages (they must watch the fixpoint
happen before firing CT)."""

import pytest

from repro.parser import parse_program, parse_rule
from repro.semantics.inflationary import evaluate_inflationary
from repro.semantics.stratified import evaluate_stratified
from repro.translate.delay import compile_inner_with_post
from repro.programs.ctc_inflationary import ctc_inflationary_program
from repro.programs.tc import ctc_stratified_program
from repro.workloads.graphs import chain, graph_database, random_gnp

GRAPHS = {
    "chain12": chain(12),
    "gnp16": random_gnp(16, 0.12, seed=4),
    "gnp24": random_gnp(24, 0.08, seed=4),
}


@pytest.mark.parametrize("name", list(GRAPHS))
def test_stratified_baseline(benchmark, name):
    db = graph_database(GRAPHS[name])
    result = benchmark(evaluate_stratified, ctc_stratified_program(), db)
    assert result.answer("CT")


@pytest.mark.parametrize("name", list(GRAPHS))
def test_paper_delay_program(benchmark, name):
    db = graph_database(GRAPHS[name])
    result = benchmark(evaluate_inflationary, ctc_inflationary_program(), db)
    baseline = evaluate_stratified(ctc_stratified_program(), db)
    assert result.answer("CT") == baseline.answer("CT")


@pytest.mark.parametrize("name", list(GRAPHS))
def test_generic_delay_compiler(benchmark, name):
    inner = parse_program("T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).")
    post = [parse_rule("CT(x,y) :- not T(x,y).")]
    program = compile_inner_with_post(inner, post)
    db = graph_database(GRAPHS[name])
    result = benchmark(evaluate_inflationary, program, db)
    baseline = evaluate_stratified(ctc_stratified_program(), db)
    assert result.answer("CT") == baseline.answer("CT")


def test_delay_costs_extra_stages(benchmark):
    """The price of forward-chaining-only control: more stages than the
    plain stratified evaluation of the same query."""

    def measure():
        db = graph_database(chain(10))
        strat = evaluate_stratified(ctc_stratified_program(), db)
        infl = evaluate_inflationary(ctc_inflationary_program(), db)
        return strat.stage_count, infl.stage_count

    strat_stages, infl_stages = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert infl_stages > strat_stages
