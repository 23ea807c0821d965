"""A traced run is the untraced run, observed.

A tracer changes no decision: the planner takes the same join orders,
cover, ``add_only`` and report, and a pass only calls the counting
twins of its kernels instead of the kernels.  So on the 50 shared
corpus programs under five engines, and on the four batch workloads of
the benchmark at their small scale, a traced run must give the same
model, the same stage traces and the same ``EngineStats`` (timings
aside, planner report included) as an untraced one.

One count may differ: ``index_builds``.  A batch kernel's prologue
builds each chain its pass could probe, even one the pass never
reaches, and the scalar twin a traced pass runs builds a chain only at
its first probe.
"""

import random

import pytest

from bench import workloads
from repro.obs import CollectorSink, Tracer
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.inflationary import evaluate_inflationary
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import evaluate_wellfounded
from tests.test_differential_engines import random_program_and_database

ENGINES = {
    "naive": evaluate_datalog_naive,
    "seminaive": evaluate_datalog_seminaive,
    "stratified": evaluate_stratified,
    "inflationary": evaluate_inflationary,
    "wellfounded": evaluate_wellfounded,
}

BATCH_WORKLOADS = ("tc_closure", "win_game", "gated_components",
                   "ctc_inflationary")


def observed(result) -> tuple:
    """What a run computed and reported, with wall times and index
    builds left out."""
    stats = result.stats.to_dict()
    stats.pop("seconds")
    stats.pop("index_builds")
    for stage in stats["stages"]:
        stage.pop("seconds")
        stage.pop("index_builds")
    if hasattr(result, "true_facts"):  # a well-founded model
        model = (result.true_facts, result.possible_facts)
        stages = None
    else:
        model = result.database.canonical()
        # A stage lists its facts in the order the pass's output set
        # yields them, which follows the order the kernels added them.
        stages = [
            (trace.stage, sorted(trace.new_facts, key=repr),
             sorted(trace.removed_facts, key=repr))
            for trace in result.stages
        ]
    return model, stages, result.rule_firings, stats


def both(engine, source: str, db: Database) -> tuple[tuple, tuple]:
    """(untraced, traced) observations, each on a fresh parse."""
    plain = engine(parse_program(source), db)
    collector = CollectorSink()
    traced = engine(parse_program(source), db, tracer=Tracer([collector]))
    assert traced.stats.matcher == "columnar"
    assert collector.rule_events() or not plain.rule_firings
    return observed(plain), observed(traced)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("seed", range(50))
def test_traced_corpus_run_equals_untraced(seed, engine):
    source, db = random_program_and_database(random.Random(seed))
    plain, traced = both(ENGINES[engine], source, db)
    assert traced == plain, source


@pytest.mark.parametrize("name", BATCH_WORKLOADS)
def test_traced_workload_run_equals_untraced(name):
    case = getattr(workloads, name)(1, "small")
    plain, traced = both(case.engine, case.source, Database(case.facts))
    assert traced == plain
