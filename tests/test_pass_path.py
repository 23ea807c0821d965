"""The planner's per-pass path: cached pass plans and skipped passes.

``planner.consequences`` keeps, per (``rule_ids``, live delta
relations), the rule occurrences a pass visits, and a decision that is
still current carries its head emitter and its report entries.  All of
it is a cache: a run whose caches are emptied before every pass must
give the same models, firings, stages and planner report, key order
included.  The differential propagation loops end before a delta that
no rule of the pass program reads, which must be exact too.
"""

import json
import random

import pytest

from repro.parser import parse_program
from repro.programs.win import win_program
from repro.semantics import planner, wellfounded
from repro.semantics.base import evaluation_adom
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import evaluate_wellfounded
from repro.workloads.games import game_database, random_game
from repro.workloads.graphs import chain
from tests.test_differential_engines import random_program_and_database
from tests.test_wellfounded import _corpus_case, _reference_model

ENGINES = {
    "naive": evaluate_datalog_naive,
    "seminaive": evaluate_datalog_seminaive,
    "stratified": evaluate_stratified,
}


@pytest.fixture
def uncached(monkeypatch):
    """Make every pass plan from scratch: before each call, drop the
    context's pass plans and make every decision look unreported."""
    original = planner.consequences

    def consequences(program, *args, **kwargs):
        ctx = planner.plan_context(program)
        ctx.passes.clear()
        for state in ctx.states:
            for decision in state.decisions.values():
                decision.report = None
        return original(program, *args, **kwargs)

    monkeypatch.setattr(planner, "consequences", consequences)


def untimed(stats) -> str:
    """An engine's stats without wall times, as text: equal text means
    equal values in the same key order."""
    record = stats.to_dict()
    record.pop("seconds")
    for stage in record["stages"]:
        stage.pop("seconds")
    return json.dumps(record)


def run_engine(engine, source: str, db, name: str):
    result = engine(parse_program(source, name=name), db)
    stages = [(trace.stage, trace.new_facts) for trace in result.stages]
    return (result.database.canonical(), result.rule_firings, stages,
            untimed(result.stats))


def run_win(db):
    model = evaluate_wellfounded(win_program(), db)
    return (model.true_facts, model.possible_facts, model.rule_firings,
            untimed(model.stats))


@pytest.mark.parametrize("seed", range(50))
def test_cached_passes_match_uncached_on_generated_programs(seed, request):
    source, db = random_program_and_database(random.Random(seed))
    cached = {
        name: run_engine(engine, source, db, f"cached-{seed}")
        for name, engine in ENGINES.items()
    }
    request.getfixturevalue("uncached")
    for name, engine in ENGINES.items():
        assert run_engine(engine, source, db, f"cached-{seed}") == (
            cached[name]
        ), f"{name}: {source}"


@pytest.mark.parametrize("db", [
    pytest.param(game_database(chain(30)), id="chain30"),
    pytest.param(game_database(random_game(30, 0.1, seed=3)), id="random30"),
])
def test_cached_passes_match_uncached_on_win(db, request):
    cached = run_win(db)
    assert json.loads(cached[3])["planner"]["plan_hits"] > 0
    request.getfixturevalue("uncached")
    assert run_win(db) == cached


def test_a_skipped_pass_is_exact(monkeypatch):
    """``win`` reads ``win`` only under negation, so the pass after
    each step's seed pass would visit no rule; it is never made, and
    every pass that is made visits a rule."""
    program, db = win_program(), game_database(chain(30))
    true, possible, rounds, steps = _reference_model(program, db)
    calls = []
    original = planner.consequences

    def consequences(program, db, adom, delta=None, *args, **kwargs):
        ctx = planner.plan_context(program)
        visits = delta is None or any(
            facts and relation in ctx.dispatch
            for relation, facts in delta.items()
        )
        calls.append(visits)
        return original(program, db, adom, delta, *args, **kwargs)

    monkeypatch.setattr(planner, "consequences", consequences)
    model = evaluate_wellfounded(program, db)
    assert model.true_facts == true
    assert model.possible_facts == possible
    assert model.alternation_rounds == rounds
    stages = model.stats.stages
    assert [s.added for s in stages] == [a for _, a in steps]
    assert all(calls)
    assert model.stats.consequence_calls == len(calls)
    # At most one pass per step: each side's first step is one full
    # pass, and a later step one seed pass if its side has a change.
    assert len(stages) - 2 <= len(calls) <= len(stages)


@pytest.mark.parametrize("case,reads", [
    ("win", False), (0, True), (1, False), (5, True),
])
def test_the_active_domain_is_sorted_only_when_a_rule_reads_it(
        case, reads, monkeypatch):
    """``win`` binds every variable positively, and so do its seed
    variants; corpus cases 0 and 5 negate a variable ``w`` that no
    positive literal binds.  ``adom_size`` is reported either way."""
    if case == "win":
        program, db = win_program(), game_database(chain(12))
    else:
        program, db = _corpus_case(case)
    expected = len(evaluation_adom(program, db))
    calls = []

    def spy(program, db):
        calls.append(program)
        return evaluation_adom(program, db)

    monkeypatch.setattr(wellfounded, "evaluation_adom", spy)
    model = evaluate_wellfounded(program, db)
    assert model.stats.adom_size == expected
    assert len(calls) == reads
