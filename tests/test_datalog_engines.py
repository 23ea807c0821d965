"""Tests for naive, semi-naive, and stratified evaluation (§3.1–3.2)."""

import pytest

from repro.errors import DialectError, StratificationError
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.programs.tc import (
    reference_complement_tc,
    reference_transitive_closure,
    tc_program,
    ctc_stratified_program,
)
from repro.workloads.graphs import chain, cycle, graph_database, random_gnp

ENGINES = [evaluate_datalog_naive, evaluate_datalog_seminaive]


@pytest.fixture(params=ENGINES, ids=["naive", "seminaive"])
def engine(request):
    return request.param


class TestMinimumModel:
    def test_tc_on_chain(self, engine):
        db = graph_database(chain(5))
        result = engine(tc_program(), db)
        assert result.answer("T") == reference_transitive_closure(chain(5))

    def test_tc_on_cycle(self, engine):
        edges = cycle(4)
        result = engine(tc_program(), graph_database(edges))
        # On a cycle, everything reaches everything.
        assert len(result.answer("T")) == 16

    @pytest.mark.parametrize("seed", range(4))
    def test_tc_random(self, engine, seed):
        edges = random_gnp(8, 0.2, seed=seed)
        result = engine(tc_program(), graph_database(edges))
        assert result.answer("T") == reference_transitive_closure(edges)

    def test_input_not_mutated(self, engine):
        db = graph_database(chain(3))
        engine(tc_program(), db)
        assert db.relation_names() == ["G"]

    def test_empty_input(self, engine):
        result = engine(tc_program(), Database())
        assert result.answer("T") == frozenset()

    def test_same_generation(self, engine):
        program = parse_program(
            """
            sg(x, y) :- flat(x, y).
            sg(x, y) :- up(x, u), sg(u, v), down(v, y).
            """
        )
        db = Database(
            {
                "flat": [("m1", "m2")],
                "up": [("a", "m1"), ("b", "m2")],
                "down": [("m2", "a2"), ("m1", "b2")],
            }
        )
        result = engine(program, db)
        assert ("a", "a2") in result.answer("sg")

    def test_constants_in_rules(self, engine):
        program = parse_program("R(x) :- G('a', x).")
        db = graph_database([("a", "b"), ("c", "d")])
        assert engine(program, db).answer("R") == frozenset({("b",)})

    def test_negation_rejected(self, engine):
        program = parse_program("R(x) :- S(x), not E(x).")
        with pytest.raises(DialectError):
            engine(program, Database({"S": [("a",)]}))


class TestNaiveSeminaiveAgreement:
    @pytest.mark.parametrize("seed", range(5))
    def test_identical_models(self, seed):
        edges = random_gnp(9, 0.15, seed=seed)
        db = graph_database(edges)
        naive = evaluate_datalog_naive(tc_program(), db)
        semi = evaluate_datalog_seminaive(tc_program(), db)
        assert naive.answer("T") == semi.answer("T")

    def test_seminaive_does_less_work(self):
        db = graph_database(chain(30))
        naive = evaluate_datalog_naive(tc_program(), db)
        semi = evaluate_datalog_seminaive(tc_program(), db)
        assert semi.rule_firings < naive.rule_firings

    def test_same_stage_structure(self):
        db = graph_database(chain(10))
        naive = evaluate_datalog_naive(tc_program(), db)
        semi = evaluate_datalog_seminaive(tc_program(), db)
        naive_per_stage = [sorted(s.new_facts) for s in naive.stages]
        semi_per_stage = [sorted(s.new_facts) for s in semi.stages]
        assert naive_per_stage == semi_per_stage


class TestStratified:
    def test_complement_tc(self, seeded_gnp):
        db = graph_database(seeded_gnp)
        result = evaluate_stratified(ctc_stratified_program(), db)
        assert result.answer("CT") == reference_complement_tc(seeded_gnp)

    def test_agrees_with_seminaive_on_pure_datalog(self, seeded_gnp):
        db = graph_database(seeded_gnp)
        strat = evaluate_stratified(tc_program(), db)
        semi = evaluate_datalog_seminaive(tc_program(), db)
        assert strat.answer("T") == semi.answer("T")

    def test_three_strata(self):
        program = parse_program(
            """
            reach(x) :- source(x).
            reach(y) :- reach(x), G(x, y).
            unreach(x) :- node(x), not reach(x).
            island(x) :- unreach(x), not source(x).
            """
        )
        db = Database(
            {
                "G": [("a", "b"), ("c", "d")],
                "source": [("a",)],
                "node": [("a",), ("b",), ("c",), ("d",)],
            }
        )
        result = evaluate_stratified(program, db)
        assert result.answer("reach") == frozenset({("a",), ("b",)})
        assert result.answer("unreach") == frozenset({("c",), ("d",)})
        assert result.answer("island") == frozenset({("c",), ("d",)})

    def test_win_rejected(self):
        program = parse_program("win(x) :- moves(x, y), not win(y).")
        with pytest.raises(StratificationError):
            evaluate_stratified(program, Database({"moves": [("a", "b")]}))
        # Unvalidated too: the schedule would run it as one component.
        with pytest.raises(StratificationError):
            evaluate_stratified(
                program, Database({"moves": [("a", "b")]}), validate=False
            )

    def test_unvalidated_multi_head_rule_rejected(self):
        # A and B are components of their own, so the rule has no place
        # in the schedule that runs the strata in order.
        program = parse_program(
            "A(x), B(x) :- V(x), not W(x).\nW(x) :- U(x)."
        )
        with pytest.raises(DialectError):
            evaluate_stratified(
                program, Database({"V": [("a",)], "U": [("a",)]}),
                validate=False,
            )

    def test_negation_on_edb(self):
        program = parse_program("R(x) :- S(x), not E(x).")
        db = Database({"S": [("a",), ("b",)], "E": [("a",)]})
        assert evaluate_stratified(program, db).answer("R") == frozenset({("b",)})

    def test_negation_scope_is_active_domain(self):
        # CT(x, y) ← ¬T(x, y): x, y range over adom(P, I).
        program = parse_program("CT(x, y) :- not T(x, y). T(x, y) :- G(x, y).")
        db = graph_database([("a", "b")])
        result = evaluate_stratified(program, db)
        assert result.answer("CT") == frozenset(
            {("a", "a"), ("b", "a"), ("b", "b")}
        )
