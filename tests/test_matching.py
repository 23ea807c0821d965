"""Direct tests for the shared rule matcher (semantics/base)."""

import pytest

from repro.parser import parse_rule, parse_program
from repro.relational.instance import Database
from repro.semantics.base import (
    evaluation_adom,
    immediate_consequences,
    instantiate_head,
    iter_matches,
    iter_universal_matches,
)
from repro.terms import Var


def matches(rule_text, db, delta=None):
    rule = parse_rule(rule_text)
    program = parse_program(rule_text)
    adom = evaluation_adom(program, db)
    frozen = (
        {rel: frozenset(ts) for rel, ts in delta.items()} if delta else None
    )
    return [dict(v) for v in iter_matches(rule, db, adom, delta=frozen)]


class TestPositiveMatching:
    def test_single_literal(self):
        db = Database({"G": [("a", "b"), ("b", "c")]})
        out = matches("H(x, y) :- G(x, y).", db)
        assert len(out) == 2

    def test_join_through_shared_variable(self):
        db = Database({"G": [("a", "b"), ("b", "c"), ("c", "d")]})
        out = matches("H(x, z) :- G(x, y), G(y, z).", db)
        assert len(out) == 2  # a-b-c and b-c-d

    def test_constant_in_literal(self):
        db = Database({"G": [("a", "b"), ("b", "c")]})
        out = matches("H(y) :- G('a', y).", db)
        assert out == [{Var("y"): "b"}]

    def test_repeated_variable_within_literal(self):
        db = Database({"G": [("a", "a"), ("a", "b")]})
        out = matches("H(x) :- G(x, x).", db)
        assert out == [{Var("x"): "a"}]

    def test_repeated_variable_across_literals(self):
        db = Database({"P": [("a",), ("b",)], "Q": [("a",)]})
        out = matches("H(x) :- P(x), Q(x).", db)
        assert out == [{Var("x"): "a"}]

    def test_missing_relation_no_matches(self):
        db = Database({"P": [("a",)]})
        assert matches("H(x) :- Z(x).", db) == []

    def test_empty_body_matches_once(self):
        db = Database({"P": [("a",)]})
        out = matches("H.", db)
        assert out == [{}]


class TestNegativeAndDomainMatching:
    def test_negation_only_variables_range_over_adom(self):
        db = Database({"T": [("a", "b")]})
        out = matches("CT(x, y) :- not T(x, y).", db)
        assert len(out) == 3  # adom² minus the one T fact

    def test_negation_filters(self):
        db = Database({"P": [("a",), ("b",)], "E": [("a",)]})
        out = matches("H(x) :- P(x), not E(x).", db)
        assert out == [{Var("x"): "b"}]

    def test_negative_with_constant(self):
        db = Database({"P": [("a",)], "E": [("a",)]})
        assert matches("H(x) :- P(x), not E('a').", db) == []

    def test_adom_includes_program_constants(self):
        db = Database({"P": [("a",)]})
        rule = parse_rule("H(x) :- not P(x).")
        program = parse_program("H(x) :- not P(x). K('z').")
        adom = evaluation_adom(program, db)
        out = [dict(v) for v in iter_matches(rule, db, adom)]
        assert {Var("x"): "z"} in out


class TestDeltaMatching:
    def test_delta_restricts_to_new_facts(self):
        db = Database({"G": [("a", "b"), ("b", "c")]})
        delta = {"G": {("b", "c")}}
        out = matches("H(x, y) :- G(x, y).", db, delta=delta)
        assert out == [{Var("x"): "b", Var("y"): "c"}]

    def test_delta_on_one_of_two_literals(self):
        db = Database({"G": [("a", "b"), ("b", "c")]})
        delta = {"G": {("b", "c")}}
        out = matches("H(x, z) :- G(x, y), G(y, z).", db, delta=delta)
        # Both runs (delta on first, delta on second literal) find the
        # a-b-c join, possibly twice; facts dedupe downstream.
        assert {Var("x"): "a", Var("y"): "b", Var("z"): "c"} in out

    def test_empty_delta_yields_nothing(self):
        db = Database({"G": [("a", "b")]})
        assert matches("H(x, y) :- G(x, y).", db, delta={"Z": {("q",)}}) == []


class TestUniversalMatching:
    def test_forall_filters_candidates(self):
        db = Database(
            {"P": [("a",), ("b",)], "Q": [("a", "a"), ("a", "b"), ("b", "a")]}
        )
        rule = parse_rule("H(x) :- forall y: P(x), Q(x, y).")
        program = parse_program("H(x) :- forall y: P(x), Q(x, y).")
        adom = evaluation_adom(program, db)
        out = [dict(v) for v in iter_universal_matches(rule, db, adom)]
        assert out == [{Var("x"): "a"}]


class TestHeadInstantiation:
    def test_multi_head(self):
        rule = parse_rule("A(x), !B(x) :- S(x).")
        facts = instantiate_head(rule, {Var("x"): "v"})
        assert ("A", ("v",), True) in facts
        assert ("B", ("v",), False) in facts

    def test_bottom_skipped(self):
        rule = parse_rule("bottom, A(x) :- S(x).")
        facts = instantiate_head(rule, {Var("x"): "v"})
        assert facts == [("A", ("v",), True)]


class TestImmediateConsequences:
    def test_positive_and_negative_split(self):
        program = parse_program("A(x) :- S(x). !B(x) :- S(x).")
        db = Database({"S": [("a",)], "A": [], "B": []})
        adom = evaluation_adom(program, db)
        positive, negative, firings = immediate_consequences(program, db, adom)
        assert positive == {"A": {("a",)}}
        assert negative == {"B": {("a",)}}
        assert firings == 2

    def test_bodyless_rules_skipped_under_delta(self):
        program = parse_program("D. A(x) :- D, S(x).")
        db = Database({"S": [("a",)]})
        adom = evaluation_adom(program, db)
        positive, _, _ = immediate_consequences(
            program, db, adom, delta={"S": frozenset({("a",)})}
        )
        assert "D" not in positive


class TestJoinOrder:
    def test_greedy_order_smallest_then_connected(self):
        from repro.semantics.base import _order_positive

        rule = parse_rule("A(x, y) :- R(x, y), S(y, z), T(z).")
        db = Database(
            {
                "R": [("a", str(i)) for i in range(5)],  # |R| = 5
                "S": [("b", "c")],                        # |S| = 1
                "T": [("c",), ("d",), ("e",)],            # |T| = 3
            }
        )
        ordered = _order_positive(list(rule.body), db)
        # Start with the smallest relation (S), then follow shared
        # variables preferring the smaller candidate (T over R), and
        # finish with R.
        assert [lit.relation for lit in ordered] == ["S", "T", "R"]

    def test_ties_keep_body_order(self):
        from repro.semantics.base import _order_positive

        rule = parse_rule("A(x) :- U(x), V(x).")
        db = Database({"U": [("a",), ("b",)], "V": [("c",), ("d",)]})
        ordered = _order_positive(list(rule.body), db)
        assert [lit.relation for lit in ordered] == ["U", "V"]

    def test_join_order_still_finds_all_matches(self):
        db = Database(
            {
                "R": [("a", "b"), ("a", "c")],
                "S": [("b", "d")],
                "T": [("d",)],
            }
        )
        out = matches("A(x, y) :- R(x, y), S(y, z), T(z).", db)
        assert out == [{Var("x"): "a", Var("y"): "b", Var("z"): "d"}]
