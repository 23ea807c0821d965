"""The compiled plans (semantics/plan) vs the reference matcher.

Every test here is a parity or representation check on the production
matcher: same matches, in the same order, as ``reference_matches`` —
plus the plan-cache contract, the matcher each run reports, and the
two satellite fixes that ride along (O(1) index bucket deletion,
hoisted join-order variable sets).
"""

import time

import pytest

from repro.parser import parse_program, parse_rule
from repro.relational.instance import Database, Relation
from repro.semantics.base import (
    _order_positive,
    evaluation_adom,
    immediate_consequences,
    iter_matches,
    reference_matches,
)
from repro.semantics.plan import RulePlan, plan_for
from repro.terms import Var


def both_matchers(rule_text, db, delta=None, program_text=None):
    """(production, reference) match lists for one rule, same adom."""
    rule = parse_rule(rule_text)
    program = parse_program(program_text or rule_text)
    adom = evaluation_adom(program, db)
    frozen = (
        {k: frozenset(v) for k, v in delta.items()} if delta is not None else None
    )
    production = [dict(v) for v in iter_matches(rule, db, adom, delta=frozen)]
    reference = [
        dict(v) for v in reference_matches(rule, db, adom, delta=frozen)
    ]
    return production, reference


def assert_parity(rule_text, db, delta=None, program_text=None):
    production, reference = both_matchers(
        rule_text, db, delta=delta, program_text=program_text
    )
    # Order matters: seeded engines (choice, nondeterministic) consume
    # match order, so the kernel must reproduce it exactly.
    assert production == reference
    return production


class TestMatchParity:
    def test_plain_join(self):
        db = Database({"G": [("a", "b"), ("b", "c"), ("c", "d")]})
        out = assert_parity("H(x, z) :- G(x, y), G(y, z).", db)
        assert len(out) == 2

    def test_constants_in_literals(self):
        db = Database({"G": [("a", "b"), ("b", "c")]})
        out = assert_parity("H(y) :- G('a', y).", db)
        assert out == [{Var("y"): "b"}]

    def test_repeated_variable_within_literal(self):
        db = Database({"G": [("a", "a"), ("a", "b"), ("b", "b")]})
        out = assert_parity("H(x) :- G(x, x).", db)
        assert len(out) == 2

    def test_repeated_variable_across_literals(self):
        db = Database({"P": [("a",), ("b",)], "Q": [("a",)]})
        out = assert_parity("H(x) :- P(x), Q(x).", db)
        assert out == [{Var("x"): "a"}]

    def test_repeated_new_variable_with_constant(self):
        # x is new at position 0 AND repeated at position 2, with a
        # constant between: exercises the within-literal check path.
        db = Database({"R": [("a", "k", "a"), ("b", "k", "c"), ("c", "q", "c")]})
        out = assert_parity("H(x) :- R(x, 'k', x).", db)
        assert out == [{Var("x"): "a"}]

    def test_negation_over_adom(self):
        db = Database({"T": [("a", "b")]})
        out = assert_parity(
            "CT(x, y) :- not T(x, y).", db, program_text="CT(x, y) :- not T(x, y)."
        )
        assert len(out) == 3  # adom² minus the one T fact

    def test_negation_with_positive_binding(self):
        db = Database({"P": [("a",), ("b",)], "E": [("a",)]})
        out = assert_parity("H(x) :- P(x), not E(x).", db)
        assert out == [{Var("x"): "b"}]

    def test_empty_body(self):
        db = Database({"P": [("a",)]})
        assert assert_parity("H.", db) == [{}]

    def test_missing_relation(self):
        db = Database({"P": [("a",)]})
        assert assert_parity("H(x) :- Z(x).", db) == []

    def test_delta_restriction(self):
        db = Database({"G": [("a", "b"), ("b", "c")]})
        out = assert_parity(
            "H(x, z) :- G(x, y), G(y, z).", db, delta={"G": {("b", "c")}}
        )
        assert {Var("x"): "a", Var("y"): "b", Var("z"): "c"} in out

    def test_delta_with_bound_positions_filters(self):
        # The restricted literal has a bound position, so the delta set
        # itself is filtered by the key — both matchers must agree.
        db = Database({"G": [("a", "b"), ("b", "c"), ("b", "d")]})
        out = assert_parity(
            "H(y) :- G('b', y).", db, delta={"G": {("b", "c"), ("a", "b")}}
        )
        assert out == [{Var("y"): "c"}]


class TestEqualityCompilation:
    def test_equality_to_constant(self):
        db = Database({"S": [("a", "b"), ("b", "c")]})
        out = assert_parity("R(x) :- S(x, y), x = 'a'.", db)
        assert out == [{Var("x"): "a", Var("y"): "b"}]

    def test_inequality(self):
        db = Database({"S": [("a", "a"), ("a", "b")]})
        out = assert_parity("R(x, y) :- S(x, y), x != y.", db)
        assert out == [{Var("x"): "a", Var("y"): "b"}]

    def test_chained_propagation(self):
        # y is bound only through x = y, z only through y = z: the
        # compiled assigns must run in propagation order.
        db = Database({"S": [("a",), ("b",)]})
        out = assert_parity(
            "R(z) :- S(x), x = y, y = z.",
            db,
            program_text="R(z) :- S(x), x = y, y = z.",
        )
        assert sorted(v[Var("z")] for v in out) == ["a", "b"]

    def test_unbound_equality_enumerates_adom(self):
        # Neither side of y = z is join-bound: both enumerate over the
        # active domain and the equality filters the product.
        db = Database({"S": [("a",), ("b",)]})
        out = assert_parity("R(x) :- S(x), not Q(y), y = x.", db)
        assert len(out) == 2

    def test_constant_contradiction_is_never(self):
        db = Database({"R": [("a",)]})
        assert assert_parity("P(x) :- R(x), 'a' = 'b'.", db) == []
        rule = parse_rule("P(x) :- R(x), 'a' = 'b'.")
        assert RulePlan(rule, (0,)).never

    def test_statically_true_equality_is_dropped(self):
        rule = parse_rule("P(x) :- R(x), 'a' = 'a'.")
        plan = RulePlan(rule, (0,))
        assert not plan.never
        assert plan.pre_checks == () and plan.post_checks == ()


class TestPlanRepresentation:
    def test_invention_head_has_no_emitters(self):
        rule = parse_rule("tag(x, n) :- R(x).")
        plan = RulePlan(rule, (0,))
        assert plan.emitters is None  # n has no slot: dict fallback

    def test_compilable_head_emits_without_valuations(self):
        program = parse_program("A(x, 'k') :- S(x). !B(x) :- S(x).")
        db = Database({"S": [("a",)], "A": [], "B": []})
        adom = evaluation_adom(program, db)
        positive, negative, firings = immediate_consequences(program, db, adom)
        assert positive == {"A": {("a", "k")}}
        assert negative == {"B": {("a",)}}
        assert firings == 2

    def test_plans_cached_per_rule_and_order(self):
        rule = parse_rule("H(x, z) :- G(x, y), G(y, z).")
        assert plan_for(rule, (0, 1)) is plan_for(rule, (0, 1))
        assert plan_for(rule, (0, 1)) is not plan_for(rule, (1, 0))

    def test_structurally_equal_rules_share_plans(self):
        # Plans ride on their rule object, so structurally equal rules
        # build plans of their own; what they share is compiled code.
        a = parse_rule("H(x) :- G(x).")
        b = parse_rule("H(x) :- G(x).")
        assert a is not b and a == b
        plan_a, plan_b = plan_for(a, (0,)), plan_for(b, (0,))
        assert plan_a is not plan_b
        walk_a = plan_a.compiled().kernel("walk_full").function
        walk_b = plan_b.compiled().kernel("walk_full").function
        assert walk_a is not walk_b
        assert walk_a.__code__ is walk_b.__code__

    def test_each_run_reports_its_matcher(self, reference):
        # Traced or not, a run matches through the production plans; only
        # the reference oracle reports the reference matcher.
        from repro.obs import CollectorSink, Tracer
        from repro.semantics.seminaive import evaluate_datalog_seminaive

        program = parse_program("T(x, y) :- G(x, y). T(x, y) :- G(x, z), T(z, y).")
        db = Database({"G": [("a", "b"), ("b", "c")]})
        traced = evaluate_datalog_seminaive(
            program, db, tracer=Tracer([CollectorSink()])
        )
        plain = evaluate_datalog_seminaive(program, db)
        with reference():
            oracle = evaluate_datalog_seminaive(program, db)
        assert traced.stats.matcher == plain.stats.matcher == "columnar"
        assert oracle.stats.matcher == "interpreted"
        assert traced.answer("T") == plain.answer("T") == oracle.answer("T")
        assert len(plain.answer("T")) == 3


class TestIndexRemoveFast:
    """Deletion from the identity chain on position 0, the chain every
    unplanned keyed probe on that position uses."""

    def test_large_skewed_bucket_deletion_is_fast(self):
        """Satellite: discarding from one huge bucket must not be
        O(bucket) per deletion.  20k tuples share the indexed key; with
        the old ``list.remove`` this loop is ~2×10⁸ comparisons."""
        n = 20_000
        rel = Relation("R", 2, [("k", i) for i in range(n)])
        assert len(rel.probe_chain((0,), 1, ("k",))) == n
        start = time.perf_counter()
        for i in range(n):
            assert rel.discard(("k", i))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.5
        assert len(rel) == 0
        assert "k" not in rel.chain_index((0,))

    def test_removal_keeps_index_consistent(self):
        rel = Relation("R", 2, [("k", 1), ("k", 2), ("q", 3)])
        rel.chain_index((0,))
        rel.discard(("k", 1))
        rel.add(("k", 4))
        assert list(rel.probe_chain((0,), 1, ("k",))) == [("k", 2), ("k", 4)]
        assert list(rel.probe_chain((0,), 1, ("q",))) == [("q", 3)]
        # Still one build: all of the above were in-place updates.
        assert rel.index_builds == 1

    def test_bucket_preserves_enumeration_order(self):
        # Seeded engines rely on enumeration order; deletion must not
        # reorder the surviving tuples (a swap-pop would), and later
        # additions must append at the end.
        rel = Relation("R", 2, [("k", i) for i in range(6)])
        before = list(rel.probe_chain((0,), 1, ("k",)))
        victim = before[2]
        rel.discard(victim)
        rel.add(("k", 99))
        after = list(rel.probe_chain((0,), 1, ("k",)))
        assert after == [t for t in before if t != victim] + [("k", 99)]
        assert rel.index_builds == 1  # all of that was in-place


class TestJoinOrderTies:
    def test_tie_heavy_rule_pins_greedy_order(self):
        """Satellite: the kernel caches plans per join order, so the
        greedy choice must stay locked.  All relations the same size:
        ties everywhere, resolved by body position at every step."""
        rule = parse_rule("A(x) :- U(x, y), V(y, z), W(z, x), X(x, w).")
        db = Database(
            {
                "U": [("a", "b"), ("c", "d")],
                "V": [("b", "c"), ("d", "e")],
                "W": [("c", "a"), ("e", "c")],
                "X": [("a", "q"), ("c", "r")],
            }
        )
        ordered = _order_positive(list(rule.body), db)
        # First pick: all sizes tie at 2, no variables bound — body
        # order wins (U).  Then V, W, X all share one variable with the
        # bound set at each step and tie on size — body order again.
        assert [lit.relation for lit in ordered] == ["U", "V", "W", "X"]

    def test_mixed_sizes_still_prefer_smallest_then_connected(self):
        rule = parse_rule("A(x) :- R(x, y), S(y, z), T(z, w).")
        db = Database(
            {
                "R": [("a", str(i)) for i in range(3)],
                "S": [("b", "c"), ("c", "d"), ("d", "e")],
                "T": [("c", "q")],
            }
        )
        ordered = _order_positive(list(rule.body), db)
        # T is smallest; S connects to it through z; R last.
        assert [lit.relation for lit in ordered] == ["T", "S", "R"]
