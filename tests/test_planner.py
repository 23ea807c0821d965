"""The cost-based query planner: join ordering, index cover, scheduling.

Covers the three planner pieces of :mod:`repro.semantics.planner` and
their contracts: chain (trie) indexes and their statistics on
:class:`~repro.relational.instance.Relation`, the minimum chain cover
(MISP), kept per relation and equal to a whole-program recomputation
after every evaluation, the deterministic cost-based join order, the
relation→rules dispatch map (delta-disjoint rules incur zero plan
lookups), index GC (a wide relation ends the run with only covered
indexes live), the production-vs-reference differential across all
deterministic engines (the reference is the ``reference`` fixture's
Γ_P under the production schedule), per-run planner reports, the
empty-input exit (a variant whose other positive inputs include an
empty relation is never planned), and byte-identical seeded
nondeterministic replay.
"""

import copy
import random
from pathlib import Path

import pytest

from repro.obs import CollectorSink, Tracer
from repro.parser import parse_program
from repro.programs.closer import closer_program
from repro.programs.component_chain import (
    component_chain_database,
    component_chain_program,
    component_chain_source,
    reference_component_chain,
)
from repro.programs.tc import tc_nonlinear_program, tc_program
from repro.relational.instance import Database, Relation
from repro.relational.io import facts_from_text
from repro.semantics import planner
from repro.semantics.differential import DiffBatch, DifferentialEngine
from repro.semantics.inflationary import evaluate_inflationary
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.nondeterministic import run_nondeterministic
from repro.semantics.plan import cached_plans, plan_for
from repro.semantics.planner import (
    _cost_order,
    clear_contexts,
    consequences,
    explain,
    minimum_chain_cover,
    plan_context,
)
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import evaluate_wellfounded
from repro.translate.fixpoint_general import compile_fixpoint_loop_general
from repro.workloads.graphs import chain, graph_database

from tests import test_differential_view as view_tests
from tests.test_differential_engines import random_program_and_database
from tests.test_fixpoint_general import GRAPHS, TC, x, y


@pytest.fixture(autouse=True)
def fresh_planner():
    """Each test starts from clean contexts."""
    clear_contexts()
    yield
    clear_contexts()


def on_reference(reference, engine, program, db):
    """``engine`` with Γ_P through the reference matcher."""
    with reference():
        return engine(program, db)


def untimed(value):
    """``value`` (a stats dict) without its wall-clock fields."""
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [untimed(v) for v in value]
    return value


def whole_program_cover(ctx):
    """The reference cover: ``(assign, chains, cover_summary)`` computed
    from scratch over the context's current decisions.

    Every decision's plain plan is walked through ``plan_for`` and every
    relation through ``minimum_chain_cover``, as the planner did after
    each new join order before it kept per-relation template counts.
    """
    templates: dict[str, set[frozenset[int]]] = {}
    for rule_id, state in enumerate(ctx.states):
        for occ, decision in state.decisions.items():
            base = plan_for(ctx.rules[rule_id], decision.order)
            for idx, step in enumerate(base.steps):
                if occ is not None and idx == decision.restricted_pos:
                    continue  # delta-restricted: probes the delta
                if step.key_positions and not step.exact:
                    templates.setdefault(step.relation, set()).add(
                        frozenset(step.key_positions)
                    )
    assign = {}
    chains: dict[str, list[tuple[int, ...]]] = {}
    for relation in sorted(templates):
        for order, members in minimum_chain_cover(templates[relation]):
            chains.setdefault(relation, []).append(order)
            for template in members:
                assign[(relation, template)] = (order, len(template))
    summary = {
        relation: {
            "templates": len(templates[relation]),
            "chains": len(chains[relation]),
        }
        for relation in sorted(templates)
    }
    return assign, chains, summary


def assert_whole_program_cover(program):
    """The program's per-relation cover is the from-scratch one."""
    ctx = plan_context(program)
    assign, chains, summary = whole_program_cover(ctx)
    assert ctx.assign == assign
    assert ctx.chains == chains
    assert list(ctx.cover_summary.items()) == list(summary.items())


# -- chain (trie) indexes ---------------------------------------------------


class TestChainIndexes:
    def make_relation(self):
        rel = Relation("W", 3)
        for t in [("a", "p", 1), ("a", "p", 2), ("a", "q", 3), ("b", "p", 4)]:
            rel.add(t)
        return rel

    def test_probe_full_depth(self):
        rel = self.make_relation()
        # Bucket order follows the backing tuple set's iteration order,
        # which hash randomization scrambles — compare as sets.
        assert sorted(rel.probe_chain((0, 1), 2, ("a", "p"))) == [
            ("a", "p", 1), ("a", "p", 2)
        ]
        assert list(rel.probe_chain((0, 1), 2, ("b", "q"))) == []

    def test_probe_prefix_depth(self):
        rel = self.make_relation()
        out = rel.probe_chain((0, 1), 1, ("a",))
        assert sorted(out) == [("a", "p", 1), ("a", "p", 2), ("a", "q", 3)]

    def test_chain_key_counts(self):
        rel = self.make_relation()
        rel.chain_index((0, 1))
        assert rel.distinct_estimate(frozenset({0})) == 2  # a, b
        assert rel.distinct_estimate(frozenset({0, 1})) == 3  # ap, aq, bp

    def test_incremental_maintenance(self):
        rel = self.make_relation()
        rel.chain_index((0, 1))
        rel.add(("c", "r", 5))
        assert rel.probe_chain((0, 1), 1, ("c",)) == [("c", "r", 5)]
        assert rel.distinct_estimate(frozenset({0})) == 3
        rel.discard(("c", "r", 5))
        assert list(rel.probe_chain((0, 1), 1, ("c",))) == []
        assert rel.distinct_estimate(frozenset({0})) == 2

    def test_distinct_estimate_is_free(self):
        rel = self.make_relation()
        # No live index: no estimate, and nothing was built to get one.
        builds = rel.index_builds
        assert rel.distinct_estimate(frozenset({0})) is None
        assert rel.index_builds == builds
        rel.chain_index((0, 1))
        assert rel.distinct_estimate(frozenset({0})) == 2
        assert rel.distinct_estimate(frozenset({0, 1})) == 3
        rel.chain_index((2,))
        assert rel.distinct_estimate(frozenset({2})) == 4

    def test_drop_counts(self):
        rel = self.make_relation()
        rel.chain_index((0,))
        rel.chain_index((0, 1))
        assert sorted(rel.live_indexes()) == [(0,), (0, 1)]
        assert rel.drop_chain_index((0,))
        assert rel.drop_chain_index((0, 1))
        assert not rel.drop_chain_index((0,))  # already gone
        assert rel.index_drops == 2
        assert rel.live_indexes() == []

    def test_copy_carries_chains(self):
        rel = self.make_relation()
        rel.chain_index((0, 1))
        clone = rel.copy()
        rel.add(("z", "z", 9))
        assert list(clone.probe_chain((0, 1), 1, ("z",))) == []
        assert clone.distinct_estimate(frozenset({0})) == 2


# -- minimum chain cover (MISP) ---------------------------------------------


class TestMinimumChainCover:
    def test_nested_templates_share_one_chain(self):
        chains = minimum_chain_cover(
            [frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})]
        )
        assert len(chains) == 1
        order, members = chains[0]
        assert order == (0, 1, 2)
        assert members == [
            frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})
        ]

    def test_antichain_needs_one_chain_each(self):
        chains = minimum_chain_cover([frozenset({0}), frozenset({1})])
        assert sorted(order for order, _ in chains) == [(0,), (1,)]

    def test_dilworth_width_two(self):
        chains = minimum_chain_cover(
            [frozenset({0}), frozenset({1}), frozenset({0, 1})]
        )
        assert len(chains) == 2  # width of the antichain {0}, {1}

    def test_members_are_prefixes(self):
        templates = [
            frozenset({1}), frozenset({0, 1}), frozenset({2}),
            frozenset({1, 2, 3}),
        ]
        for order, members in minimum_chain_cover(templates):
            for template in members:
                depth = len(template)
                assert frozenset(order[:depth]) == template

    def test_deterministic(self):
        templates = {frozenset({0}), frozenset({2}), frozenset({0, 2})}
        assert minimum_chain_cover(templates) == minimum_chain_cover(
            sorted(templates, key=repr, reverse=True)
        )


# -- cost-based join order --------------------------------------------------


class TestCostOrder:
    def setup_rule(self, source):
        program = parse_program(source, name="cost-order")
        rule = program.rules[0]
        lits = list(rule.positive_body())
        return lits, [lit.variables() for lit in lits]

    def test_small_scan_first_then_bound_probe(self):
        lits, var_sets = self.setup_rule("P(x, y) :- Big(x), Small(x, y).")
        db = Database({"Big": [(i,) for i in range(100)],
                       "Small": [(1, 2), (2, 3), (3, 4)]})
        order, est = _cost_order(lits, var_sets, [100, 3], db)
        # Scan the 3-tuple relation, then membership-probe the big one.
        assert order == (1, 0)
        assert est == pytest.approx(3 * 0.5)

    def test_restricted_occurrence_forced_first(self):
        lits, var_sets = self.setup_rule("P(x, y) :- Big(x), Small(x, y).")
        db = Database({"Big": [(i,) for i in range(100)],
                       "Small": [(1, 2), (2, 3), (3, 4)]})
        order, _ = _cost_order(
            lits, var_sets, [2, 3], db, restricted_occ=0
        )
        assert order[0] == 0

    def test_live_index_sharpens_estimate(self):
        db = Database({"S": [("k",)],
                       "W": [("k", i) for i in range(10)]
                       + [("other", 99)]})
        db.relation("W").chain_index((0,))
        lits, var_sets = self.setup_rule("P(y) :- S(x), W(x, y).")
        order, est = _cost_order(lits, var_sets, [1, 11], db)
        assert order == (0, 1)
        # 11 tuples / 2 distinct first-column keys, not 11^(1/2).
        assert est == pytest.approx(11 / 2)

    def test_deterministic_tie_break(self):
        lits, var_sets = self.setup_rule("P(x) :- A(x), B(x).")
        db = Database({"A": [(1,), (2,)], "B": [(1,), (3,)]})
        first = _cost_order(lits, var_sets, [2, 2], db)
        assert first == _cost_order(lits, var_sets, [2, 2], db)
        assert first[0] == (0, 1)  # equal costs: body position wins


# -- dispatch: delta-disjoint rules are never visited -----------------------


class TestDispatch:
    SOURCE = (
        "T(x, y) :- E(x, y).\n"
        "T(x, z) :- T(x, y), E(y, z).\n"
        "U(x) :- F(x).\n"
    )

    def test_delta_disjoint_rule_has_zero_delta_lookups(self):
        program = parse_program(self.SOURCE, name="dispatch")
        db = Database({
            "E": [(i, i + 1) for i in range(8)],
            "F": [(0,), (1,)],
        })
        result = evaluate_datalog_seminaive(program, db)
        assert result.answer("U") == {(0,), (1,)}
        ctx = plan_context(program)
        # The U rule's body (F) is never in any delta: exactly one plan
        # lookup — its own full pass — across the whole fixpoint.
        assert ctx.states[2].lookups == 1
        # The recursive TC rule is planned on every delta stage.
        assert ctx.states[1].lookups > 1

    def test_consequences_dispatch_without_scheduling(self):
        # The dispatch map alone (no component restriction): a delta on
        # T selects only rules with T in their positive body.
        program = parse_program(self.SOURCE, name="dispatch-direct")
        db = Database({
            "E": [(0, 1), (1, 2)],
            "F": [(5,)],
            "T": [],
            "U": [],
        })
        adom = (0, 1, 2, 5)
        delta = {"T": frozenset({(0, 1)})}
        positive, _negative, _f = consequences(program, db, adom, delta=delta)
        ctx = plan_context(program)
        assert ctx.states[0].lookups == 0  # E-only body: not selected
        assert ctx.states[2].lookups == 0  # F-only body: not selected
        assert ctx.states[1].lookups == 1
        assert positive == {"T": {(0, 2)}}


# -- index GC: one rule for the one index kind -----------------------------


class TestIndexGC:
    """A live chain the cover does not list is dropped exactly when the
    cover serves its whole key set; the cover adopts the chains it
    lists, and leaves chains it knows nothing about alone."""

    def wide(self, body: str, a_facts, *prebuilt):
        program = parse_program(f"P(z) :- {body}.", name="gc-wide")
        db = Database({
            "A": a_facts,
            "W": [(c, f"y{i}", i) for i in range(15)
                  for c in ("a", "b")],
        })
        w = db.relation("W")
        for order in prebuilt:
            w.chain_index(order)
        result = evaluate_datalog_seminaive(program, db)
        cover = result.stats.planner["index_cover"]["W"]
        assert cover == {"templates": 1, "chains": 1}
        assert_whole_program_cover(program)
        return result, result.database.relation("W")

    def test_wide_relation_ends_with_covered_indexes_only(self):
        # The identity chain on {0} is the cover's own chain: adopted
        # as is — the run builds nothing and drops nothing.
        result, final = self.wide("A(x), W(x, y, z)",
                                  [("a",), ("b",)], (0,))
        assert len(result.answer("P")) == 15
        assert final.live_indexes() == [(0,)]
        assert final.index_builds == 0  # carried over by the copy
        assert result.stats.index_builds == 0
        assert result.stats.index_drops == 0

    def test_served_but_unlisted_chain_is_dropped(self):
        # The cover serves {0, 1} through (0, 1); the pre-built (1, 0)
        # answers the same probes, so the planner frees it.
        result, final = self.wide("A(x, y), W(x, y, z)",
                                  [("a", "y1"), ("b", "y2")], (1, 0))
        assert result.answer("P") == {(1,), (2,)}
        assert final.live_indexes() == [(0, 1)]
        assert result.stats.index_builds == 1
        assert final.index_drops == 1
        assert result.stats.index_drops == 1

    def test_unrelated_chain_is_left_alone(self):
        # No template on {2}: that chain is not the planner's to free.
        result, final = self.wide("A(x), W(x, y, z)",
                                  [("a",), ("b",)], (2,))
        assert sorted(final.live_indexes()) == [(0,), (2,)]
        assert result.stats.index_builds == 1
        assert result.stats.index_drops == 0


# -- the cover is kept per relation -----------------------------------------


@pytest.fixture
def releases(monkeypatch):
    """Templates a replan released and no other decision still probes."""
    seen = []
    original = planner._update_cover

    def spy(ctx, released, claimed):
        original(ctx, released, claimed)
        seen.extend(
            (relation, template)
            for relation, template in released - claimed
            if template not in ctx.template_counts.get(relation, {})
        )

    monkeypatch.setattr(planner, "_update_cover", spy)
    return seen


SHARED_CHAIN = "P(z) :- A(x), W(x, y, z).\nQ(z) :- C(x, y), W(x, y, z).\n"


def shared_chain_database() -> Database:
    """W's probes on {0} (P) and {0, 1} (Q) share the chain (0, 1)."""
    return Database({
        "A": [("a",), ("b",)],
        "C": [("a", "y1"), ("b", "y2")],
        "W": [(c, f"y{i}", i) for i in range(15) for c in ("a", "b")],
    })


class TestPerRelationCover:
    """A new or replaced decision recomputes the cover of exactly the
    relations whose template set it changed, and the result equals a
    whole-program recomputation after every evaluation — also when a
    replan changes a join order and releases a template."""

    @pytest.mark.parametrize("graph", list(GRAPHS))
    def test_fixpoint_general_tc(self, graph, releases):
        # Arity-3 stamp relations: a chain serves two templates.
        program = compile_fixpoint_loop_general("R", (x, y), TC, {"G": 2})
        evaluate_inflationary(program, graph_database(GRAPHS[graph]))
        assert_whole_program_cover(program)
        summary = plan_context(program).cover_summary
        assert any(c["templates"] > c["chains"] for c in summary.values())
        if graph in ("cycle", "lollipop"):
            assert releases

    def test_fixpoint_general_seeded_target(self, releases):
        program = compile_fixpoint_loop_general("R", (x, y), TC, {"G": 2})
        db = Database({"G": chain(4), "R": [("n3", "n0")]})
        evaluate_inflationary(program, db)
        assert_whole_program_cover(program)
        assert releases

    @pytest.mark.parametrize("graph", list(GRAPHS))
    def test_closer(self, graph):
        program = closer_program()
        for use_delta in (True, False):
            evaluate_inflationary(
                program, graph_database(GRAPHS[graph]), use_delta=use_delta
            )
            assert_whole_program_cover(program)

    def test_two_hop_streams(self, releases):
        # One program object across a ladder and eight random streams,
        # each update checked by a from-scratch evaluation: the ladder
        # leaves G two templates, and a stream's replan releases one.
        program = parse_program(
            "hop2(x, z) :- G(x, y), G(y, z).\n"
            "triangle(x) :- G(x, y), G(y, z), G(z, x).\n"
        )
        nodes = view_tests.EDGE_NODES
        engine = DifferentialEngine(
            program, graph_database(view_tests.TestUpdateCostGuards.LADDER)
        )
        engine.insert([("G", ("c9", "a")), ("G", ("b", "m1"))])
        engine.delete([("G", ("a", "m1")), ("G", ("c3", "c4"))])
        assert engine.consistent_with_scratch()
        assert_whole_program_cover(program)
        assert plan_context(program).cover_summary["G"]["templates"] == 2
        for seed in range(8):
            rng = random.Random(seed)
            start = [
                (rng.choice(nodes), rng.choice(nodes)) for _ in range(5)
            ]
            engine = DifferentialEngine(program, Database({"G": start}))
            for _ in range(12):
                view_tests.stream_step(rng, engine, {"G": 2}, nodes)
                view_tests.scratch_answers(engine)
                assert_whole_program_cover(program)
        assert releases

    def test_cover_recomputed_only_when_templates_change(self, monkeypatch):
        calls = []
        original = planner.minimum_chain_cover

        def counted(templates):
            calls.append(templates)
            return original(templates)

        monkeypatch.setattr(planner, "minimum_chain_cover", counted)
        program = parse_program(component_chain_source(30, 16))
        evaluate_datalog_seminaive(program, component_chain_database(30, 16))
        assert len(calls) == 30  # once per component's relation
        assert_whole_program_cover(program)
        calls.clear()
        evaluate_datalog_seminaive(program, component_chain_database(30, 16))
        assert calls == []

    @pytest.mark.parametrize("make", [tc_program, tc_nonlinear_program],
                             ids=["linear", "nonlinear"])
    def test_identity_cover_runs_the_plain_plan(self, make):
        program = make()
        evaluate_datalog_seminaive(program, graph_database(chain(20)))
        ctx = plan_context(program)
        decisions = [
            (rule, decision)
            for rule, state in zip(ctx.rules, ctx.states)
            for decision in state.decisions.values()
        ]
        assert len(decisions) >= 2
        for rule, decision in decisions:
            assert decision.plan is plan_for(rule, decision.order)

    def test_shared_chain_plan_is_a_cached_plan(self):
        program = parse_program(SHARED_CHAIN, name="shared-chain")
        first = evaluate_datalog_seminaive(program, shared_chain_database())
        cover = first.stats.planner["index_cover"]["W"]
        assert cover == {"templates": 2, "chains": 1}
        assert plan_context(program).chains["W"] == [(0, 1)]
        # The second run re-derives P's plan against the shared chain.
        evaluate_datalog_seminaive(program, shared_chain_database())
        assert_whole_program_cover(program)
        rule = program.rules[0]
        decision = plan_context(program).states[0].decisions[None]
        plan = decision.plan
        assert any(plan is cached for cached in cached_plans(rule))
        assert plan is not plan_for(rule, decision.order)
        (step,) = [step for step in plan.steps if step.relation == "W"]
        assert (step.chain_order, step.chain_depth) == ((0, 1), 1)
        # The full pass finds the shared chain unbuilt, so no counts:
        # the batch kernel hands the call on, and the bitset variant
        # builds the chain and runs it.
        kernels = plan.codegen_fns.kernels
        assert set(kernels) == {"emit_batch_full", "emit_grouped_full"}
        assert ("rel1.chain_index((0, 1))"
                in kernels["emit_grouped_full"].source)
        for kernel in kernels.values():
            assert "p1 = rel1.probe_chain" in kernel.source
            assert "p1((0, 1), 1, " in kernel.source
        assert not any(
            hasattr(cached, "cover_twins")
            for each in program.rules
            for cached in cached_plans(each)
        )


# -- scheduling parity ------------------------------------------------------


class TestScheduledParity:
    @pytest.fixture(autouse=True)
    def oracle(self, reference):
        self.reference = reference

    def run_both(self, engine, program, db):
        return engine(program, db), on_reference(
            self.reference, engine, program, db
        )

    def test_component_chain_matches_legacy_and_reference(self):
        # Production against the reference matcher and against the
        # independent reference answers.
        program = component_chain_program(4)
        db = component_chain_database(4)
        on, off = self.run_both(evaluate_datalog_seminaive, program, db)
        for relation, expected in reference_component_chain(4).items():
            assert on.answer(relation) == expected
            assert off.answer(relation) == expected
        assert on.rule_firings == off.rule_firings
        assert on.database.canonical() == off.database.canonical()

    def test_scheduled_components_reported(self):
        program = component_chain_program(3)
        db = component_chain_database(3)
        result = evaluate_datalog_seminaive(program, db)
        assert result.stats.planner["scheduled_components"] == 3

    def test_stratified_parity(self):
        program = parse_program(
            "T(x, y) :- G(x, y).\n"
            "T(x, y) :- G(x, z), T(z, y).\n"
            "CT(x, y) :- not T(x, y).\n",
            name="ctc-parity",
        )
        db = Database({"G": [("a", "b"), ("b", "c")]})
        on, off = self.run_both(evaluate_stratified, program, db)
        assert on.answer("CT") == off.answer("CT")
        assert on.rule_firings == off.rule_firings

    def test_wellfounded_parity(self):
        program = parse_program(
            "win(x) :- moves(x, y), not win(y).", name="win-parity"
        )
        db = Database({
            "moves": [("a", "b"), ("b", "a"), ("b", "c")],
        })
        on, off = self.run_both(evaluate_wellfounded, program, db)
        assert on.true_facts == off.true_facts
        assert on.unknown_facts() == off.unknown_facts()
        assert on.rule_firings == off.rule_firings

    @pytest.mark.parametrize(
        "engine", [evaluate_datalog_seminaive, evaluate_stratified]
    )
    def test_traced_runs_take_the_production_schedule(self, engine):
        # A traced run and the reference oracle both keep the stage
        # schedule of the untraced run.
        program = parse_program(component_chain_source(3, 4))
        db = component_chain_database(3, 4)
        plain, reference = self.run_both(engine, program, db)
        traced = engine(program, db, tracer=Tracer([CollectorSink()]))
        assert reference.stats.matcher == "interpreted"
        assert traced.stats.matcher == "columnar"
        for result in (plain, reference, traced):
            assert result.rule_firings == 18
            assert result.stats.stage_count == 12
            assert result.database.canonical() == plain.database.canonical()


# -- planner report ---------------------------------------------------------


class TestReport:
    def test_explain_shape(self):
        program = parse_program(
            "T(x, y) :- G(x, y).\nT(x, z) :- T(x, y), T(y, z).\n",
            name="explain",
        )
        db = Database({"G": [(1, 2), (2, 3)]})
        report = explain(program, db)
        assert set(report) == {
            "plan_lookups", "plan_hits", "replans", "rules",
            "index_cover", "scheduled_components",
        }
        full = report["rules"]["1"]["full"]
        assert sorted(full["order"]) == [0, 1]
        assert full["estimated_rows"] >= 0
        # The self-join probes T(y, z) with y bound — position 0 of
        # that literal — so both probe shapes collapse to one template
        # and the cover needs a single chain.
        assert report["index_cover"]["T"] == {"templates": 1, "chains": 1}

    def test_stats_carry_estimate_and_actual(self):
        program = parse_program(
            "T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).\n",
            name="actuals",
        )
        db = Database({"G": [("a", "b"), ("b", "c"), ("c", "d")]})
        result = evaluate_datalog_seminaive(program, db)
        planner = result.stats.planner
        assert planner is not None
        assert planner["plan_lookups"] > 0
        rules = planner["rules"]
        # Rule 0 fired 3 times (one per edge); the report pairs the
        # estimate with the observed actual.
        assert rules["0"]["actual_rows"] == 3
        assert rules["0"]["full"]["estimated_rows"] == pytest.approx(3.0)
        assert rules["1"]["actual_rows"] == 3  # paths of length ≥ 2
        json_planner = result.stats.to_dict()["planner"]
        assert json_planner["rules"]["0"]["actual_rows"] == 3

    def test_each_run_reports_only_its_own_work(self):
        # Cached decisions outlive a run; its report does not: a second
        # evaluation of the same parsed program leaves the first run's
        # report alone and counts exactly what a fresh program counts.
        from repro.programs.tc import tc_program
        from repro.workloads.graphs import chain, graph_database

        program = tc_program()
        first = evaluate_datalog_seminaive(program, graph_database(chain(10)))
        before = copy.deepcopy(first.stats.planner)
        second = evaluate_datalog_seminaive(
            program, graph_database(chain(30))
        )
        fresh = evaluate_datalog_seminaive(
            tc_program(), graph_database(chain(30))
        )
        assert first.stats.planner is not second.stats.planner
        assert first.stats.planner == before
        assert before["plan_lookups"] == 10
        report = second.stats.planner
        assert report["plan_lookups"] == fresh.stats.planner["plan_lookups"]
        assert report["plan_lookups"] == 30
        assert report["rules"]["1"]["actual_rows"] == 406
        assert report["rules"] == fresh.stats.planner["rules"]

    def test_stratified_report_and_spans_use_program_indices(self):
        # One scheduled fixpoint over the whole program: every rule's
        # report entry and rule span carry its index in the program,
        # whichever stratum it belongs to.
        program = parse_program(
            "T(x, y) :- G(x, y).\n"
            "T(x, y) :- G(x, z), T(z, y).\n"
            "CT(x, y) :- N(x), N(y), not T(x, y).\n"
            "N(x) :- G(x, y).\n"
            "N(y) :- G(x, y).\n",
            name="ctc-report",
        )
        db = Database({"G": [("a", "b"), ("b", "c"), ("c", "d")]})
        collector = CollectorSink()
        traced = evaluate_stratified(
            program, db, tracer=Tracer([collector])
        )
        plain = evaluate_stratified(program, db)
        index_of = {str(rule): i for i, rule in enumerate(program.rules)}
        spans = collector.rule_events()
        assert {event.rule_index for event in spans} == set(range(5))
        for event in spans:
            assert event.rule_index == index_of[event.rule]
        for result in (traced, plain):
            rules = result.stats.planner["rules"]
            assert sorted(rules) == ["0", "1", "2", "3", "4"]
            assert rules["2"]["actual_rows"] == len(result.answer("CT"))
            assert rules["3"]["actual_rows"] == 3
        assert traced.stats.planner["rules"] == plain.stats.planner["rules"]

    def test_explain_leaves_the_next_run_alone(self):
        # Explain decides Q's full pass, which a run skips (B is empty);
        # on the program's own context that decision would add W's
        # {0, 1} template to the run's cover.
        source = "P(x) :- A(x), W(x, y, z).\nQ(x) :- B(x, y), W(x, y, z).\n"

        def database():
            return Database({
                "A": [("a",), ("b",)],
                ("B", 2): [],
                "W": [(c, f"y{i}", i) for i in range(5) for c in ("a", "b")],
            })

        def run(explain_first):
            program = parse_program(source, name="explain-then-run")
            if explain_first:
                report = explain(program, database())
                assert report["index_cover"]["W"] == {
                    "templates": 2, "chains": 1,
                }
                assert report["plan_hits"] == report["replans"] == 0
            result = evaluate_datalog_seminaive(program, database())
            live = result.database.relation("W").live_indexes()
            return untimed(result.stats.to_dict()), live

        alone = run(explain_first=False)
        assert alone[0]["planner"]["index_cover"]["W"] == {
            "templates": 1, "chains": 1,
        }
        assert alone[1] == [(0,)]
        assert run(explain_first=True) == alone

    def test_plan_cache_hits_dominate_on_stable_cardinalities(self):
        program = component_chain_program(3)
        db = component_chain_database(3)
        result = evaluate_datalog_seminaive(program, db)
        planner = result.stats.planner
        assert planner["plan_hits"] > planner["replans"]
        assert planner["plan_lookups"] == (
            planner["plan_hits"] + planner["replans"]
            + len([k for entry in planner["rules"].values()
                   for k in entry if k != "actual_rows"])
        )


# -- differential: planner on vs off, all engines ---------------------------


ENGINES = {
    "naive": evaluate_datalog_naive,
    "seminaive": evaluate_datalog_seminaive,
    "stratified": evaluate_stratified,
}


@pytest.mark.parametrize("seed", range(50))
def test_planner_differential_on_random_programs(seed, reference):
    """The planned production path and the reference matcher agree on
    50 random programs, across naive/seminaive/stratified/wellfounded."""
    rng = random.Random(seed)
    source, db = random_program_and_database(rng)
    program = parse_program(source, name=f"planner-random-{seed}")

    for name, engine in ENGINES.items():
        on = engine(program, db)
        assert_whole_program_cover(program)
        off = on_reference(reference, engine, program, db)
        context = f"{name}: {source}"
        assert on.database.canonical() == off.database.canonical(), context
        assert on.rule_firings == off.rule_firings, context
        assert on.stats.stage_count == off.stats.stage_count, context
    # Well-founded semantics of a positive program is its minimum model;
    # the planner must not disturb the alternating fixpoint either.
    wf_on = evaluate_wellfounded(program, db)
    wf_off = on_reference(reference, evaluate_wellfounded, program, db)
    assert wf_on.true_facts == wf_off.true_facts, source
    assert wf_on.possible_facts == wf_off.possible_facts, source


# -- seeded nondeterministic replay -----------------------------------------


class TestSeededReplay:
    SOURCE = "A(x), B(x) :- S(x).\n"

    def run(self, seed):
        program = parse_program(self.SOURCE, name="seeded-replay")
        db = Database({"S": [("a",), ("b",), ("c",)]})
        return run_nondeterministic(program, db, seed=seed)

    def steps_of(self, run):
        return [(tuple(s.inserted), tuple(s.deleted)) for s in run.steps]

    def test_same_seed_replays_byte_identically_with_planner(self):
        first = self.run(seed=7)
        second = self.run(seed=7)
        assert self.steps_of(first) == self.steps_of(second)
        assert first.database.canonical() == second.database.canonical()

    def test_planner_state_does_not_touch_the_sampler(self):
        # The planner never reaches iter_matches, so a seeded run is the
        # same trajectory before and after a planned evaluation of the
        # same program object filled its planner context.
        program = parse_program(self.SOURCE, name="seeded-replay")
        db = Database({"S": [("a",), ("b",), ("c",)]})
        before = run_nondeterministic(program, db, seed=11)
        consequences(program, db, ("a", "b", "c"))
        assert plan_context(program).states[0].lookups == 1
        after = run_nondeterministic(program, db, seed=11)
        assert self.steps_of(before) == self.steps_of(after)
        assert before.database.canonical() == after.database.canonical()


# -- the empty-input exit ---------------------------------------------------


EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "datalog"


def bundled_ring():
    """The bundled feedback ring: ``Filter`` is empty on the first pass
    of the component that derives it."""
    program = parse_program(
        (EXAMPLES / "feedback_ring.dl").read_text(), name="ring"
    )
    db = facts_from_text((EXAMPLES / "feedback_ring_facts.dl").read_text())
    return program, db


class TestEmptyInputExit:
    """A pass whose other positive inputs include an empty relation
    derives nothing, so it is never planned, cached or reported."""

    def test_cold_ring_pass_is_never_planned(self):
        program, db = bundled_ring()
        result = evaluate_datalog_seminaive(program, db)
        # Rule 0 (Out :- Big, Mid, Filter) meets an empty Filter on its
        # component's full pass: no decision and no report entry; only
        # its delta variant on Filter runs.
        rule0 = result.stats.planner["rules"]["0"]
        assert "full" not in rule0
        assert set(rule0) == {"delta@2", "actual_rows"}
        assert result.answer("Filter") == {("c0", "ok"), ("c1", "ok")}
        assert result.answer("Out") == {
            (f"a{i}", c) for i in range(8) for c in ("c0", "c1")
        }

    def test_ring_firings_and_stages_match_a_full_tracer(self, reference):
        program, db = bundled_ring()
        plain = evaluate_datalog_seminaive(program, db)
        off = on_reference(reference, evaluate_datalog_seminaive, program, db)
        traced = evaluate_datalog_seminaive(
            program, db, tracer=Tracer([CollectorSink()])
        )
        assert off.stats.matcher == "interpreted"
        for other in (off, traced):
            assert plain.rule_firings == other.rule_firings
            assert plain.stats.stage_count == other.stats.stage_count
            assert plain.database.canonical() == other.database.canonical()

    def test_delta_pass_over_an_empty_input_makes_no_lookup(self):
        program = parse_program(
            "T(x, y) :- G(x, y).\n"
            "T(x, y) :- T(x, z), G(z, y), E(y).\n",
            name="empty-input",
        )
        db = Database({"G": [(0, 1), (1, 2)], ("E", 1): set()})
        result = evaluate_datalog_seminaive(program, db)
        assert result.answer("T") == {(0, 1), (1, 2)}
        # Rule 0's full pass is the only lookup: rule 1's full pass and
        # its delta pass on T both read the declared-but-empty E.
        assert result.stats.planner["plan_lookups"] == 1
        assert plan_context(program).states[1].lookups == 0
        assert "1" not in result.stats.planner["rules"]

    def test_batch_emptying_a_non_delta_input_matches_scratch(self):
        program = parse_program(
            "T(x, y) :- G(x, y).\n"
            "T(x, y) :- T(x, z), G(z, y).\n"
            "R(x, y) :- T(x, y), F(y).\n"
            "R(x, y) :- R(x, z), G(z, y).\n",
            name="emptied-input",
        )
        engine = DifferentialEngine(
            program, Database({"G": [(0, 1), (1, 2)], "F": [(1,), (2,)]})
        )
        assert engine.answer("R") == {(0, 1), (1, 2), (0, 2)}
        # One batch deletes every F fact and extends T: R's insertion
        # pass then has a T delta beside an empty F, and a G delta
        # beside an emptied R.
        engine.apply(DiffBatch(
            inserts=(("G", (2, 3)),),
            deletes=(("F", (1,)), ("F", (2,))),
        ))
        assert engine.answer("R") == frozenset()
        assert len(engine.answer("T")) == 6
        assert engine.consistent_with_scratch()


# -- cold starts ------------------------------------------------------------


class TestStaticPriors:
    """A cold start (the recursive relation empty on the first pass)
    still reaches the full closure."""

    def test_evaluation_results_unchanged_by_priors(self):
        program = parse_program(
            "T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).\n",
            name="prior-parity",
        )
        db = Database({"G": [("a", "b"), ("b", "c"), ("c", "d")]})
        result = evaluate_datalog_seminaive(program, db)
        assert result.answer("T") == frozenset({
            ("a", "b"), ("b", "c"), ("c", "d"),
            ("a", "c"), ("b", "d"), ("a", "d"),
        })
