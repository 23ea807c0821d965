"""Tests for the unified differential engine.

Covers the per-SCC components (every one kept by DRed, the
nonrecursive ones' facts counted on demand), the diff-batch and
subscription API, the maintenance-layer correctness fixes
(IDB-named base facts rejected, atomic batches), and the two
correctness spines: seeded randomized insert/delete *streams* checked
against from-scratch evaluation after every operation, and the
50-random-program stream differential.
"""

import random

import pytest

from repro.errors import SchemaError
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.counting import CountingView
from repro.semantics.differential import (
    ApplyResult,
    DiffBatch,
    DifferentialEngine,
    RelationDiff,
    _SupportProbe,
)
from repro.semantics.maintenance import MaterializedView
from repro.semantics.plan import cached_plans
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.programs.tc import tc_program, tc_nonlinear_program
from repro.workloads.graphs import chain, graph_database

from tests.test_differential_engines import random_program_and_database

TWO_HOP = parse_program(
    """
    hop2(x, z) :- G(x, y), G(y, z).
    triangle(x) :- G(x, y), G(y, z), G(z, x).
    """
)

MIXED = parse_program(
    """
    T(x, y) :- G(x, y).
    T(x, z) :- T(x, y), G(y, z).
    mutual(x, y) :- T(x, y), T(y, x).
    """
)


def scratch_answers(engine_or_view) -> dict[str, frozenset]:
    """From-scratch evaluation of the view's current base."""
    program = engine_or_view.program
    base = engine_or_view.database.restrict(
        [
            rel
            for rel in engine_or_view.database.relation_names()
            if rel not in program.idb
        ]
    )
    result = evaluate_datalog_seminaive(program, base)
    return {rel: result.answer(rel) for rel in sorted(program.idb)}


def view_answers(engine_or_view) -> dict[str, frozenset]:
    return {
        rel: engine_or_view.answer(rel)
        for rel in sorted(engine_or_view.program.idb)
    }


class TestConstructorGuards:
    """Satellite bugfix: IDB-named base facts must be rejected.

    Before the fix both view classes silently absorbed them and
    ``consistent_with_scratch()`` was ``False`` forever after.
    """

    def test_materialized_view_rejects_idb_base(self):
        base = Database({"G": [("a", "b")], "T": [("z", "z")]})
        with pytest.raises(SchemaError):
            MaterializedView(tc_program(), base)

    def test_counting_view_rejects_idb_base(self):
        base = Database({"G": [("a", "b")], "hop2": [("z", "z")]})
        with pytest.raises(SchemaError):
            CountingView(TWO_HOP, base)

    def test_engine_rejects_idb_base(self):
        with pytest.raises(SchemaError):
            DifferentialEngine(tc_program(), Database({"T": [("z", "z")]}))

    def test_clean_base_still_accepted(self):
        engine = DifferentialEngine(
            tc_program(), Database({"G": [("a", "b")]})
        )
        assert engine.answer("T") == frozenset({("a", "b")})


class TestAtomicBatches:
    """Satellite bugfix: a bad fact anywhere in a batch must leave the
    view untouched (the whole batch validates before any mutation)."""

    def make_view(self):
        return MaterializedView(tc_program(), graph_database(chain(3)))

    def test_mixed_insert_batch_is_rejected_whole(self):
        view = self.make_view()
        before = view_answers(view)
        with pytest.raises(SchemaError):
            view.insert([("G", ("x", "y")), ("T", ("x", "y"))])
        assert view_answers(view) == before
        assert ("x", "y") not in view.database.tuples("G")
        assert view.consistent_with_scratch()

    def test_mixed_delete_batch_is_rejected_whole(self):
        view = self.make_view()
        before = view_answers(view)
        with pytest.raises(SchemaError):
            view.delete([("G", ("n0", "n1")), ("T", ("n0", "n1"))])
        assert view_answers(view) == before
        assert ("n0", "n1") in view.database.tuples("G")
        assert view.consistent_with_scratch()

    def test_arity_mismatch_rejects_whole_batch(self):
        view = self.make_view()
        with pytest.raises(SchemaError):
            view.insert([("G", ("q", "r")), ("G", ("q", "r", "s"))])
        assert ("q", "r") not in view.database.tuples("G")
        assert view.consistent_with_scratch()

    def test_counting_view_batches_are_atomic(self):
        view = CountingView(TWO_HOP, Database({"G": [("a", "b")]}))
        with pytest.raises(SchemaError):
            view.insert([("G", ("b", "c")), ("hop2", ("a", "c"))])
        assert ("b", "c") not in view.database.tuples("G")
        assert view.count("hop2", ("a", "c")) == 0
        assert view.consistent_with_scratch()

    def test_engine_mixed_apply_is_atomic(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        before = view_answers(engine)
        batch = DiffBatch(
            inserts=(("G", ("n2", "n0")),),
            deletes=(("T", ("n0", "n1")),),
        )
        with pytest.raises(SchemaError):
            engine.apply(batch)
        assert view_answers(engine) == before
        assert engine.consistent_with_scratch()

    @pytest.mark.parametrize(
        "batch",
        [
            DiffBatch(inserts=(("G", ("c", "d")), ("G", (["q"], "r")))),
            DiffBatch(deletes=(("G", ("n0", "n1")), ("G", ({"x": 1}, "y")))),
            DiffBatch(inserts=(("G", ("c", "d")), ("G",))),
            [("+", "G", ("c", "d")), ("+", "G", 5)],
            [("-", "G", ("n0", "n1")), ("+", "G", "ab")],
            [("+", "G", ("c", "d")), ("+", ["G"], ("e", "f"))],
        ],
        ids=[
            "unhashable-insert",
            "unhashable-delete",
            "not-a-pair",
            "non-sequence",
            "string-values",
            "unhashable-relation",
        ],
    )
    def test_engine_malformed_fact_rejected_before_any_mutation(self, batch):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        before = view_answers(engine)
        edges = engine.answer("G")
        with pytest.raises(SchemaError):
            engine.apply(batch)
        assert engine.answer("G") == edges
        assert view_answers(engine) == before
        assert engine.consistent_with_scratch()


def recursive_flags(engine) -> dict[str, bool]:
    """Each derived relation's component's ``recursive`` flag, as the
    engine's stats report it."""
    return {
        relation: component["recursive"]
        for component in engine.stats.differential["components"]
        for relation in component["relations"]
    }


class TestStrategySelection:
    """Every component is kept by DRed; a nonrecursive one's facts are
    also counted (``engine.counts``)."""

    def test_recursive_scc_uses_dred(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        flags = recursive_flags(engine)
        assert flags["T"] is True
        assert "G" not in flags

    def test_nonrecursive_sccs_use_counting(self):
        engine = DifferentialEngine(TWO_HOP, Database({"G": [("a", "b")]}))
        flags = recursive_flags(engine)
        assert flags["hop2"] is False
        assert flags["triangle"] is False

    def test_mixed_program_splits_per_scc(self):
        engine = DifferentialEngine(MIXED, graph_database(chain(3)))
        flags = recursive_flags(engine)
        assert flags["T"] is True
        assert flags["mutual"] is False
        components = engine.stats.differential["components"]
        assert [c["recursive"] for c in components] == [True, False]

    def test_mixed_program_counts_downstream_of_dred(self):
        engine = DifferentialEngine(MIXED, graph_database(chain(3)))
        engine.insert([("G", ("n2", "n0"))])  # close the cycle
        assert engine.counts[("mutual", ("n0", "n1"))] == 1
        assert engine.consistent_with_scratch()
        engine.delete([("G", ("n1", "n2"))])
        assert engine.answer("mutual") == frozenset()
        assert engine.consistent_with_scratch()


class TestDiffBatchAPI:
    def test_empty_batch_is_noop(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        before = view_answers(engine)
        result = engine.apply(DiffBatch())
        assert not result.report
        assert view_answers(engine) == before

    def test_delete_before_insert_within_batch(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        result = engine.apply(
            DiffBatch(
                inserts=(("G", ("n0", "n1")),),
                deletes=(("G", ("n0", "n1")),),
            )
        )
        # Present, deleted, re-inserted: the net change is empty.
        assert not result.report
        assert ("n0", "n1") in engine.answer("G")
        assert engine.consistent_with_scratch()

    def test_rederivation_leaves_the_batch_inserts_to_insertion(self):
        """A batch's inserts are in the view while its deletions run:
        rederiving T(b,c) reaches T(a,c) through the inserted G(a,b),
        which is new, so the report must list it as inserted."""
        engine = DifferentialEngine(
            tc_program(), Database({"G": [("b", "c"), ("b", "d"), ("d", "c")]})
        )
        before = engine.answer("T")
        result = engine.apply(
            DiffBatch(
                inserts=(("G", ("a", "b")),),
                deletes=(("G", ("b", "c")),),
            )
        )
        after = engine.answer("T")
        assert result.report.overdeleted == 1  # T(b,c), then rederived
        assert ("a", "c") in after - before
        inserted = {t for rel, t in result.report.inserted if rel == "T"}
        deleted = {t for rel, t in result.report.deleted if rel == "T"}
        assert inserted == after - before
        assert deleted == before - after == set()
        assert engine.consistent_with_scratch()

    def test_signed_triple_form(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        result = engine.apply(
            [("+", "G", ("n2", "n3")), ("-", "G", ("n0", "n1"))]
        )
        assert ("T", ("n2", "n3")) in result.report.inserted
        assert ("T", ("n0", "n1")) in result.report.deleted
        assert engine.consistent_with_scratch()

    def test_unknown_sign_rejected(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        with pytest.raises(SchemaError):
            engine.apply([("~", "G", ("a", "b"))])

    def test_duplicate_insert_and_absent_delete_are_noops(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        assert not engine.insert([("G", ("n0", "n1"))]).report
        assert not engine.delete([("G", ("zz", "zz"))]).report


class TestSubscriptions:
    def test_subscriber_receives_relation_diffs(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        subscription = engine.subscribe("T")
        result = engine.insert([("G", ("n2", "n3"))])
        diff = result.for_subscriber(subscription)
        assert diff.relation == "T"
        assert diff.inserted == frozenset(
            {("n0", "n3"), ("n1", "n3"), ("n2", "n3")}
        )
        assert diff.deleted == frozenset()

    def test_each_subscriber_sees_only_its_relation(self):
        engine = DifferentialEngine(MIXED, graph_database(chain(3)))
        sub_t = engine.subscribe("T")
        sub_mutual = engine.subscribe("mutual")
        result = engine.insert([("G", ("n2", "n0"))])
        assert result.diffs[sub_t].inserted
        assert all(
            fact in engine.answer("mutual")
            for fact in result.diffs[sub_mutual].inserted
        )
        assert ("n0", "n1") in result.diffs[sub_mutual].inserted

    def test_cancelled_subscription_stops_receiving(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        subscription = engine.subscribe("T")
        subscription.cancel()
        result = engine.insert([("G", ("n2", "n3"))])
        assert subscription not in result.diffs
        # for_subscriber degrades to an empty diff.
        assert not result.for_subscriber(subscription)

    def test_unknown_relation_rejected(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        with pytest.raises(SchemaError):
            engine.subscribe("nope")

    def test_edb_subscription_echoes_base_changes(self):
        engine = DifferentialEngine(tc_program(), graph_database(chain(3)))
        subscription = engine.subscribe("G")
        result = engine.insert([("G", ("n2", "n3"))])
        assert result.diffs[subscription].inserted == frozenset(
            {("n2", "n3")}
        )


class TestDifferentialCounters:
    def test_counters_present_and_json_able(self):
        import json

        engine = DifferentialEngine(tc_program(), graph_database(chain(4)))
        engine.insert([("G", ("n3", "n4"))])
        counters = engine.stats.differential
        assert counters["updates"] == 1
        assert counters["view_size"] == len(engine.answer("T")) + len(
            engine.answer("G")
        )
        json.dumps(engine.stats.to_dict())  # stays schema-serializable

    def test_small_update_touches_less_than_view(self):
        engine = DifferentialEngine(
            tc_nonlinear_program(), graph_database(chain(40))
        )
        engine.insert([("G", ("x", "n0"))])
        counters = engine.stats.differential
        assert 0 < counters["last_facts_touched"] < counters["view_size"]

    def test_nonrecursive_insert_checks_no_support(self):
        # An insert only propagates: no fact of the component is
        # support-checked or recounted, however many derivations the
        # new edge adds.
        engine = DifferentialEngine(
            TWO_HOP, Database({"G": [("a", "b"), ("b", "c"), ("d", "c")]})
        )
        result = engine.insert([("G", ("a", "d")), ("G", ("c", "a"))])
        assert ("triangle", ("a",)) in result.report.inserted
        assert engine.counts[("hop2", ("a", "c"))] == 2
        assert engine.stats.differential["support_checks"] == 0
        assert engine.stats.differential["recounted"] == 0
        assert engine.consistent_with_scratch()

    def test_overdelete_and_rederive_are_counted(self):
        edges = [("a", "m1"), ("m1", "b"), ("a", "m2"), ("m2", "b")]
        engine = DifferentialEngine(tc_program(), graph_database(edges))
        result = engine.delete([("G", ("a", "m1"))])
        assert result.report.overdeleted == 2  # T(a,m1), T(a,b)
        assert engine.stats.differential["rederived"] == 1  # T(a,b) survives


class TestIndexShape:
    """A relation keeps one index per column order: the planner's
    cover, ``iter_matches`` and the support probes share chains."""

    def test_no_relation_keeps_two_indexes(self):
        # G is probed on position 0 by the planner's covers for T and
        # H and by the support probes; position 1 only by H's cover.
        program = parse_program(
            """
            T(x, y) :- G(x, y).
            T(x, y) :- G(x, z), T(z, y).
            H(x, z) :- G(x, y), G(y, z).
            """
        )
        edges = [(i, j) for i in range(8) for j in (i + 1, i + 2) if j < 8]
        engine = DifferentialEngine(program, Database({"G": edges}))
        for batch in (
            [("+", "G", (0, 7))],
            [("-", "G", (2, 3))],
            [("+", "G", (3, 6))],
            [("-", "G", (0, 1))],
        ):
            engine.apply(batch)
        assert engine.consistent_with_scratch()
        db = engine.database
        assert sorted(db.relation("G").live_indexes()) == [(0,), (1,)]
        for name in db.relation_names():
            rel = db.relation(name)
            live = rel.live_indexes()
            assert len(live) == len(set(live)), name
            # Each live chain was built once, and nothing else was.
            assert rel.index_builds == len(live), name


class TestUpdateCostGuards:
    """An update must cost the facts it touches, not the view's size."""

    #: Two parallel a→b paths, then a 25-edge tail from b: deleting
    #: a→m1 over-deletes T(a, ·) along the whole tail, and the m2 path
    #: rederives all of it but T(a, m1).
    LADDER = [("a", "m1"), ("m1", "b"), ("a", "m2"), ("m2", "b"),
              ("b", "c1")] + [(f"c{i}", f"c{i + 1}") for i in range(1, 25)]

    def test_updates_never_scan_the_active_domain(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("Database.active_domain called")

        rng = random.Random(7)
        nodes = [f"n{i}" for i in range(12)]
        with monkeypatch.context() as patch:
            patch.setattr(Database, "active_domain", forbidden)
            engine = DifferentialEngine(
                tc_program(), graph_database(chain(12))
            )
            for step in range(40):
                edge = (rng.choice(nodes), rng.choice(nodes))
                if step % 2:
                    engine.delete([("G", edge)])
                else:
                    engine.insert([("G", edge)])
        assert engine.stats.adom_size == 0
        assert engine.consistent_with_scratch()

    def test_support_probes_compile_once_per_pass(self, monkeypatch):
        import sys

        from repro.semantics import plan as plan_module

        engine = DifferentialEngine(tc_program(), graph_database(self.LADDER))
        # The first delete builds the component's probes and warms the
        # planner's delta variants for this delete.
        engine.delete([("G", ("a", "m1"))])
        engine.insert([("G", ("a", "m1"))])
        (comp,) = engine._components
        probes = comp.probes
        assert sorted(probes) == ["T"] and len(probes["T"]) == 2

        original = plan_module.plan_for
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[0], kwargs.get("bound", ())))
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(module, "plan_for", None) is original):
                monkeypatch.setattr(module, "plan_for", counted)
        checks_before = engine.stats.differential["support_checks"]
        engine.delete([("G", ("a", "m1"))])
        checks = engine.stats.differential["support_checks"] - checks_before
        assert checks >= 20
        # A later delete reuses the kept probes: no bound plan is looked
        # up, and the component keeps the same probe objects.
        assert [call for call in calls if call[1]] == []
        assert comp.probes is probes
        assert engine.consistent_with_scratch()

    def test_support_probe_orders_with_head_variables_bound(self):
        # x is seeded from the head, so moves(x, y) is one keyed probe
        # and lost(y) a membership test.  Ordered as if nothing were
        # bound, the smaller lost(y) would run first, and one check
        # would probe moves once per lost fact to find one derivation.
        rule = parse_program("win(x) :- moves(x, y), lost(y).").rules[0]
        db = Database({
            "moves": chain(400),
            "lost": [(f"n{i}",) for i in range(0, 400, 2)],
        })
        probe = _SupportProbe(rule, db)
        assert probe.plan.order == (0, 1)
        kernel = probe.plan.compiled().kernel("count_full")
        assert "chain_index((0,))" in kernel.source  # moves keyed by x
        assert probe.counts(db, (), [("n1",), ("n2",), ("n399",)]) == [
            1, 0, 0
        ]

    @pytest.mark.parametrize("program", [MIXED, TWO_HOP],
                             ids=["mixed", "two-hop"])
    def test_probe_plans_have_no_unbound_slots(self, program):
        engine = DifferentialEngine(program, graph_database(self.LADDER))
        engine.insert([("G", ("c9", "a")), ("G", ("b", "m1"))])
        engine.delete([("G", ("a", "m1")), ("G", ("c3", "c4"))])
        plans = compiled_plans(program)
        assert any(plan.bound for plan in plans)  # the probes' plans
        assert all(plan.unbound_slots == () for plan in plans)
        assert engine.consistent_with_scratch()


def compiled_plans(program):
    """Every cached plan for the program's rules."""
    return [plan for rule in program.rules for plan in cached_plans(rule)]


def stream_step(rng, engine_or_view, edb_schema, constants):
    """One random operation against a view; returns nothing.

    Exercises the documented edges on purpose: empty batches,
    duplicate inserts, and deletes of absent facts.
    """
    roll = rng.random()
    if roll < 0.05 and hasattr(engine_or_view, "apply"):
        engine_or_view.apply(DiffBatch())
        return
    facts = []
    for _ in range(rng.randint(1, 3)):
        relation = rng.choice(sorted(edb_schema))
        values = tuple(
            rng.choice(constants) for _ in range(edb_schema[relation])
        )
        facts.append((relation, values))
    if roll < 0.5:
        engine_or_view.insert(facts)
    else:
        engine_or_view.delete(facts)


EDGE_NODES = [f"n{i}" for i in range(5)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "make_view",
    [
        lambda p, b: DifferentialEngine(p, b),
        lambda p, b: MaterializedView(p, b),
    ],
    ids=["engine", "materialized"],
)
def test_recursive_stream_differential(seed, make_view):
    """Insert/delete streams on TC: view == scratch after *every* op."""
    rng = random.Random(seed)
    start = [
        (rng.choice(EDGE_NODES), rng.choice(EDGE_NODES)) for _ in range(6)
    ]
    view = make_view(tc_program(), graph_database(start))
    for _ in range(12):
        stream_step(rng, view, {"G": 2}, EDGE_NODES)
        assert view_answers(view) == scratch_answers(view)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "make_view",
    [
        lambda p, b: DifferentialEngine(p, b),
        lambda p, b: CountingView(p, b),
    ],
    ids=["engine", "counting"],
)
def test_nonrecursive_stream_differential(seed, make_view):
    """Insert/delete streams on TWO_HOP: view == scratch after every op."""
    rng = random.Random(seed)
    start = [
        (rng.choice(EDGE_NODES), rng.choice(EDGE_NODES)) for _ in range(5)
    ]
    view = make_view(TWO_HOP, Database({"G": start}))
    for _ in range(12):
        stream_step(rng, view, {"G": 2}, EDGE_NODES)
        assert view_answers(view) == scratch_answers(view)


@pytest.mark.parametrize("seed", range(50))
def test_random_program_stream_differential(seed):
    """The acceptance spine: 50 random programs, random insert/delete
    streams, engine answers equal from-scratch semi-naive evaluation
    after every update.  The generator recurses through the IDB, so
    both recursive and nonrecursive components are exercised across
    the seeds."""
    rng = random.Random(seed)
    source, db = random_program_and_database(rng)
    program = parse_program(source, name=f"stream-{seed}")
    engine = DifferentialEngine(program, db)
    assert view_answers(engine) == scratch_answers(engine)

    edb_schema = {rel: program.arity(rel) for rel in program.edb}
    if not edb_schema:
        return  # nothing updatable: ground-rule-only program
    constants = ["a", "b", "c", "d"]
    for _ in range(8):
        stream_step(rng, engine, edb_schema, constants)
        assert view_answers(engine) == scratch_answers(engine), source
    # No adom is passed to the matchers, so no plan may need one.
    for plan in compiled_plans(program):
        assert plan.unbound_slots == (), (source, plan.rule)


def test_random_programs_cover_both_strategies():
    """Sanity: across the 50 stream seeds, the generator produces both
    recursive and nonrecursive (counted) components."""
    kinds = set()
    for seed in range(50):
        rng = random.Random(seed)
        source, db = random_program_and_database(rng)
        program = parse_program(source, name=f"strategies-{seed}")
        engine = DifferentialEngine(program, db)
        for component in engine.stats.differential["components"]:
            kinds.add(component["recursive"])
        if kinds == {True, False}:
            return
    raise AssertionError(f"only saw recursive flags {kinds}")


class TestEngineEquivalence:
    """The engine must subsume both legacy views exactly."""

    def test_matches_materialized_view_reports(self):
        base = graph_database(chain(4))
        engine = DifferentialEngine(tc_program(), base)
        view = MaterializedView(tc_program(), base)
        ops = [
            ("insert", [("G", ("n3", "n0"))]),
            ("delete", [("G", ("n1", "n2"))]),
            ("insert", [("G", ("n1", "n2")), ("G", ("n0", "n2"))]),
        ]
        for op, facts in ops:
            report_e = getattr(engine, op)(facts).report
            report_v = getattr(view, op)(facts)
            assert report_e.inserted == report_v.inserted
            assert report_e.deleted == report_v.deleted
            assert view_answers(engine) == view_answers(view)

    def test_matches_counting_view_counts(self):
        base = Database(
            {"G": [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]}
        )
        engine = DifferentialEngine(TWO_HOP, base)
        view = CountingView(TWO_HOP, base)
        assert engine.counts == view.counts
        engine.delete([("G", ("a", "b"))])
        view.delete([("G", ("a", "b"))])
        assert engine.counts == view.counts
        assert engine.counts[("hop2", ("a", "c"))] == 1
