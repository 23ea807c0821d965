"""Batch execution: the pieces under the kernels.

:mod:`tests.test_codegen` pins the production matcher end-to-end
(answer parity with the reference matcher, seeded replays).  This
module tests the parts it is built from: delta blocks, the bulk
relation mutators the batch drivers use (``add_batch``/``live_set``),
the live-vs-snapshot contract of chain probes at full and prefix
depth, chain-count maintenance under heavy ``discard`` (the
noninflationary engines' skewed-bucket pattern), the shape of the
emitted batch kernels, and the explicit ``add_only`` argument that
lets them drop known heads.
"""

import pytest

from repro.errors import SchemaError
from repro.parser import parse_program
from repro.relational.instance import Database, Relation
from repro.obs import CollectorSink, Tracer
from repro.semantics.base import evaluation_adom, immediate_consequences
from repro.semantics.codegen import CodegenPlan
from repro.semantics.differential import DifferentialEngine
from repro.semantics.plan import DeltaBlock, make_delta, plan_for
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.workloads.graphs import chain, graph_database

TC_NONLINEAR = "T(x, y) :- G(x, y).\nT(x, y) :- T(x, z), T(z, y).\n"


class TestDeltaBlock:

    def test_iterates_in_frozenset_enumeration_order(self):
        facts = frozenset((i, i + 1) for i in range(20))
        block = DeltaBlock(facts)
        # The contract that keeps seeded engines byte-identical under a
        # tier flip: the block is a drop-in for the frozenset it wraps.
        assert list(block) == list(facts)
        assert block.rows == tuple(facts)
        assert len(block) == 20 and block
        assert (0, 1) in block and (1, 0) not in block

    def test_empty_block(self):
        block = DeltaBlock(frozenset())
        assert not block and len(block) == 0
        assert list(block) == []


class TestAddBatch:

    def test_returns_fresh_in_input_order(self):
        rel = Relation("R", 2, [(1, 2)])
        fresh = rel.add_batch([(3, 4), (1, 2), (5, 6), (3, 4)])
        # Duplicates against the relation and within the batch are
        # filtered; each new tuple comes back once, in the order the
        # batch first gives it (the absorb path feeds trace.new_facts
        # from this).
        assert fresh == [(3, 4), (5, 6)]
        assert set(rel) == {(1, 2), (3, 4), (5, 6)}

    def test_arity_mismatch_raises(self):
        rel = Relation("R", 2)
        with pytest.raises(SchemaError):
            rel.add_batch([(1, 2), (3,)])


class TestLiveSet:

    def test_is_the_live_set_not_a_copy(self):
        rel = Relation("R", 1, [(1,)])
        live = rel.live_set()
        snapshot = rel.tuples()
        rel.add((2,))
        assert (2,) in live  # zero-copy view tracks mutation
        assert (2,) not in snapshot  # frozenset snapshot does not


class TestChainProbeSemantics:
    """``probe_chain`` under mutation: a full-depth probe returns the
    live bucket, a prefix probe a fresh list."""

    def _rel(self):
        return Relation("R", 2, [(1, 2), (1, 3), (4, 5)])

    def test_probe_chain_is_a_snapshot(self):
        rel = self._rel()
        bucket = rel.probe_chain((0, 1), 1, (1,))  # a prefix probe
        assert sorted(bucket) == [(1, 2), (1, 3)]
        rel.add((1, 9))
        rel.discard((1, 2))
        # The snapshot is immune to the mutations...
        assert sorted(bucket) == [(1, 2), (1, 3)]
        # ...while a fresh probe sees them.
        assert sorted(rel.probe_chain((0, 1), 1, (1,))) == [(1, 3), (1, 9)]

    def test_probe_chain_live_full_depth_tracks_mutation(self):
        rel = self._rel()
        bucket = rel.probe_chain((0, 1), 2, (1, 2))
        assert list(bucket) == [(1, 2)]
        rel.discard((1, 2))
        # Full-depth probes return the bucket itself: the discard is
        # visible.  This is exactly why the fused kernels may not yield
        # control mid-walk, and why the reference matcher snapshots.
        assert list(bucket) == []

    def test_probe_flavors_agree_when_quiescent(self):
        # A prefix probe of a longer chain, a full-depth probe of the
        # identity chain on the same positions, and a filter of the
        # tuple set answer one template alike.
        rel = self._rel()
        for depth, key in ((0, ()), (1, (1,)), (2, (1, 3))):
            expected = sorted(t for t in rel if t[:depth] == key)
            assert sorted(rel.probe_chain((0, 1), depth, key)) == expected
            if depth:
                identity = tuple(range(depth))
                assert sorted(rel.probe_chain(identity, depth, key)) == (
                    expected
                )

    def test_missing_key_is_empty_for_both(self):
        rel = self._rel()
        assert list(rel.probe_chain((0, 1), 1, (99,))) == []
        assert list(rel.probe_chain((0, 1), 2, (1, 99))) == []


class TestChainCountsUnderDiscard:
    """Satellite: count maintenance under the skewed-bucket pattern."""

    def test_heavy_discard_keeps_counts_exact(self):
        # One fat key (0, *) next to singletons — the shape the
        # noninflationary engines carve down tuple by tuple.
        fat = [(0, i) for i in range(50)]
        thin = [(i, 0) for i in range(1, 11)]
        rel = Relation("R", 2, fat + thin)
        rel.chain_index((0, 1))
        depth1, depth2 = frozenset({0}), frozenset({0, 1})
        assert rel.distinct_estimate(depth1) == 11
        assert rel.distinct_estimate(depth2) == 60
        for t in fat[:-1]:
            rel.discard(t)
        # The fat bucket survives with one row; both depths shrank.
        assert rel.distinct_estimate(depth1) == 11
        assert rel.distinct_estimate(depth2) == 11
        rel.discard(fat[-1])
        # Pruning the last row of the key drops the depth-1 node too.
        assert rel.distinct_estimate(depth1) == 10
        # The maintained counts match a from-scratch rebuild.
        rebuilt = Relation("R", 2, rel.tuples())
        rebuilt.chain_index((0, 1))
        for positions in (depth1, depth2):
            assert (rel.distinct_estimate(positions)
                    == rebuilt.distinct_estimate(positions))

    def test_discard_to_empty_and_refill(self):
        rel = Relation("R", 2, [(1, 2), (1, 3)])
        rel.chain_index((0, 1))
        for t in [(1, 2), (1, 3)]:
            rel.discard(t)
        assert rel.distinct_estimate(frozenset({0})) == 0
        rel.add((5, 6))
        assert rel.distinct_estimate(frozenset({0})) == 1
        assert list(rel.probe_chain((0, 1), 2, (5, 6))) == [(5, 6)]


class TestBatchKernelShape:

    def _cg(self):
        program = parse_program(TC_NONLINEAR)
        return plan_for(program.rules[1], (0, 1)).compiled()

    def test_batch_variants_present(self):
        cg = self._cg()
        for name in ("walk_batch_full", "emit_batch_full", "emit_batch_r0"):
            assert f"def {name}(" in cg.kernel(name).source, name
        # Delta passes never take the batch walk: every dialect that
        # runs them rejects rules without a single positive head.
        with pytest.raises(KeyError):
            cg.kernel("walk_batch_r0")

    def test_fused_batch_takes_known_and_subtracts(self):
        emit = self._cg().kernel("emit_batch_r0").source
        # The in-kernel semi-naive difference: the kernel subtracts the
        # head relation's live content before wrapping survivors.
        assert "known" in emit.split("\n")[0]
        assert "difference_update(known)" in emit

    def test_dispatch_floor_falls_back_to_scalar(self):
        # Below BATCH_MIN_ROWS the batch machinery cannot amortize;
        # dispatch must take the scalar fused path instead.
        assert 1 < CodegenPlan.BATCH_MIN_ROWS <= 16

    def test_known_heads_kept_unless_add_only(self):
        # Full consequence sets are the default: active-database
        # trigger steps and noninflationary conflict policies read
        # consequences as "everything derivable".  Only a caller that
        # says ``add_only=True`` lets the batch kernel drop heads the
        # database already holds.
        program = parse_program("T(x, y) :- G(x, y).")
        edges = [(i, i + 1) for i in range(2 * CodegenPlan.BATCH_MIN_ROWS)]
        db = Database({"G": edges, "T": edges[:3]})
        adom = evaluation_adom(program, db)
        delta = {"G": make_delta(edges)}
        full, _neg, fired = immediate_consequences(
            program, db, adom, delta=delta
        )
        assert full == {("T", t) for t in edges}
        new, _neg, fired_add_only = immediate_consequences(
            program, db, adom, delta=delta, add_only=True
        )
        assert new == {("T", t) for t in edges[3:]}
        assert fired_add_only == fired == len(edges)


class TestKernelDifferenceParity:

    def test_subtraction_does_not_change_answers_or_stages(self):
        # One semi-naive loop per setting of ``add_only``: dropping known
        # heads in the kernel changes what each pass returns, never the
        # fixpoint, its stages or its firings.
        program = parse_program(TC_NONLINEAR)
        outcomes = []
        for add_only in (True, False):
            db = graph_database(chain(12))
            db.ensure_relation("T", 2)
            adom = evaluation_adom(program, db)
            delta, stages, firings = None, 0, 0
            while delta is None or delta:
                frozen = None if delta is None else {
                    rel: make_delta(ts) for rel, ts in delta.items()
                }
                positive, _neg, fired = immediate_consequences(
                    program, db, adom, delta=frozen, add_only=add_only
                )
                stages += 1
                firings += fired
                delta = {}
                for relation, t in positive:
                    if db.add_fact(relation, t):
                        delta.setdefault(relation, set()).add(t)
            outcomes.append((db.tuples("T"), stages, firings))
        assert outcomes[0] == outcomes[1]


class TestDifferentialThroughTiers:

    def test_single_update_parity_columnar_vs_interpreted(self):
        # The maintained view (production kernels) against a from-scratch
        # evaluation through the reference matcher (a traced run).
        program = parse_program(TC_NONLINEAR)
        engine = DifferentialEngine(program, graph_database(chain(10)))
        engine.insert([("G", (10, 11))])
        engine.delete([("G", (4, 5))])
        assert engine.consistent_with_scratch()
        base = graph_database(chain(10))
        base.add_fact("G", (10, 11))
        base.remove_fact("G", (4, 5))
        reference = evaluate_datalog_seminaive(
            program, base, tracer=Tracer([CollectorSink()])
        )
        assert reference.stats.matcher == "interpreted"
        assert engine.answer("T") == reference.answer("T")
        assert engine.answer("G") == reference.answer("G")
