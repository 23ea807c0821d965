"""Regression tests: incremental index maintenance and empty relations.

The seed implementation dropped every cached index on every mutation
(rebuild-on-next-probe), and silently ignored ``Database({"G": []})``.
These tests pin the fixed behavior: chain indexes — the one index kind
a relation keeps — are maintained in place and stay consistent with
the tuple set, and explicitly-empty relations are either registered
(``(name, arity)`` key) or deferred with a clear error on first
ambiguous use.
"""

import pytest

from repro.errors import SchemaError
from repro.relational.instance import Database, Relation


def assert_chain_consistent(rel: Relation, order: tuple[int, ...]):
    """The live chain must equal a from-scratch build: the same trie
    and the same per-depth distinct-key counts."""
    fresh = Relation(rel.name, rel.arity, rel.tuples())
    assert rel.chain_index(order) == fresh.chain_index(order)
    for depth in range(1, len(order) + 1):
        positions = frozenset(order[:depth])
        assert rel.distinct_estimate(positions) == (
            fresh.distinct_estimate(positions)
        )


SEED = [("a", "p", 1), ("a", "q", 2), ("b", "p", 3), ("c", "r", 4)]


def _add(rel):
    rel.add(("a", "s", 5))
    rel.add(("d", "p", 6))
    return rel


def _add_batch(rel):
    rel.add_batch([("a", "s", 5), ("a", "p", 1), ("d", "p", 6)])
    return rel


def _discard(rel):
    for t in SEED[:3]:
        rel.discard(t)
    return rel


def _replace_patch(rel):
    rel.replace([*SEED[1:], ("e", "p", 7)])  # diff of 2 vs size 4
    return rel


def _replace_rebuild(rel):
    rel.replace([("x", "y", 8), ("x", "z", 9)])  # nothing in common
    return rel


def _clear(rel):
    rel.clear()
    rel.add(("z", "z", 0))
    return rel


#: Each mutation, applied to a relation holding SEED with one live
#: chain; returns the relation whose chain is then checked (``copy``
#: checks the clone).
OPERATIONS = {
    "add": _add,
    "add_batch": _add_batch,
    "discard": _discard,
    "replace_patch": _replace_patch,
    "replace_rebuild": _replace_rebuild,
    "clear": _clear,
    "copy": Relation.copy,
}


class TestChainConsistency:
    @pytest.mark.parametrize("order", [(0,), (2, 0)],
                             ids=["identity", "multi_column"])
    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_live_chain_equals_fresh_build(self, operation, order):
        rel = Relation("R", 3, SEED)
        rel.chain_index(order)
        checked = OPERATIONS[operation](rel)
        # Every operation maintains the chain in place, except a
        # wholesale replace, which drops it for a lazy rebuild.
        assert checked.live_indexes() == (
            [] if operation == "replace_rebuild" else [order]
        )
        assert_chain_consistent(checked, order)


class TestIncrementalIndexes:
    def test_add_updates_index_in_place(self):
        rel = Relation("R", 2, [("a", "b"), ("a", "c")])
        first = rel.chain_index((0,))
        assert rel.index_builds == 1
        rel.add(("b", "d"))
        rel.add(("a", "e"))
        assert rel.chain_index((0,)) is first  # same live trie, no rebuild
        assert rel.index_builds == 1
        assert rel.index_updates == 2

    def test_discard_updates_index_and_prunes_empty_buckets(self):
        rel = Relation("R", 2, [("a", "b"), ("b", "c")])
        rel.chain_index((0,))
        rel.discard(("b", "c"))
        assert "b" not in rel.chain_index((0,))
        assert rel.index_builds == 1

    def test_multiple_indexes_maintained_together(self):
        rel = Relation("R", 3, [("a", "b", "c")])
        rel.chain_index((0,))
        rel.chain_index((1, 2))
        rel.add(("a", "x", "y"))
        rel.discard(("a", "b", "c"))
        assert rel.index_builds == 2
        assert rel.index_updates == 4  # two mutations, two chains each
        assert_chain_consistent(rel, (0,))
        assert_chain_consistent(rel, (1, 2))

    def test_clear_keeps_indexes_live(self):
        rel = Relation("R", 2, [("a", "b")])
        root = rel.chain_index((1,))
        rel.clear()
        assert root == {}
        rel.add(("c", "d"))
        assert rel.chain_index((1,)) is root
        assert rel.index_builds == 1

    def test_replace_small_diff_patches_in_place(self):
        rel = Relation("R", 1, [("a",), ("b",), ("c",)])
        root = rel.chain_index((0,))
        rel.replace([("a",), ("b",), ("d",)])  # diff of 2 vs size 3
        assert rel.chain_index((0,)) is root
        assert rel.index_builds == 1

    def test_replace_wholesale_rebuilds_lazily(self):
        rel = Relation("R", 1, [("a",), ("b",)])
        rel.chain_index((0,))
        rel.replace([("x",), ("y",), ("z",)])  # nothing in common
        assert rel.live_indexes() == []
        rel.chain_index((0,))
        assert rel.index_builds == 2

    def test_copy_carries_independent_live_indexes(self):
        rel = Relation("R", 2, [("a", "b")])
        rel.chain_index((0,))
        clone = rel.copy()
        clone.add(("c", "d"))
        assert clone.index_builds == 0  # inherited, never rebuilt
        assert "c" in clone.chain_index((0,))
        assert "c" not in rel.chain_index((0,))  # original unaffected

    def test_live_indexes_equal_fresh_builds_on_a_copy(self):
        rel = Relation("R", 2, [("a", i) for i in range(6)])
        for order in ((0,), (1,), (0, 1)):
            rel.chain_index(order)
        for i in range(6, 18):
            rel.add(("bc"[i % 2], i))
        for i in range(0, 18, 4):
            rel.discard(("a" if i < 6 else "bc"[i % 2], i))
        # Every change above was an in-place update, no rebuild.
        assert rel.index_builds == 3
        fresh = Relation("R", 2, rel.tuples())
        for order in ((0,), (1,), (0, 1)):
            assert rel.chain_index(order) == fresh.chain_index(order)
        for positions in ({0}, {1}, {0, 1}):
            assert rel.distinct_estimate(frozenset(positions)) == (
                fresh.distinct_estimate(frozenset(positions))
            )

    def test_database_index_counters_sum_relations(self):
        db = Database({"R": [("a",)], "S": [("b", "c")]})
        db.relation("R").chain_index((0,))
        db.relation("S").chain_index((1,))
        db.add_fact("R", ("d",))
        db.relation("S").drop_chain_index((1,))
        assert db.index_totals() == (2, 1, 1)


class TestEmptyRelations:
    def test_tuple_key_registers_empty_relation(self):
        db = Database({("G", 2): []})
        assert "G" in db
        assert db.relation("G").arity == 2
        assert db.schema().arity("G") == 2

    def test_plain_key_defers_empty_relation(self):
        db = Database({"G": []})
        assert "G" in db
        assert "G" in db.relation_names()
        assert db.tuples("G") == frozenset()

    def test_deferred_relation_schema_raises(self):
        db = Database({"G": []})
        with pytest.raises(SchemaError, match="G"):
            db.schema()

    def test_deferred_resolved_by_first_fact(self):
        db = Database({"G": []})
        db.add_fact("G", ("a", "b"))
        assert db.schema().arity("G") == 2
        assert db.relation_names() == ["G"]

    def test_deferred_resolved_by_ensure_relation(self):
        db = Database({"G": []})
        db.ensure_relation("G", 3)
        assert db.schema().arity("G") == 3

    def test_copy_restrict_drop_preserve_deferred(self):
        db = Database({"G": [], "R": [("a",)]})
        assert "G" in db.copy()
        assert "G" in db.restrict(["G"]).relation_names()
        db.drop("G")
        assert "G" not in db

    def test_mixed_keys(self):
        db = Database({("E", 2): [("a", "b")], "F": [("c",)], ("G", 1): []})
        assert db.tuples("E") == {("a", "b")}
        assert db.tuples("F") == {("c",)}
        assert db.schema().arity("G") == 1
