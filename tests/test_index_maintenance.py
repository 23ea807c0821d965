"""Regression tests: incremental index maintenance and empty relations.

The seed implementation dropped every cached index on every mutation
(rebuild-on-next-probe), and silently ignored ``Database({"G": []})``.
These tests pin the fixed behavior: indexes are maintained in place and
stay consistent with the tuple set, and explicitly-empty relations are
either registered (``(name, arity)`` key) or deferred with a clear
error on first ambiguous use.
"""

import pytest

from repro.errors import SchemaError
from repro.relational.instance import Database, Relation


def assert_index_consistent(rel: Relation, positions: tuple[int, ...]):
    """The live index must equal a from-scratch reconstruction."""
    expected: dict[tuple, set] = {}
    for t in rel:
        expected.setdefault(tuple(t[p] for p in positions), set()).add(t)
    live = rel.index(positions)
    assert {k: set(v) for k, v in live.items()} == expected


class TestIncrementalIndexes:
    def test_add_updates_index_in_place(self):
        rel = Relation("R", 2, [("a", "b"), ("a", "c")])
        first = rel.index((0,))
        assert rel.index_builds == 1
        rel.add(("b", "d"))
        rel.add(("a", "e"))
        assert rel.index((0,)) is first  # same live dict, no rebuild
        assert rel.index_builds == 1
        assert rel.index_updates == 2
        assert_index_consistent(rel, (0,))

    def test_discard_updates_index_and_prunes_empty_buckets(self):
        rel = Relation("R", 2, [("a", "b"), ("b", "c")])
        rel.index((0,))
        rel.discard(("b", "c"))
        assert ("b",) not in rel.index((0,))
        assert rel.index_builds == 1
        assert_index_consistent(rel, (0,))

    def test_multiple_indexes_maintained_together(self):
        rel = Relation("R", 3, [("a", "b", "c")])
        rel.index((0,))
        rel.index((1, 2))
        rel.add(("a", "x", "y"))
        rel.discard(("a", "b", "c"))
        assert rel.index_builds == 2
        assert_index_consistent(rel, (0,))
        assert_index_consistent(rel, (1, 2))

    def test_version_bumps_on_every_mutation(self):
        rel = Relation("R", 1)
        v0 = rel.version
        rel.add(("a",))
        rel.add(("a",))  # duplicate: no mutation
        rel.discard(("a",))
        rel.discard(("a",))  # absent: no mutation
        assert rel.version == v0 + 2

    def test_clear_keeps_indexes_live(self):
        rel = Relation("R", 2, [("a", "b")])
        table = rel.index((1,))
        rel.clear()
        assert table == {}
        rel.add(("c", "d"))
        assert rel.index((1,)) is table
        assert rel.index_builds == 1
        assert_index_consistent(rel, (1,))

    def test_replace_small_diff_patches_in_place(self):
        rel = Relation("R", 1, [("a",), ("b",), ("c",)])
        table = rel.index((0,))
        rel.replace([("a",), ("b",), ("d",)])  # diff of 2 vs size 3
        assert rel.index((0,)) is table
        assert rel.index_builds == 1
        assert_index_consistent(rel, (0,))

    def test_replace_wholesale_rebuilds_lazily(self):
        rel = Relation("R", 1, [("a",), ("b",)])
        rel.index((0,))
        rel.replace([("x",), ("y",), ("z",)])  # nothing in common
        assert_index_consistent(rel, (0,))
        assert rel.index_builds == 2

    def test_copy_carries_independent_live_indexes(self):
        rel = Relation("R", 2, [("a", "b")])
        rel.index((0,))
        clone = rel.copy()
        clone.add(("c", "d"))
        assert clone.index_builds == 0  # inherited, never rebuilt
        assert_index_consistent(clone, (0,))
        assert ("c",) not in rel.index((0,))  # original unaffected

    def test_live_indexes_equal_fresh_builds_on_a_copy(self):
        rel = Relation("R", 2, [("a", i) for i in range(6)])
        rel.index((0,))
        rel.index((1,))
        rel.chain_index((0, 1))
        for i in range(6, 18):
            rel.add(("bc"[i % 2], i))
        for i in range(0, 18, 4):
            rel.discard(("a" if i < 6 else "bc"[i % 2], i))
        # Every change above was an in-place update, no rebuild.
        assert rel.index_builds == 3
        fresh = Relation("R", 2, rel.tuples())
        for positions in ((0,), (1,)):
            assert {k: set(b) for k, b in rel.index(positions).items()} == {
                k: set(b) for k, b in fresh.index(positions).items()
            }
        for key in {t[:1] for t in rel.tuples()}:
            assert sorted(rel.probe_chain((0, 1), 1, key)) == sorted(
                fresh.probe_chain((0, 1), 1, key)
            )
        for depth in (1, 2):
            assert rel.chain_key_count((0, 1), depth) == (
                fresh.chain_key_count((0, 1), depth)
            )

    def test_database_index_counters_sum_relations(self):
        db = Database({"R": [("a",)], "S": [("b", "c")]})
        db.relation("R").index((0,))
        db.relation("S").index((1,))
        db.add_fact("R", ("d",))
        assert db.index_counters() == (2, 1)


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
