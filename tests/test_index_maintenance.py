"""Regression tests: incremental index maintenance and empty relations.

The seed implementation dropped every cached index on every mutation
(rebuild-on-next-probe), and silently ignored ``Database({"G": []})``.
These tests pin the fixed behavior: chain indexes — the one index kind
a relation keeps — are maintained in place and stay consistent with
the tuple set, and explicitly-empty relations are either registered
(``(name, arity)`` key) or deferred with a clear error on first
ambiguous use.
"""

import random

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
        prefixes = {tuple(t[p] for p in order[:depth]) for t in rel}
        assert rel.distinct_estimate(positions) == len(prefixes) == (
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


def _discard_batch(rel):
    rel.discard_batch([*SEED[:3], ("z", "z", 0), SEED[0]])
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
    "discard_batch": _discard_batch,
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


def ordered(node: dict, depth: int) -> list:
    """A chain trie as nested item lists: key and bucket order count."""
    if depth == 0:
        return list(node)
    return [(key, ordered(child, depth - 1)) for key, child in node.items()]


class TestAddBatchThreading:
    """``add_batch`` threads its new rows into each live chain with one
    loop per chain; the chains must come out as one ``add`` per row
    leaves them."""

    #: A depth-1 chain, a two-column one, and one probed by prefix.
    CHAINS = [(0,), (1, 2), (2, 0, 1)]

    def test_add_batch_equals_row_by_row_add(self):
        seed = [(f"a{i % 3}", f"b{i % 4}", i % 5) for i in range(12)]
        # New rows over new and known keys, rows already present, and a
        # new row given twice.
        rows = [(f"a{i % 4}", f"b{i % 6}", i % 7) for i in range(40)]
        rows = list(dict.fromkeys(rows)) + seed[:4]
        rows.insert(len(rows) // 2, rows[3])
        batched, stepped = Relation("R", 3, seed), Relation("R", 3, seed)
        for rel in (batched, stepped):
            for order in self.CHAINS:
                rel.chain_index(order)
        fresh = batched.add_batch(rows)
        assert fresh == [t for t in rows if stepped.add(t)]
        assert len(fresh) > len(rows) // 2
        assert batched.index_updates == stepped.index_updates == (
            len(fresh) * len(self.CHAINS)
        )
        for order in self.CHAINS:
            assert ordered(batched.chain_index(order), len(order)) == (
                ordered(stepped.chain_index(order), len(order))
            )
            for depth in range(1, len(order) + 1):
                positions = frozenset(order[:depth])
                assert batched.distinct_estimate(positions) == (
                    stepped.distinct_estimate(positions)
                )
            assert_chain_consistent(batched, order)
        for key in {(t[2],) for t in rows}:
            assert batched.probe_chain((2, 0, 1), 1, key) == (
                stepped.probe_chain((2, 0, 1), 1, key)
            )
        assert batched.index_builds == stepped.index_builds == 3


class TestDiscardBatchThreading:
    """``discard_batch`` takes its present rows out of each live chain
    with one loop per chain; the chains must come out as one
    ``discard`` per row leaves them."""

    CHAINS = TestAddBatchThreading.CHAINS

    def test_discard_batch_equals_row_by_row_discard(self):
        seed = [(f"a{i % 4}", f"b{i % 6}", i % 7) for i in range(40)]
        # Rows that empty whole buckets and subtries, rows that leave
        # their bucket behind, absent rows, and a row given twice.
        rows = [t for t in seed if t[0] == "a1"] + seed[::3]
        rows += [("a9", "b0", 0), ("a1", "b9", 1)]
        rows.insert(len(rows) // 2, rows[2])
        batched, stepped = Relation("R", 3, seed), Relation("R", 3, seed)
        for rel in (batched, stepped):
            for order in self.CHAINS:
                rel.chain_index(order)
        gone = batched.discard_batch(rows)
        assert gone == [t for t in rows if stepped.discard(t)]
        assert 0 < len(gone) < len(rows) - 2
        assert batched.tuples() == stepped.tuples()
        assert batched.index_updates == stepped.index_updates == (
            len(gone) * len(self.CHAINS)
        )
        for order in self.CHAINS:
            assert ordered(batched.chain_index(order), len(order)) == (
                ordered(stepped.chain_index(order), len(order))
            )
            for depth in range(1, len(order) + 1):
                positions = frozenset(order[:depth])
                assert batched.distinct_estimate(positions) == (
                    stepped.distinct_estimate(positions)
                )
            assert_chain_consistent(batched, order)
        assert "a1" not in batched.chain_index((0,))
        for key in {(t[2],) for t in seed}:
            assert batched.probe_chain((2, 0, 1), 1, key) == (
                stepped.probe_chain((2, 0, 1), 1, key)
            )
        assert batched.index_builds == stepped.index_builds == 3
        assert batched.discard_batch(rows) == []
        assert batched.index_updates == stepped.index_updates


class TestUpdateIsAtomic:
    def test_bad_arity_leaves_the_relation_unchanged(self):
        db = Database({"G": [(1, 2), (3, 4)]})
        rel = db.relation("G")
        rel.chain_index((0,))
        before, updates = rel.tuples(), rel.index_updates
        with pytest.raises(SchemaError):
            rel.update([(7, 8), (9,)])
        assert rel.tuples() == before
        assert rel.index_updates == updates
        assert_chain_consistent(rel, (0,))

    def test_update_threads_new_rows_as_add_batch_does(self):
        seed = [(i % 3, i) for i in range(6)]
        rows = [[i % 4, i] for i in range(3, 12)] + [[0, 3]]
        updated, batched = Relation("R", 2, seed), Relation("R", 2, seed)
        for rel in (updated, batched):
            rel.chain_index((0,))
        assert updated.update(rows) == len(
            batched.add_batch([tuple(t) for t in rows])
        ) == 9
        assert ordered(updated.chain_index((0,)), 1) == (
            ordered(batched.chain_index((0,)), 1)
        )
        assert updated.index_updates == batched.index_updates == 9


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


def walked_totals(db: Database) -> tuple[int, int, int]:
    """(builds, updates, drops) by a walk over the names, each name
    counting its relation once (an attached relation once per name)."""
    totals = [0, 0, 0]
    for name in db.relation_names():
        rel = db.relation(name)
        if rel is not None:
            totals[0] += rel.index_builds
            totals[1] += rel.index_updates
            totals[2] += rel.index_drops
    return tuple(totals)


class TestPushedTotals:
    """Relations push their counter moves to every database name that
    holds them; ``index_totals`` must read what a walk would count."""

    ORDERS = [(0,), (1,), (0, 1), (1, 0)]

    def row(self, rng):
        return (rng.randrange(5), rng.randrange(5))

    def step(self, rng, dbs: list[Database], fresh_names) -> None:
        db = rng.choice(dbs)
        names = [n for n in db.relation_names() if db.relation(n)]
        op = rng.choice([
            "add", "discard", "add_batch", "discard_batch", "build",
            "drop_chain", "clear", "replace", "copy", "restrict", "attach",
            "drop", "new",
        ])
        if op == "new" or not names:
            db.ensure_relation(next(fresh_names), 2).update(
                self.row(rng) for _ in range(rng.randrange(4))
            )
            return
        rel = db.relation(rng.choice(names))
        if op == "add":
            rel.add(self.row(rng))
        elif op == "discard":
            rel.discard(rng.choice(sorted(rel)) if rel and rng.random() < 0.8
                        else self.row(rng))
        elif op == "add_batch":
            rows = [self.row(rng) for _ in range(rng.randrange(1, 6))]
            rel.add_batch(rows + rows[:rng.randrange(3)])
        elif op == "discard_batch":
            rows = rng.sample(sorted(rel), rng.randrange(len(rel) + 1))
            rows += [self.row(rng) for _ in range(rng.randrange(3))]
            rel.discard_batch(rows + rows[:rng.randrange(3)])
        elif op == "build":
            rel.chain_index(rng.choice(self.ORDERS))
        elif op == "drop_chain":
            rel.drop_chain_index(rng.choice(self.ORDERS))
        elif op == "clear":
            rel.clear()
        elif op == "replace":
            rel.replace({self.row(rng) for _ in range(rng.randrange(8))})
        elif op == "copy":
            clone = db.copy()
            assert clone.index_totals() == (0, 0, 0)
            dbs.append(clone)
        elif op == "restrict":
            clone = db.restrict(rng.sample(names, rng.randrange(len(names))))
            assert clone.index_totals() == (0, 0, 0)
            dbs.append(clone)
        elif op == "attach":
            rng.choice(dbs).attach(next(fresh_names), rel)
        else:
            db.drop(rng.choice(names))

    @pytest.mark.parametrize("seed", range(25))
    def test_totals_equal_a_walk(self, seed):
        rng = random.Random(seed)
        fresh_names = (f"R{i}" for i in range(10**6))
        dbs = [Database({"G": [(0, 1), (1, 2)]})]
        for _ in range(150):
            self.step(rng, dbs, fresh_names)
            for db in dbs:
                assert db.index_totals() == walked_totals(db)
        assert sum(sum(walked_totals(db)) for db in dbs) > 0

    def test_attached_relation_counts_once_per_name(self):
        db = Database({"R": [(1, 2)]})
        rel = db.relation("R")
        db.attach("S", rel)
        other = Database()
        other.attach("T", rel)
        rel.chain_index((0,))
        rel.add((3, 4))
        assert db.index_totals() == (2, 2, 0)
        assert other.index_totals() == (1, 1, 0)
        db.drop("S")
        assert db.index_totals() == (1, 1, 0)
        rel.drop_chain_index((0,))
        assert db.index_totals() == other.index_totals() == (1, 1, 1)


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
