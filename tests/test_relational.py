"""Unit tests for schemas, relations, and databases."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.instance import Database, Relation


class TestRelationSchema:
    def test_default_attributes(self):
        schema = RelationSchema("R", 3)
        assert schema.attributes == ("col0", "col1", "col2")

    def test_explicit_attributes(self):
        schema = RelationSchema("R", 2, ("a", "b"))
        assert schema.attributes == ("a", "b")

    def test_attribute_count_mismatch(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", 2, ("a",))

    def test_duplicate_attributes(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", 2, ("a", "a"))

    def test_negative_arity(self):
        with pytest.raises(SchemaError):
            RelationSchema("R", -1)

    def test_empty_name(self):
        with pytest.raises(SchemaError):
            RelationSchema("", 1)


class TestDatabaseSchema:
    def test_add_and_lookup(self):
        schema = DatabaseSchema([RelationSchema("R", 2)])
        assert "R" in schema
        assert schema.arity("R") == 2

    def test_conflicting_arity_rejected(self):
        schema = DatabaseSchema([RelationSchema("R", 2)])
        with pytest.raises(SchemaError):
            schema.add(RelationSchema("R", 3))

    def test_unknown_relation(self):
        with pytest.raises(SchemaError):
            DatabaseSchema()["missing"]

    def test_merge(self):
        a = DatabaseSchema([RelationSchema("R", 1)])
        b = DatabaseSchema([RelationSchema("S", 2)])
        merged = a.merge(b)
        assert set(merged.names()) == {"R", "S"}

    def test_restrict(self):
        schema = DatabaseSchema([RelationSchema("R", 1), RelationSchema("S", 2)])
        assert schema.restrict(["S"]).names() == ["S"]


class TestRelation:
    def test_add_returns_new_flag(self):
        rel = Relation("R", 2)
        assert rel.add(("a", "b")) is True
        assert rel.add(("a", "b")) is False
        assert len(rel) == 1

    def test_arity_enforced(self):
        rel = Relation("R", 2)
        with pytest.raises(SchemaError):
            rel.add(("a",))

    def test_discard(self):
        rel = Relation("R", 1, [("a",)])
        assert rel.discard(("a",)) is True
        assert rel.discard(("a",)) is False
        assert len(rel) == 0

    def test_replace(self):
        rel = Relation("R", 1, [("a",)])
        rel.replace([("b",), ("c",)])
        assert rel.tuples() == frozenset({("b",), ("c",)})

    def test_index_lookup(self):
        rel = Relation("R", 2, [("a", "b"), ("a", "c"), ("x", "y")])
        trie = rel.chain_index((0,))
        assert sorted(trie["a"]) == [("a", "b"), ("a", "c")]
        assert "z" not in trie

    def test_index_invalidated_on_mutation(self):
        rel = Relation("R", 2, [("a", "b")])
        trie = rel.chain_index((0,))
        assert "a" in trie
        rel.add(("a", "c"))
        assert len(rel.chain_index((0,))["a"]) == 2

    def test_values(self):
        rel = Relation("R", 2, [("a", "b")])
        assert rel.values() == {"a", "b"}

    def test_copy_is_independent(self):
        rel = Relation("R", 1, [("a",)])
        clone = rel.copy()
        clone.add(("b",))
        assert len(rel) == 1


class TestDatabase:
    def test_construct_from_dict(self):
        db = Database({"G": [("a", "b")], "P": [("x",)]})
        assert db.has_fact("G", ("a", "b"))
        assert db.tuples("P") == frozenset({("x",)})

    def test_missing_relation_is_empty(self):
        db = Database()
        assert db.tuples("nope") == frozenset()
        assert not db.has_fact("nope", ("a",))

    def test_ensure_relation_arity_conflict(self):
        db = Database({"R": [("a",)]})
        with pytest.raises(SchemaError):
            db.ensure_relation("R", 2)

    def test_add_remove_fact(self):
        db = Database()
        assert db.add_fact("R", ("a",)) is True
        assert db.add_fact("R", ("a",)) is False
        assert db.remove_fact("R", ("a",)) is True
        assert db.remove_fact("R", ("a",)) is False

    def test_active_domain(self):
        db = Database({"G": [("a", "b")], "P": [(3,)]})
        assert db.active_domain() == {"a", "b", 3}

    def test_copy_independent(self):
        db = Database({"R": [("a",)]})
        clone = db.copy()
        clone.add_fact("R", ("b",))
        assert db.tuples("R") == frozenset({("a",)})

    def test_attach_shares_the_relation(self):
        source = Database({"R": [("a",)]})
        db = Database({"S": [("b",)]})
        shared = db.attach("R_alias", source.relation("R"))
        assert db.relation("R_alias") is shared is source.relation("R")
        source.add_fact("R", ("c",))
        assert db.tuples("R_alias") == frozenset({("a",), ("c",)})
        with pytest.raises(SchemaError):
            db.attach("S", shared)

    def test_canonical_equality(self):
        a = Database({"R": [("a",), ("b",)]})
        b = Database({"R": [("b",), ("a",)]})
        assert a == b
        assert a.canonical() == b.canonical()

    def test_facts_roundtrip(self):
        db = Database({"R": [("a",)], "S": [("b", "c")]})
        assert Database.from_facts(db.facts()) == db

    def test_restrict(self):
        db = Database({"R": [("a",)], "S": [("b", "c")]})
        restricted = db.restrict(["S"])
        assert restricted.relation_names() == ["S"]

    def test_fact_count(self):
        db = Database({"R": [("a",), ("b",)], "S": [("c", "d")]})
        assert db.fact_count() == 3

    def test_pretty_is_deterministic(self):
        db = Database({"R": [("b",), ("a",)]})
        assert db.pretty() == "R = {(a), (b)}"
