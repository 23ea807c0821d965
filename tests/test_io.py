"""Tests for database serialization (facts text, JSON, CSV)."""

import pytest

from repro.errors import ParseError, ReproError, SchemaError
from repro.relational.instance import Database
from repro.relational.io import (
    database_from_json,
    database_to_json,
    facts_from_text,
    facts_to_text,
    relation_from_csv_text,
    relation_to_csv_text,
)


@pytest.fixture
def db():
    return Database({"G": [("a", "b"), ("b", "c")], "N": [(1,), (2,)]})


class TestFactsText:
    def test_round_trip(self, db):
        assert facts_from_text(facts_to_text(db)) == db

    def test_deterministic_output(self, db):
        assert facts_to_text(db) == facts_to_text(db.copy())

    def test_integer_values(self):
        db = Database({"T": [(0,), (1,)]})
        text = facts_to_text(db)
        assert "T(0)." in text
        assert facts_from_text(text) == db

    def test_quoting_strings(self, db):
        assert "G('a', 'b')." in facts_to_text(db)

    def test_empty_database(self):
        assert facts_to_text(Database()) == ""

    def test_rejects_rules(self):
        with pytest.raises(ReproError):
            facts_from_text("T(x) :- G(x).")

    def test_rejects_variables(self):
        with pytest.raises(ReproError):
            facts_from_text("T(x).")

    def test_rejects_negative_heads(self):
        with pytest.raises(ReproError):
            facts_from_text("!T('a').")

    @pytest.mark.parametrize("text", ["", "  \n\t\n", "% none\n# none\n"])
    def test_blank_and_comment_only_text_is_the_empty_instance(self, text):
        assert facts_from_text(text) == Database()

    def test_tokenizes_once(self, monkeypatch):
        from repro.parser import lexer, parser

        calls = []
        tokenize = lexer.tokenize

        def spy(text):
            calls.append(text)
            return tokenize(text)

        for module in (lexer, parser):
            monkeypatch.setattr(module, "tokenize", spy)
        text = "G('a', 'b').\nG('b', 'c').\n"
        assert facts_from_text(text) == Database(
            {"G": [("a", "b"), ("b", "c")]}
        )
        assert calls == [text]

    @pytest.mark.parametrize("text,line,column", [
        ("G('a', 'b').\nG('b' 'c').", 2, 7),
        ("G('a', 'b').\nG('b',", 2, 7),
        ("G('a')", 1, 7),
    ])
    def test_parse_errors_keep_their_location(self, text, line, column):
        with pytest.raises(ParseError) as caught:
            facts_from_text(text)
        assert (caught.value.line, caught.value.column) == (line, column)

    def test_an_arity_clash_names_its_location(self):
        with pytest.raises(SchemaError) as caught:
            facts_from_text("G('a', 'b').\nG('c').")
        assert (caught.value.line, caught.value.column) == (2, 1)


class TestJson:
    def test_round_trip(self, db):
        assert database_from_json(database_to_json(db)) == db

    def test_shape(self, db):
        import json

        payload = json.loads(database_to_json(db))
        assert payload["G"] == [["a", "b"], ["b", "c"]]

    def test_indent_option(self, db):
        assert "\n" in database_to_json(db, indent=2)

    def test_rejects_non_object(self):
        with pytest.raises(ReproError):
            database_from_json("[1, 2]")

    def test_rejects_non_list_rows(self):
        with pytest.raises(ReproError):
            database_from_json('{"G": "nope"}')

    def test_rejects_scalar_row(self):
        with pytest.raises(ReproError):
            database_from_json('{"G": ["nope"]}')


class TestCsv:
    def test_round_trip_strings(self, db):
        text = relation_to_csv_text(db, "G")
        out = relation_from_csv_text(text, "G")
        assert out.tuples("G") == db.tuples("G")

    def test_csv_is_untyped(self):
        """Documented caveat: ints come back as strings."""
        db = Database({"N": [(1,)]})
        out = relation_from_csv_text(relation_to_csv_text(db, "N"), "N")
        assert out.tuples("N") == frozenset({("1",)})

    def test_unknown_relation(self, db):
        with pytest.raises(SchemaError):
            relation_to_csv_text(db, "missing")

    def test_append_into_existing_database(self, db):
        out = relation_from_csv_text("x,y\n", "G", db=db.copy())
        assert out.has_fact("G", ("x", "y"))
        assert out.has_fact("G", ("a", "b"))

    def test_blank_lines_skipped(self):
        out = relation_from_csv_text("a,b\n\nc,d\n", "G")
        assert len(out.tuples("G")) == 2


class TestCliJsonData:
    def test_run_with_json_data(self, tmp_path):
        import io as iomod

        from repro.cli import main

        program = tmp_path / "tc.dl"
        program.write_text("T(x, y) :- G(x, y).\nT(x, y) :- G(x, z), T(z, y).\n")
        data = tmp_path / "graph.json"
        data.write_text('{"G": [["a", "b"], ["b", "c"]]}')
        out = iomod.StringIO()
        code = main(["run", str(program), "--data", str(data)], out=out)
        assert code == 0
        assert "T (3 tuples):" in out.getvalue()
