"""Serialization: facts files, JSON, and CSV for database instances.

Three interchange formats:

* **facts text** — the same surface syntax as programs, restricted to
  ground bodyless rules (``G('a', 'b').``); what the CLI reads;
* **JSON** — ``{"G": [["a", "b"], ...]}``; values must be strings,
  integers or booleans (JSON-representable and hashable);
* **CSV** — one relation per file, one row per tuple, every field read
  back as a string (CSV is untyped; ints survive a JSON round-trip,
  not a CSV one — documented, tested).
"""

from __future__ import annotations

import csv
import io
import json
from typing import IO, Iterable

from repro.errors import ReproError, SchemaError
from repro.relational.instance import Database
from repro.terms import Const


# -- facts text ---------------------------------------------------------------

def facts_to_text(db: Database) -> str:
    """Render an instance as ground facts, deterministically ordered."""
    lines = []
    for name in sorted(db.relation_names()):
        for t in sorted(db.tuples(name), key=repr):
            rendered = ", ".join(_render_value(v) for v in t)
            lines.append(f"{name}({rendered}).")
    return "\n".join(lines) + ("\n" if lines else "")


def _render_value(value) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return repr(Const(str(value)))  # quoted as the surface syntax reads it


def facts_from_text(text: str) -> Database:
    """Parse a facts file: ground, positive, bodyless rules only.

    Blank (or comment-only) text is the empty instance.  The text is
    parsed once, as ``parse_program`` parses it, and every fact is
    checked (arities across the text, then each rule) before any is
    loaded; each relation then loads in one batch.
    """
    from repro.ast.program import Program
    from repro.parser.parser import parse_rules

    rules = parse_rules(text)
    if not rules:
        return Database()
    Program(rules, source_text=text)  # an arity clash names its rule
    rows: dict[str, list[tuple]] = {}
    for rule in rules:
        if rule.body:
            raise ReproError(
                f"facts text: rule has a body: {rule!r}", span=rule.span
            )
        for lit in rule.head_literals():
            if not lit.positive or lit.variables():
                raise ReproError(
                    f"facts text: not a ground positive fact: {rule!r}",
                    span=lit.span or rule.span,
                )
            rows.setdefault(lit.relation, []).append(
                tuple([t.value for t in lit.atom.terms])
            )
    return Database(rows)


# -- JSON ---------------------------------------------------------------------

def database_to_json(db: Database, indent: int | None = None) -> str:
    """Serialize to JSON: relation name → sorted list of rows."""
    payload = {
        name: sorted((list(t) for t in db.tuples(name)), key=repr)
        for name in sorted(db.relation_names())
    }
    return json.dumps(payload, indent=indent)


def database_from_json(text: str) -> Database:
    """Parse the JSON produced by :func:`database_to_json`."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ReproError("JSON database must be an object of relations")
    db = Database()
    for name, rows in payload.items():
        if not isinstance(rows, list):
            raise ReproError(f"relation {name!r}: rows must be a list")
        for row in rows:
            if not isinstance(row, list):
                raise ReproError(f"relation {name!r}: each row must be a list")
            db.add_fact(name, tuple(row))
    return db


# -- CSV ----------------------------------------------------------------------

def relation_to_csv(db: Database, relation: str, handle: IO[str]) -> None:
    """Write one relation as CSV rows (no header), sorted."""
    rel = db.relation(relation)
    if rel is None:
        raise SchemaError(f"unknown relation {relation!r}")
    writer = csv.writer(handle)
    for t in sorted(rel.tuples(), key=repr):
        writer.writerow(list(t))


def relation_from_csv(
    handle: IO[str] | Iterable[str], relation: str, db: Database | None = None
) -> Database:
    """Read CSV rows into ``relation`` (all values as strings)."""
    db = db if db is not None else Database()
    for row in csv.reader(handle):
        if not row:
            continue
        db.add_fact(relation, tuple(row))
    return db


def relation_to_csv_text(db: Database, relation: str) -> str:
    buffer = io.StringIO()
    relation_to_csv(db, relation, buffer)
    return buffer.getvalue()


def relation_from_csv_text(text: str, relation: str, db: Database | None = None) -> Database:
    return relation_from_csv(io.StringIO(text), relation, db=db)
