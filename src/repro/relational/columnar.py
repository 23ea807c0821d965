"""Interned columnar storage: constants ↔ dense ids, relations as columns.

The set-of-tuples representation in :mod:`repro.relational.instance`
stores every fact as a Python tuple of constant objects — ideal for
hashing and membership, expensive in pointers: each row pays a tuple
header plus one object reference per attribute, and every probe hashes
full constants.  This module adds the column-oriented twin the paper's
engine grows toward (the BYODS direction: relations behind a narrow
insert/enumerate/query storage interface):

* an :class:`Interner` — a per-database bijection between constants and
  dense integer ids (``intern``/``value``), shared by every relation of
  the database so equal constants are stored once;
* a :class:`ColumnStore` — one relation's facts as parallel
  ``array('q')`` columns of interned ids with O(1) append and
  swap-remove discard, maintained *incrementally* by
  :class:`~repro.relational.instance.Relation` alongside the set and
  the hash/chain indexes (same lifecycle: built lazily on first use,
  then kept in sync);
* a :class:`DeltaBlock` — the batch format the semi-naive drivers pass
  between stages: one stage's delta as a fixed row sequence plus the
  frozen fact set.  Iterating a block yields rows in exactly the
  frozenset's enumeration order, so every row-at-a-time consumer (and
  every seeded engine) sees the same sequence whether it got a plain
  set or a block;
* :func:`storage_report` — the memory-density surface of
  ``repro stats``: per-relation bytes as a set of tuples vs as interned
  columns, plus the interner's own footprint.

The join kernels (:mod:`repro.semantics.codegen`'s ``*_batch_*``
variants) consume :class:`DeltaBlock` rows in value space — probe keys
must hash against the value-keyed chain indexes — while the
:class:`ColumnStore` keeps the materialized relations dense.  Running
the joins themselves in id space over column stores is the next rung
(see ROADMAP).
"""

from __future__ import annotations

import sys
from array import array
from typing import Hashable, Iterable, Iterator

__all__ = ["Interner", "ColumnStore", "DeltaBlock", "storage_report"]


class Interner:
    """A bijection between constants and dense integer ids.

    Ids are assigned in first-intern order starting at 0, so a
    database's interner is deterministic for a deterministic insertion
    sequence.  Values are never released — the id space only grows —
    which keeps ids stable for the lifetime of the database (a dropped
    constant costs one stale table entry, not a remap of every column).
    """

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._values: list[Hashable] = []

    def intern(self, value: Hashable) -> int:
        """The id for ``value``, assigning the next dense id if new."""
        i = self._ids.get(value)
        if i is None:
            i = self._ids[value] = len(self._values)
            self._values.append(value)
        return i

    def lookup(self, value: Hashable) -> int | None:
        """The id for ``value``, or ``None`` if it was never interned."""
        return self._ids.get(value)

    def value(self, i: int) -> Hashable:
        """The constant behind id ``i`` (inverse of :meth:`intern`)."""
        return self._values[i]

    def __len__(self) -> int:
        return len(self._values)

    def nbytes(self) -> int:
        """Approximate footprint: both tables plus the constants."""
        return (
            sys.getsizeof(self._ids)
            + sys.getsizeof(self._values)
            + sum(sys.getsizeof(v) for v in self._values)
        )


class ColumnStore:
    """One relation's facts as parallel columns of interned ids.

    Column ``c`` holds, for every row, the id of the value at tuple
    position ``c``; the columns are ``array('q')`` (machine int64s), so
    a row costs ``8 * arity`` bytes of column payload instead of a
    tuple object plus ``arity`` pointers.  ``_row_of`` maps each fact
    to its current row so :meth:`discard` is O(arity): the last row is
    swapped into the hole and the arrays shrink by one.

    Row order is *not* part of the storage contract — swap-remove
    reorders — which is why the batch kernels draw their blocks
    from the (insertion-ordered) delta sets, not from here.
    """

    __slots__ = ("arity", "interner", "columns", "_row_of")

    def __init__(self, arity: int, interner: Interner,
                 tuples: Iterable[tuple] = ()):
        self.arity = arity
        self.interner = interner
        self.columns: list[array] = [array("q") for _ in range(arity)]
        self._row_of: dict[tuple, int] = {}
        for t in tuples:
            self.append(t)

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, t: tuple) -> bool:
        return t in self._row_of

    def append(self, t: tuple) -> bool:
        """Add one fact; return True if it was new."""
        if t in self._row_of:
            return False
        self._row_of[t] = len(self._row_of)
        intern = self.interner.intern
        for column, v in zip(self.columns, t):
            column.append(intern(v))
        return True

    def discard(self, t: tuple) -> bool:
        """Remove one fact (swap-remove); return True if present."""
        row = self._row_of.pop(t, None)
        if row is None:
            return False
        last = len(self._row_of)  # index of the old final row
        if row != last and self.arity:
            value = self.interner.value
            moved = tuple(value(column[last]) for column in self.columns)
            for column in self.columns:
                column[row] = column[last]
            self._row_of[moved] = row
        for column in self.columns:
            column.pop()
        return True

    def clear(self) -> None:
        self._row_of.clear()
        for column in self.columns:
            del column[:]

    def row(self, index: int) -> tuple:
        """Decode one row back to its constant tuple."""
        value = self.interner.value
        return tuple(value(column[index]) for column in self.columns)

    def __iter__(self) -> Iterator[tuple]:
        """Rows in current (swap-perturbed) row order, decoded."""
        return iter(sorted(self._row_of, key=self._row_of.__getitem__))

    def nbytes(self) -> int:
        """Column payload bytes (the density number ``repro stats``
        reports; the row map is bookkeeping for incremental discard,
        shared in kind with the set representation's own hash table)."""
        return sum(
            column.buffer_info()[1] * column.itemsize
            for column in self.columns
        )


class DeltaBlock:
    """One relation's semi-naive delta as a batch of rows.

    ``facts`` is the frozen delta set (membership tests); ``rows``
    fixes the set's enumeration order, and is what the ``*_batch_*``
    codegen kernels unpack row by row.  A block is a drop-in for the
    frozenset it wraps everywhere a delta flows: iteration yields the
    identical row sequence, so wrapping cannot perturb seeded engines.
    """

    __slots__ = ("facts", "rows")

    def __init__(self, facts: frozenset[tuple]):
        self.facts = facts
        self.rows = tuple(facts)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __contains__(self, t: tuple) -> bool:
        return t in self.facts

    def __repr__(self) -> str:
        return f"DeltaBlock({len(self.rows)} rows)"


def set_bytes(tuples: Iterable[tuple]) -> int:
    """Approximate bytes of a set-of-tuples representation.

    Counts the tuple shells only (headers + per-position references):
    the constants themselves are shared objects, priced once by the
    interner side of :func:`storage_report`, so pricing them per row
    here would overstate the set representation.
    """
    tuples = list(tuples)
    container = 0
    if tuples:
        probe: set = set()
        probe.update(tuples)
        container = sys.getsizeof(probe)
    return container + sum(sys.getsizeof(t) for t in tuples)


def storage_report(db) -> dict:
    """Per-relation storage density: set-of-tuples vs interned columns.

    The additive ``repro stats`` surface (no schema bump): for each
    relation the row count, the approximate bytes of the live
    set-of-tuples representation, and the bytes of the same facts as
    interned columns; plus the shared interner's size.  Uses the
    relation's live column store when one is maintained, otherwise
    prices a transient one — either way the numbers are measured, not
    asserted.
    """
    interner = db.interner()
    relations: dict[str, dict] = {}
    for name in sorted(db.relation_names()):
        rel = db.relation(name)
        if rel is None:
            continue
        store = rel.column_store(interner)
        relations[name] = {
            "rows": len(rel),
            "set_bytes": set_bytes(rel),
            "column_bytes": store.nbytes(),
        }
    return {
        "relations": relations,
        "interner": {"constants": len(interner), "bytes": interner.nbytes()},
    }
