"""Incremental view maintenance: DRed (delete-and-rederive).

The paper's forward-chaining thread is inseparable from *updates*
(Datalog¬¬, active databases).  The classical database counterpart is
maintaining a materialized recursive view under base updates, and DRed
is the standard algorithm:

* **insertion** — semi-naive propagation of the new facts (monotone,
  so purely additive);
* **deletion** —
  1. *over-delete*: transitively remove every derived fact that has a
     derivation using a deleted fact (iterated to fixpoint);
  2. *re-derive*: among the over-deleted facts, restore those that
     still have an alternative derivation from the surviving view
     (again to fixpoint).

Scope: positive (plain Datalog) programs — the setting in which DRed
is exact.  :class:`MaterializedView` keeps its historical API but is
a facade over :class:`repro.semantics.differential
.DifferentialEngine`, which runs DRed on every SCC, recursive or not,
in the planner's topological order, and routes propagation through the
planner and its generated kernels.  Every update returns the net
changes, and the invariant ``view == evaluate_from_scratch(base)`` is
property-tested.
"""

from __future__ import annotations

from typing import Iterable

from repro.ast.program import Program
from repro.relational.instance import Database
from repro.semantics.differential import (
    DifferentialEngine,
    Fact,
    UpdateReport,
)

__all__ = ["MaterializedView", "UpdateReport"]


class MaterializedView:
    """A positive-Datalog view maintained incrementally under updates.

    A base database containing facts in IDB-named relations is
    rejected with :class:`~repro.errors.SchemaError` — the view owns
    its derived relations, and silently absorbing such facts would
    leave it permanently inconsistent with from-scratch evaluation.
    Update batches are atomic: the whole batch is validated before any
    fact is applied.
    """

    def __init__(self, program: Program, base: Database):
        self.program = program
        self._engine = DifferentialEngine(program, base)

    # -- public API -------------------------------------------------------

    @property
    def database(self) -> Database:
        return self._engine.database

    @property
    def engine(self) -> DifferentialEngine:
        """The underlying differential engine (stats, subscriptions)."""
        return self._engine

    def answer(self, relation: str) -> frozenset[tuple]:
        return self._engine.answer(relation)

    def insert(self, facts: Iterable[Fact]) -> UpdateReport:
        """Insert base facts; propagate consequences semi-naively."""
        return self._engine.insert(facts).report

    def delete(self, facts: Iterable[Fact]) -> UpdateReport:
        """Delete base facts; DRed over-delete then re-derive."""
        return self._engine.delete(facts).report

    def consistent_with_scratch(self) -> bool:
        """Does the view equal from-scratch evaluation?  (For tests.)"""
        return self._engine.consistent_with_scratch()
