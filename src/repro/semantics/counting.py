"""Derivation counts over a maintained nonrecursive view.

The classical counting algorithm of view maintenance stores, for every
derived fact, the **number of derivations** it has, and drops a fact
when its count reaches zero.  Those counts are the ℕ-provenance of
nonrecursive rules, and they are finite only when no fact can support
itself, so :class:`CountingView` accepts **nonrecursive** positive
programs only.

:class:`CountingView` keeps its historical API but is a facade over
:class:`repro.semantics.differential.DifferentialEngine`, which keeps
the view itself by DRed, as it keeps every component, and stores no
count: :attr:`CountingView.counts` and :meth:`CountingView.count` ask
the engine's support probes when read, one compiled ``count_full``
call per rule of the relation, which counts exactly the derivations a
stored count would hold.

A base database containing facts in IDB-named relations is rejected
with :class:`~repro.errors.SchemaError`, and update batches are
atomic (whole-batch validation before any mutation).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.errors import EvaluationError
from repro.ast.program import Program
from repro.ast.analysis import precedence_graph
from repro.relational.instance import Database
from repro.semantics.differential import DifferentialEngine, Fact

__all__ = ["CountingView", "is_recursive"]


def is_recursive(program: Program) -> bool:
    """Does any relation depend on itself (directly or transitively)?"""
    graph = precedence_graph(program)
    for start in graph:
        stack = [dst for dst, _ in graph[start]]
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(dst for dst, _ in graph.get(node, ()))
    return False


class CountingView:
    """A nonrecursive positive view maintained by derivation counting."""

    def __init__(self, program: Program, base: Database):
        if is_recursive(program):
            raise EvaluationError(
                "counting maintenance requires a nonrecursive program; "
                "use MaterializedView (DRed) for recursion"
            )
        self.program = program
        self._engine = DifferentialEngine(program, base)

    # -- public API -------------------------------------------------------

    @property
    def database(self) -> Database:
        return self._engine.database

    @property
    def counts(self) -> Counter[Fact]:
        """Exact derivation counts of every derived fact in the view,
        computed when read."""
        return self._engine.counts

    @property
    def engine(self) -> DifferentialEngine:
        """The underlying differential engine (stats, subscriptions)."""
        return self._engine

    def answer(self, relation: str) -> frozenset[tuple]:
        return self._engine.answer(relation)

    def count(self, relation: str, t: tuple) -> int:
        """The number of derivations of a derived fact (0 if none): one
        ``count_full`` call per rule of ``relation``."""
        (n,) = self._engine.derivations(relation, [t])
        return n

    def insert(self, facts: Iterable[Fact]) -> frozenset[Fact]:
        """Insert base facts; returns the derived facts that appeared."""
        report = self._engine.insert(facts).report
        return frozenset(
            fact for fact in report.inserted if fact[0] in self.program.idb
        )

    def delete(self, facts: Iterable[Fact]) -> frozenset[Fact]:
        """Delete base facts; returns the derived facts that disappeared."""
        report = self._engine.delete(facts).report
        return frozenset(
            fact for fact in report.deleted if fact[0] in self.program.idb
        )

    def consistent_with_scratch(self) -> bool:
        return self._engine.consistent_with_scratch()
