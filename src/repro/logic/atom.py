"""The formula base class and the relational atom.

Rules are built from atoms, so the rule syntax (and every engine that
reads it) imports this module, not the connectives and quantifiers of
:mod:`repro.logic.formula`, which re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.terms import Term


class Formula:
    """Base class for FO formulas (:mod:`repro.logic.formula`)."""

    def __and__(self, other: "Formula") -> "Formula":
        from repro.logic.formula import And

        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        from repro.logic.formula import Or

        return Or(self, other)

    def __invert__(self) -> "Formula":
        from repro.logic.formula import Not

        return Not(self)


@dataclass(frozen=True)
class Atom(Formula):
    """A relational atom R(t1, …, tk)."""

    relation: str
    terms: tuple[Term, ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}({inner})"

    @property
    def arity(self) -> int:
        return len(self.terms)
