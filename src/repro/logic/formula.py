"""FO formula syntax trees.

First-order logic on relations (the relational calculus of Section 2 of
the paper).  Formulas are immutable dataclasses built from:

* :class:`Atom` — ``R(t1, …, tk)`` over terms,
* :class:`Equals` — ``t1 = t2``,
* the connectives :class:`Not`, :class:`And`, :class:`Or`,
  :class:`Implies`,
* the quantifiers :class:`Exists` and :class:`Forall`, and
* the constants :data:`TRUE` and :data:`FALSE`.

Evaluation (active-domain semantics) lives in
:mod:`repro.logic.evaluate`.  :class:`Formula` and :class:`Atom` are
defined in :mod:`repro.logic.atom`, which the rule syntax imports
without the rest of this module, and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.atom import Atom, Formula
from repro.terms import Term, Var

__all__ = [
    "Formula", "Atom", "Equals", "Not", "And", "Or", "Implies", "Exists",
    "Forall", "TRUE", "FALSE", "conjunction", "disjunction",
]


@dataclass(frozen=True)
class _Truth(Formula):
    value: bool

    def __repr__(self) -> str:
        return "⊤" if self.value else "⊥"


TRUE = _Truth(True)
FALSE = _Truth(False)


@dataclass(frozen=True)
class Equals(Formula):
    """t1 = t2."""

    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"{self.left!r} = {self.right!r}"


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def __repr__(self) -> str:
        return f"¬({self.child!r})"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} ∧ {self.right!r})"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} ∨ {self.right!r})"


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} → {self.right!r})"


@dataclass(frozen=True)
class Exists(Formula):
    variables: tuple[Var, ...]
    child: Formula

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"∃{names}.({self.child!r})"


@dataclass(frozen=True)
class Forall(Formula):
    variables: tuple[Var, ...]
    child: Formula

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"∀{names}.({self.child!r})"


def conjunction(formulas: list[Formula]) -> Formula:
    """The conjunction of a list of formulas (TRUE if empty)."""
    if not formulas:
        return TRUE
    out = formulas[0]
    for f in formulas[1:]:
        out = And(out, f)
    return out


def disjunction(formulas: list[Formula]) -> Formula:
    """The disjunction of a list of formulas (FALSE if empty)."""
    if not formulas:
        return FALSE
    out = formulas[0]
    for f in formulas[1:]:
        out = Or(out, f)
    return out
