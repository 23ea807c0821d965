"""Terms: the variables and constants shared by every language in the family.

The paper (Section 2) assumes four disjoint sets of symbols; here the two
that appear inside programs are modelled explicitly:

* :class:`Var` — a variable, identified by its name.
* :class:`Const` — a constant, wrapping any hashable Python value
  (strings and integers in practice).

A *free tuple* in the paper's terminology is simply a tuple of terms; a
*constant tuple* is a tuple of plain Python values.  Valuations are
dictionaries from :class:`Var` to values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Union


@dataclass(frozen=True, slots=True)
class Var:
    """A variable occurring in a rule or formula."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    """A constant; ``value`` may be any hashable Python object."""

    value: Hashable

    def __repr__(self) -> str:
        if isinstance(self.value, str):
            # The surface syntax has no escapes: a ' goes inside "".
            quote = '"' if "'" in self.value else "'"
            return f"{quote}{self.value}{quote}"
        return repr(self.value)


Term = Union[Var, Const]

Valuation = Mapping[Var, Hashable]


def term_vars(terms: Iterable[Term]) -> set[Var]:
    """Return the set of variables among ``terms``."""
    return {t for t in terms if isinstance(t, Var)}


def term_consts(terms: Iterable[Term]) -> set[Hashable]:
    """Return the set of constant *values* among ``terms``."""
    return {t.value for t in terms if isinstance(t, Const)}


def apply_valuation(terms: Iterable[Term], valuation: Valuation) -> tuple[Hashable, ...]:
    """Instantiate ``terms`` into a constant tuple using ``valuation``.

    Raises ``KeyError`` if a variable is not bound by the valuation.
    """
    out = []
    for t in terms:
        if isinstance(t, Var):
            out.append(valuation[t])
        else:
            out.append(t.value)
    return tuple(out)


def substitute_terms(terms: Iterable[Term], valuation: Valuation) -> tuple[Term, ...]:
    """Replace bound variables by constants, leaving free variables intact."""
    out: list[Term] = []
    for t in terms:
        if isinstance(t, Var) and t in valuation:
            out.append(Const(valuation[t]))
        else:
            out.append(t)
    return tuple(out)
