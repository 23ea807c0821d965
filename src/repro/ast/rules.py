"""Literals and rules.

A rule generalizes every dialect in the paper:

* plain Datalog — one positive head literal, positive body;
* Datalog¬ — negative body literals (Definition in §3.2);
* Datalog¬¬ — negative *head* literals, meaning deletion (§4.2);
* Datalog¬new — head variables absent from the body (invention, §4.3);
* N-Datalog¬¬ — several head literals and (in)equality in bodies
  (Definition 5.1);
* N-Datalog¬⊥ — the ⊥ literal in heads (§5.2);
* N-Datalog¬∀ — universally quantified body variables (§5.2).

Which combinations are legal is enforced per dialect by
:func:`repro.ast.analysis.validate_program`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Union

from repro.errors import ProgramError
from repro.logic.atom import Atom
from repro.span import Span
from repro.terms import Const, Term, Var, term_consts, term_vars


@dataclass(frozen=True)
class Lit:
    """A (possibly negated) relational literal R(t1, …, tk).

    ``span`` records where the literal sits in its source text (None for
    literals built programmatically); it is excluded from equality and
    hashing so that structurally identical literals compare equal
    regardless of provenance.
    """

    atom: Atom
    positive: bool = True
    span: Span | None = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:
        return repr(self.atom) if self.positive else f"not {self.atom!r}"

    @property
    def relation(self) -> str:
        return self.atom.relation

    @property
    def terms(self) -> tuple[Term, ...]:
        return self.atom.terms

    def negate(self) -> "Lit":
        return Lit(self.atom, not self.positive, span=self.span)

    def variables(self) -> set[Var]:
        return term_vars(self.atom.terms)


@dataclass(frozen=True)
class EqLit:
    """An equality (``positive=True``) or inequality literal between terms."""

    left: Term
    right: Term
    positive: bool = True
    span: Span | None = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:
        op = "=" if self.positive else "!="
        return f"{self.left!r} {op} {self.right!r}"

    def variables(self) -> set[Var]:
        return term_vars((self.left, self.right))


@dataclass(frozen=True)
class BottomLit:
    """The inconsistency symbol ⊥ of N-Datalog¬⊥ (head position only)."""

    span: Span | None = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:
        return "bottom"

    def variables(self) -> set[Var]:
        return set()


@dataclass(frozen=True)
class ChoiceLit:
    """The choice goal choice((X̄), (Ȳ)) of LDL [90], discussed in §5.2.

    Enforces that, across all firings of its rule, the chosen mapping
    X̄ → Ȳ is a function: once a value of X̄ has fired with some Ȳ,
    instantiations binding the same X̄ to a different Ȳ are discarded.
    ``choice((), (y))`` picks a single global witness for y.
    """

    domain: tuple[Var, ...]
    range: tuple[Var, ...]
    span: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.range:
            raise ProgramError(
                "choice goal needs at least one range variable", span=self.span
            )
        overlap = set(self.domain) & set(self.range)
        if overlap:
            names = sorted(v.name for v in overlap)
            raise ProgramError(
                f"choice domain/range overlap: {names}", span=self.span
            )

    def __repr__(self) -> str:
        dom = ", ".join(v.name for v in self.domain)
        rng = ", ".join(v.name for v in self.range)
        return f"choice(({dom}), ({rng}))"

    def variables(self) -> set[Var]:
        return set(self.domain) | set(self.range)


HeadLiteral = Union[Lit, BottomLit]
BodyLiteral = Union[Lit, EqLit, ChoiceLit]


@dataclass(frozen=True)
class Rule:
    """A rule ``A1, …, Ak ← L1, …, Ln`` with optional ∀-quantified body vars.

    ``universal`` lists body variables under the universal quantifier of
    N-Datalog¬∀; it is empty for every other dialect.  An empty body is
    allowed (the paper's Example 4.4 uses the bodyless rule ``delay ←``),
    in which case the head must be ground.
    """

    head: tuple[HeadLiteral, ...]
    body: tuple[BodyLiteral, ...] = ()
    universal: tuple[Var, ...] = field(default=())
    span: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.head:
            raise ProgramError("a rule must have at least one head literal")
        for lit in self.head:
            if isinstance(lit, (EqLit, ChoiceLit)):
                raise ProgramError(
                    "equality and choice literals cannot occur in rule heads"
                )
        if not self.universal:
            return
        body_vars = self.body_variables()
        for v in self.universal:
            if v not in body_vars:
                raise ProgramError(
                    f"universal variable {v.name} does not occur in the body",
                    span=self.span,
                )
        head_universal = self.head_variables() & set(self.universal)
        if head_universal:
            names = sorted(v.name for v in head_universal)
            raise ProgramError(
                f"universal variables {names} occur in the head",
                span=self.span,
            )

    def __repr__(self) -> str:
        head = ", ".join(repr(h) for h in self.head)
        if not self.body:
            return f"{head}."
        body = ", ".join(repr(b) for b in self.body)
        if self.universal:
            names = " ".join(v.name for v in self.universal)
            return f"{head} :- forall {names}: {body}."
        return f"{head} :- {body}."

    # -- structural accessors -------------------------------------------------

    def head_literals(self) -> tuple[Lit, ...]:
        """The relational head literals (⊥ excluded)."""
        return tuple(l for l in self.head if isinstance(l, Lit))

    def has_bottom_head(self) -> bool:
        return any(isinstance(l, BottomLit) for l in self.head)

    def positive_body(self) -> tuple[Lit, ...]:
        return tuple(l for l in self.body if isinstance(l, Lit) and l.positive)

    def negative_body(self) -> tuple[Lit, ...]:
        return tuple(l for l in self.body if isinstance(l, Lit) and not l.positive)

    def equality_body(self) -> tuple[EqLit, ...]:
        return tuple(l for l in self.body if isinstance(l, EqLit))

    def choice_body(self) -> tuple["ChoiceLit", ...]:
        return tuple(l for l in self.body if isinstance(l, ChoiceLit))

    def head_variables(self) -> set[Var]:
        out: set[Var] = set()
        for lit in self.head:
            out |= lit.variables()
        return out

    def body_variables(self) -> set[Var]:
        out: set[Var] = set()
        for lit in self.body:
            out |= lit.variables()
        return out

    def variables(self) -> set[Var]:
        return self.head_variables() | self.body_variables()

    def invention_variables(self) -> set[Var]:
        """Head variables absent from the body — Datalog¬new invention."""
        return self.head_variables() - self.body_variables()

    def constants(self) -> set[Hashable]:
        out: set[Hashable] = set()
        for lit in self.head:
            if isinstance(lit, Lit):
                out |= term_consts(lit.atom.terms)
        for lit in self.body:
            if isinstance(lit, Lit):
                out |= term_consts(lit.atom.terms)
            elif isinstance(lit, EqLit):
                out |= term_consts((lit.left, lit.right))
        return out

    def head_relations(self) -> set[str]:
        return {l.relation for l in self.head_literals()}

    def body_relations(self) -> set[str]:
        return {l.relation for l in self.body if isinstance(l, Lit)}


def make_rule(
    head: HeadLiteral | list[HeadLiteral],
    body: list[BodyLiteral] | None = None,
    universal: list[Var] | None = None,
    span: Span | None = None,
) -> Rule:
    """Convenience constructor accepting a single head literal or a list."""
    if isinstance(head, (Lit, BottomLit)):
        head = [head]
    return Rule(tuple(head), tuple(body or ()), tuple(universal or ()), span=span)


def atom(relation: str, *terms: Term | str | int) -> Atom:
    """Build an atom, coercing bare strings to variables and ints to constants.

    ``atom("T", "x", "y")`` is ``T(x, y)`` with variables; use
    :class:`~repro.terms.Const` explicitly for string constants.
    """
    coerced: list[Term] = []
    for t in terms:
        if isinstance(t, (Var, Const)):
            coerced.append(t)
        elif isinstance(t, str):
            coerced.append(Var(t))
        else:
            coerced.append(Const(t))
    return Atom(relation, tuple(coerced))


def pos(relation: str, *terms: Term | str | int) -> Lit:
    """A positive literal, with the same coercions as :func:`atom`."""
    return Lit(atom(relation, *terms), True)


def neg(relation: str, *terms: Term | str | int) -> Lit:
    """A negative literal, with the same coercions as :func:`atom`."""
    return Lit(atom(relation, *terms), False)
