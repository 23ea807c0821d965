"""Programs and dialects.

A :class:`Program` is a finite set of rules with derived structure:
idb relations (those occurring in heads), edb relations (the others),
arities, and constants — exactly sch(P), idb(P), edb(P), adom(P) of
Section 3.1 of the paper.

:class:`Dialect` names each language of the paper's family; it is used
by :func:`repro.ast.analysis.validate_program` to check that a program
only uses the features its dialect permits, and each semantics engine
validates against the dialect it implements.
"""

from __future__ import annotations

import enum
from typing import Hashable, Iterable

from repro.errors import ProgramError, SchemaError
from repro.ast.rules import Lit, Rule
from repro.relational.schema import DatabaseSchema, RelationSchema


class Dialect(enum.Enum):
    """The language family of the paper, ordered roughly by Figure 1."""

    DATALOG = "datalog"
    SEMIPOSITIVE = "semipositive-datalog-neg"
    STRATIFIED = "stratified-datalog-neg"
    DATALOG_NEG = "datalog-neg"              # body negation (inflationary / wf)
    DATALOG_NEGNEG = "datalog-negneg"        # head negation = deletion
    DATALOG_NEW = "datalog-neg-new"          # value invention
    N_DATALOG_NEG = "n-datalog-neg"
    N_DATALOG_NEGNEG = "n-datalog-negneg"
    N_DATALOG_BOTTOM = "n-datalog-neg-bottom"
    N_DATALOG_FORALL = "n-datalog-neg-forall"
    N_DATALOG_NEW = "n-datalog-neg-new"
    DATALOG_CHOICE = "datalog-choice"        # LDL's choice operator (§5.2)


#: Dialects whose rules may have several head literals.
MULTI_HEAD_DIALECTS = frozenset(
    {
        Dialect.N_DATALOG_NEG,
        Dialect.N_DATALOG_NEGNEG,
        Dialect.N_DATALOG_BOTTOM,
        Dialect.N_DATALOG_FORALL,
        Dialect.N_DATALOG_NEW,
    }
)

#: Dialects permitting negative literals in rule heads (deletion).
#: N-Datalog¬new is included: the paper builds it from N-Datalog¬, but
#: its completeness (Theorem 5.7) covers all nondeterministic queries,
#: and combining invention with deletion is how practical programs
#: (e.g. the linear-time parity chain) are written.
NEGATIVE_HEAD_DIALECTS = frozenset(
    {Dialect.DATALOG_NEGNEG, Dialect.N_DATALOG_NEGNEG, Dialect.N_DATALOG_NEW}
)

#: Dialects permitting (in)equality literals in rule bodies.
EQUALITY_DIALECTS = MULTI_HEAD_DIALECTS

#: Dialects permitting invention variables (head vars absent from body).
INVENTION_DIALECTS = frozenset({Dialect.DATALOG_NEW, Dialect.N_DATALOG_NEW})


class Program:
    """An immutable finite set of rules, with derived schema information."""

    def __init__(
        self,
        rules: Iterable[Rule],
        name: str = "",
        source_text: str | None = None,
    ):
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.name = name
        #: The surface syntax this program was parsed from, when known;
        #: diagnostics use it to quote the offending source line.
        self.source_text = source_text
        if not self.rules:
            raise ProgramError("a program must contain at least one rule")
        self._idb = frozenset(
            rel for rule in self.rules for rel in rule.head_relations()
        )
        self._edb = frozenset(
            rel
            for rule in self.rules
            for rel in rule.body_relations()
            if rel not in self._idb
        )
        self._arities = self._compute_arities()

    def _compute_arities(self) -> dict[str, int]:
        arities: dict[str, int] = {}
        for rule in self.rules:
            literals: list[Lit] = list(rule.head_literals())
            literals.extend(l for l in rule.body if isinstance(l, Lit))
            for lit in literals:
                seen = arities.get(lit.relation)
                if seen is None:
                    arities[lit.relation] = lit.atom.arity
                elif seen != lit.atom.arity:
                    raise SchemaError(
                        f"relation {lit.relation!r} used with arities "
                        f"{seen} and {lit.atom.arity}",
                        span=lit.span or rule.span,
                    )
        return arities

    # -- schema accessors ------------------------------------------------------

    @property
    def idb(self) -> frozenset[str]:
        """Intensional relations: those occurring in some rule head."""
        return self._idb

    @property
    def edb(self) -> frozenset[str]:
        """Extensional relations: those occurring only in rule bodies."""
        return self._edb

    def sch(self) -> frozenset[str]:
        """sch(P) = edb(P) ∪ idb(P)."""
        return self._idb | self._edb

    def arity(self, relation: str) -> int:
        try:
            return self._arities[relation]
        except KeyError:
            raise SchemaError(f"relation {relation!r} not used by this program") from None

    def arities(self) -> dict[str, int]:
        return dict(self._arities)

    def schema(self) -> DatabaseSchema:
        return DatabaseSchema(
            [RelationSchema(name, arity) for name, arity in self._arities.items()]
        )

    def constants(self) -> set[Hashable]:
        """adom(P): every constant occurring in the program."""
        out: set[Hashable] = set()
        for rule in self.rules:
            out |= rule.constants()
        return out

    def uses_negative_heads(self) -> bool:
        return any(
            isinstance(l, Lit) and not l.positive
            for rule in self.rules
            for l in rule.head
        )

    def uses_bottom(self) -> bool:
        return any(rule.has_bottom_head() for rule in self.rules)

    def uses_universal(self) -> bool:
        return any(rule.universal for rule in self.rules)

    def uses_body_negation(self) -> bool:
        return any(rule.negative_body() for rule in self.rules)

    def uses_equality(self) -> bool:
        return any(rule.equality_body() for rule in self.rules)

    def uses_invention(self) -> bool:
        return any(rule.invention_variables() for rule in self.rules)

    def uses_multi_heads(self) -> bool:
        return any(len(rule.head) > 1 for rule in self.rules)

    def uses_choice(self) -> bool:
        return any(rule.choice_body() for rule in self.rules)

    # -- dunder ----------------------------------------------------------------

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return set(self.rules) == set(other.rules)

    def __hash__(self) -> int:
        # Consistent with __eq__ (rule multisets collapse to sets); cached
        # because programs key weak caches (planner contexts, plan caches).
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = self._hash = hash(frozenset(self.rules))
        return cached

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Program{label} ({len(self.rules)} rules)"

    def source(self) -> str:
        """Render the program back to parseable surface syntax."""
        return "\n".join(repr(rule) for rule in self.rules)

    def with_rules(self, extra: Iterable[Rule], name: str | None = None) -> "Program":
        """A new program with additional rules appended."""
        return Program(
            self.rules + tuple(extra),
            name if name is not None else self.name,
            source_text=self.source_text,
        )
