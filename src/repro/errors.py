"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Finer-grained subclasses distinguish
schema problems, parse errors, dialect violations (a program using a
feature its declared dialect forbids), and evaluation failures such as
nontermination of a noninflationary program.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    An error about source text carries the 1-based ``line`` and
    ``column`` of the offending construct (``None`` when there is none,
    e.g. a program built in code) and ends its message with them.
    ``span`` (a :class:`~repro.span.Span`) gives both at once.
    """

    def __init__(self, message: str = "", line: int | None = None,
                 column: int | None = None, *, span=None):
        if span is not None and line is None:
            line, column = span.line, span.column
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SchemaError(ReproError):
    """A relation or database schema is malformed or violated.

    Raised, for example, when a tuple of the wrong arity is inserted
    into a relation, or when two relations with the same name but
    different arities are combined.
    """


class ParseError(ReproError):
    """The surface syntax of a program could not be parsed.

    Carries the line and column of the offending token when available.
    """


class ProgramError(ReproError):
    """A structurally invalid program (independent of any input)."""


class SafetyError(ProgramError):
    """A rule violates the range-restriction (safety) condition.

    Which condition applies depends on the dialect: plain Datalog
    requires every head variable to occur in a positive body literal,
    Datalog¬ requires occurrence in some body literal, and
    Datalog¬new exempts invention variables.
    """


class StratificationError(ProgramError):
    """The program is not stratifiable (recursion through negation)."""


class DialectError(ProgramError):
    """A program uses a feature not permitted by the requested dialect.

    For instance, a negative head literal in a program evaluated under
    inflationary Datalog¬ semantics, or an invention variable outside
    Datalog¬new.
    """


class EvaluationError(ReproError):
    """An error occurred while evaluating a program on an instance."""


class NonTerminationError(EvaluationError):
    """A noninflationary computation provably does not terminate.

    Raised when the deterministic state sequence of a Datalog¬¬
    program revisits an instance, which (determinism) implies the
    computation cycles forever, as in the flip-flop program of
    Section 4.2 of the paper.
    """

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class StepBudgetExceeded(EvaluationError):
    """An evaluation exceeded its configured step budget.

    Unlike :class:`NonTerminationError` this is inconclusive: the
    computation might terminate given more steps.
    """

    def __init__(self, message: str, budget: int):
        super().__init__(message)
        self.budget = budget


class ContradictionError(EvaluationError):
    """A fact and its negation were inferred simultaneously.

    Only raised under the ``contradiction`` conflict policy of
    Datalog¬¬ (option (iii) in Section 4.2 of the paper); the other
    policies resolve the conflict instead.
    """


class UnsafeAnswerError(EvaluationError):
    """A Datalog¬new answer contains invented values.

    The paper's safety restriction requires the final result to contain
    only values from the input; this error reports a violation.
    """
