"""The *while* and *fixpoint* imperative languages of Section 2.

While extends FO with relation variables, assignment ``R := φ`` (and the
cumulative variant ``R += φ`` of fixpoint), and the looping constructs
``while change do`` and ``while φ do``.  Per the paper:

* when every assignment is cumulative the program is a *fixpoint*
  program: relations only grow over a fixed domain, so termination in
  polynomially many iterations is guaranteed (db-ptime on ordered
  inputs, Theorem 4.7);
* with non-cumulative assignment the language is *while*, requiring
  polynomial space and possibly diverging; divergence is detected by
  state-cycle detection, as for Datalog¬¬.

Formulas range over the active domain of the *input* extended with the
program's constants — while programs cannot invent values, which is the
space barrier broken only by Datalog¬new (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Union

from repro.errors import EvaluationError, NonTerminationError, StepBudgetExceeded
from repro.logic.evaluate import (
    _satisfies,
    formula_constants,
    free_variables,
)
from repro.logic.formula import Formula
from repro.relational.instance import Database
from repro.terms import Var


@dataclass(frozen=True)
class Comprehension:
    """``{(x1, …, xk) | φ}`` — a relation defined by an FO formula.

    ``variables`` fixes the output column order and must list exactly
    the free variables of ``formula``.
    """

    variables: tuple[Var, ...]
    formula: Formula

    def __post_init__(self) -> None:
        free = free_variables(self.formula)
        if free != set(self.variables):
            raise EvaluationError(
                f"comprehension variables {[v.name for v in self.variables]} "
                f"do not match free variables {sorted(v.name for v in free)}"
            )


@dataclass(frozen=True)
class Assign:
    """``R := comp`` (or ``R += comp`` when ``cumulative``)."""

    relation: str
    comprehension: Comprehension
    cumulative: bool = False

    def __repr__(self) -> str:
        op = "+=" if self.cumulative else ":="
        return f"{self.relation} {op} {{…}}"


@dataclass(frozen=True)
class WhileChange:
    """``while change do body`` — iterate until no relation changes."""

    body: tuple["Statement", ...]


@dataclass(frozen=True)
class WhileFormula:
    """``while φ do body`` — iterate while the FO sentence holds."""

    condition: Formula
    body: tuple["Statement", ...]


Statement = Union[Assign, WhileChange, WhileFormula]


@dataclass(frozen=True)
class WhileProgram:
    """A sequence of statements with a designated answer relation."""

    statements: tuple[Statement, ...]
    answer: str
    name: str = ""


@dataclass
class WhileResult:
    """Final instance plus accounting used by the complexity benchmarks."""

    database: Database
    loop_iterations: int = 0
    assignments: int = 0
    max_fact_count: int = 0  # space proxy: peak total number of facts

    def answer(self, relation: str) -> frozenset[tuple]:
        return self.database.tuples(relation)


def is_fixpoint_program(program: WhileProgram) -> bool:
    """True iff every assignment is cumulative (the fixpoint language)."""

    def check(statements: tuple[Statement, ...]) -> bool:
        for stmt in statements:
            if isinstance(stmt, Assign):
                if not stmt.cumulative:
                    return False
            else:
                if not check(stmt.body):
                    return False
        return True

    return check(program.statements)


def _program_constants(statements: tuple[Statement, ...]) -> set[Hashable]:
    out: set[Hashable] = set()
    for stmt in statements:
        if isinstance(stmt, Assign):
            out |= formula_constants(stmt.comprehension.formula)
        else:
            if isinstance(stmt, WhileFormula):
                out |= formula_constants(stmt.condition)
            out |= _program_constants(stmt.body)
    return out


class _Interpreter:
    def __init__(self, db: Database, domain: tuple[Hashable, ...], max_iterations: int):
        self.db = db
        self.domain = domain
        self.max_iterations = max_iterations
        self.result = WhileResult(db, max_fact_count=db.fact_count())

    def _evaluate_comprehension(self, comp: Comprehension) -> set[tuple]:
        answers: set[tuple] = set()
        ordered = sorted(set(comp.variables), key=lambda v: v.name)
        valuation: dict[Var, Hashable] = {}

        def assign(index: int) -> None:
            if index == len(ordered):
                if _satisfies(comp.formula, self.db, valuation, self.domain):
                    answers.add(tuple(valuation[v] for v in comp.variables))
                return
            var = ordered[index]
            for value in self.domain:
                valuation[var] = value
                assign(index + 1)
            valuation.pop(var, None)

        assign(0)
        return answers

    def _run_assign(self, stmt: Assign) -> None:
        rows = self._evaluate_comprehension(stmt.comprehension)
        rel = self.db.ensure_relation(stmt.relation, len(stmt.comprehension.variables))
        if stmt.cumulative:
            rel.update(rows)
        else:
            rel.replace(rows)
        self.result.assignments += 1
        self.result.max_fact_count = max(
            self.result.max_fact_count, self.db.fact_count()
        )

    def run_block(self, statements: tuple[Statement, ...]) -> None:
        for stmt in statements:
            if isinstance(stmt, Assign):
                self._run_assign(stmt)
            elif isinstance(stmt, WhileChange):
                self._run_while_change(stmt)
            elif isinstance(stmt, WhileFormula):
                self._run_while_formula(stmt)
            else:
                raise EvaluationError(f"unknown statement {stmt!r}")

    def _run_while_change(self, stmt: WhileChange) -> None:
        seen: set[frozenset] = {self.db.canonical()}
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.max_iterations:
                raise StepBudgetExceeded(
                    f"while-change loop exceeded {self.max_iterations} iterations",
                    self.max_iterations,
                )
            before = self.db.canonical()
            self.run_block(stmt.body)
            self.result.loop_iterations += 1
            after = self.db.canonical()
            if after == before:
                return
            if after in seen:
                raise NonTerminationError(
                    "while-change loop revisited an instance: diverges",
                    stage=iterations,
                )
            seen.add(after)

    def _run_while_formula(self, stmt: WhileFormula) -> None:
        free = free_variables(stmt.condition)
        if free:
            raise EvaluationError(
                "while condition must be a sentence; free variables "
                f"{sorted(v.name for v in free)}"
            )
        seen: set[frozenset] = set()
        iterations = 0
        while _satisfies(stmt.condition, self.db, {}, self.domain):
            iterations += 1
            if iterations > self.max_iterations:
                raise StepBudgetExceeded(
                    f"while loop exceeded {self.max_iterations} iterations",
                    self.max_iterations,
                )
            snapshot = self.db.canonical()
            if snapshot in seen:
                raise NonTerminationError(
                    "while loop revisited an instance with a true condition",
                    stage=iterations,
                )
            seen.add(snapshot)
            self.run_block(stmt.body)
            self.result.loop_iterations += 1


def evaluate_while(
    program: WhileProgram,
    db: Database,
    max_iterations: int = 100_000,
) -> WhileResult:
    """Run a while/fixpoint program on ``db`` (input copied, not mutated)."""
    work = db.copy()
    constants = _program_constants(program.statements)
    domain_values = db.active_domain() | constants
    domain = tuple(sorted(domain_values, key=lambda v: (type(v).__name__, repr(v))))
    interpreter = _Interpreter(work, domain, max_iterations)
    interpreter.run_block(program.statements)
    interpreter.result.max_fact_count = max(
        interpreter.result.max_fact_count, work.fact_count()
    )
    return interpreter.result
