"""Stratified Datalog¬ (§3.2).

The program's relations are stratified so that each relation is fully
computed before its negation is used.  The planner's SCC schedule is
such an order: it runs the components of the predicate dependency
graph producer-first over positive and negative edges alike, so every
negated relation is complete before the first pass that reads it, and
each component is monotone over its own relations (no negative edge
inside a component, or the program is not stratifiable).  One
:func:`~repro.semantics.planner.scheduled_fixpoint` call over the
whole program therefore computes the stratified model, each component
by its own semi-naive loop, treating everything below as edb.

The paper's complement-of-transitive-closure program is the canonical
example: T is computed by the first two rules (one recursive
component), then CT by the negation of T (a later component).
"""

from __future__ import annotations

from repro.errors import DialectError
from repro.ast.program import Dialect, Program
from repro.ast.analysis import stratify, validate_program
from repro.relational.instance import Database
from repro.semantics import planner
from repro.semantics.base import (
    EvaluationResult,
    StatsRecorder,
    evaluation_domain,
)


def evaluate_stratified(
    program: Program,
    db: Database,
    validate: bool = True,
    tracer=None,
) -> EvaluationResult:
    """Stratified semantics of a stratifiable Datalog¬ program.

    Raises :class:`~repro.errors.StratificationError` when the program
    has recursion through negation (e.g. the win program of Ex. 3.2),
    and :class:`~repro.errors.DialectError` on a rule whose heads span
    components, even with ``validate`` off.
    """
    if validate:
        validate_program(program, Dialect.STRATIFIED)
    if tracer is not None and not tracer.enabled:
        tracer = None
    # The schedule below runs the strata in order, but would take a
    # program with recursion through negation, or with a rule whose
    # heads span components, as one recursive component: reject both
    # here too, since ``validate`` may be off.
    stratify(program)
    if planner.plan_context(program).scheduled_components is None:
        raise DialectError(
            f"{Dialect.STRATIFIED.value} evaluation needs one head "
            f"literal per rule"
        )
    current = db.copy()
    for relation in program.idb:
        current.ensure_relation(relation, program.arity(relation))
    adom, adom_size = evaluation_domain(program, db)
    result = EvaluationResult(current)
    recorder = StatsRecorder("stratified", current, tracer=tracer)
    result.rule_firings, _ = planner.scheduled_fixpoint(
        program, current, adom, recorder=recorder, result=result,
        tracer=tracer,
    )
    result.stats = recorder.finish(adom_size=adom_size)
    return result
