"""Stratified Datalog¬ (§3.2).

The program's relations are stratified so that each relation is fully
computed before its negation is used.  Each stratum is the subprogram
of rules defining that stratum's idb relations; within a stratum no
same-stratum relation occurs negatively (guaranteed by stratification),
so the stratum is monotone over its own relations and is evaluated with
the semi-naive fixpoint, treating everything below as edb.

The paper's complement-of-transitive-closure program is the canonical
example: T is computed by the first two rules (stratum 1), then CT by
the negation of T (stratum 2).
"""

from __future__ import annotations

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
    has recursion through negation (e.g. the win program of Ex. 3.2).
    """
    if validate:
        validate_program(program, Dialect.STRATIFIED)
    if tracer is not None and not tracer.enabled:
        tracer = None
    strata = stratify(program)
    current = db.copy()
    for relation in program.idb:
        current.ensure_relation(relation, program.arity(relation))
    adom, adom_size = evaluation_domain(program, db)
    result = EvaluationResult(current)
    recorder = StatsRecorder("stratified", current, tracer=tracer)
    stage = 0

    for stratum in strata:
        rules = [r for r in program.rules if r.head_relations() & stratum]
        if not rules:
            continue
        subprogram = Program(rules, name=f"{program.name}-stratum")
        # SCC-scheduled: a stratum may span several components
        # (negation only cuts *between* strata), so each gets its own
        # topologically-ordered delta loop.
        firings, stage = planner.scheduled_fixpoint(
            subprogram, current, adom,
            recorder=recorder, result=result, stage_start=stage,
            tracer=tracer,
        )
        result.rule_firings += firings
    result.stats = recorder.finish(adom_size=adom_size)
    return result
