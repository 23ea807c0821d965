"""Naive bottom-up evaluation of plain Datalog (§3.1).

Computes the minimum model of P(I) by iterating the immediate
consequence operator from the input until fixpoint.  For negation-free
programs this coincides with both the declarative (minimum-model)
semantics and the inflationary semantics — the "perfect match" the
paper notes is lost once negation enters.

This is the reference implementation; :mod:`repro.semantics.seminaive`
computes the same result faster.
"""

from __future__ import annotations

from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.relational.instance import Database
from repro.semantics.base import (
    EvaluationResult,
    StageTrace,
    StatsRecorder,
    evaluation_domain,
    immediate_consequences,
)


def evaluate_datalog_naive(
    program: Program,
    db: Database,
    validate: bool = True,
    tracer=None,
) -> EvaluationResult:
    """Minimum model of a plain Datalog program over the input ``db``.

    The input is copied — the caller's database is never mutated.  The
    result's database holds edb and idb relations; the idb part is the
    minimum model restricted to idb(P).  ``tracer`` (a
    :class:`repro.obs.Tracer`) receives the run's event stream.
    """
    if validate:
        validate_program(program, Dialect.DATALOG)
    if tracer is not None and not tracer.enabled:
        tracer = None
    current = db.copy()
    for relation in program.idb:
        current.ensure_relation(relation, program.arity(relation))
    adom, adom_size = evaluation_domain(program, db)
    result = EvaluationResult(current)
    recorder = StatsRecorder("naive", current, tracer=tracer)
    stage = 0
    while True:
        stage += 1
        positive, _negative, firings = immediate_consequences(
            program, current, adom, stats=recorder.stats, tracer=tracer
        )
        result.rule_firings += firings
        trace = StageTrace(stage)
        for relation, ts in positive.items():
            for t in ts:
                if current.add_fact(relation, t):
                    trace.new_facts.append((relation, t))
        recorder.stage(stage, firings, added=len(trace.new_facts), trace=trace)
        if not trace.new_facts:
            break
        result.stages.append(trace)
    result.stats = recorder.finish(adom_size=adom_size)
    return result
