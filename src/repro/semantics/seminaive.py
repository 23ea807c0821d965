"""Semi-naive bottom-up evaluation of plain Datalog.

The standard delta optimization: after the first stage, a rule can only
produce a *new* fact if at least one positive body literal matches a
fact derived in the previous stage.  Matching is therefore driven by a
delta database, avoiding the rediscovery of old consequences that makes
naive evaluation quadratic in the number of stages.

Produces exactly the minimum model computed by
:func:`repro.semantics.naive.evaluate_datalog_naive`; the benchmark
``benchmarks/test_engine_scaling.py`` measures the separation.
"""

from __future__ import annotations

from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.relational.instance import Database
from repro.semantics import planner
from repro.semantics.base import (
    EvaluationResult,
    StatsRecorder,
    evaluation_domain,
)
# Still bound here, though unused: the benchmark's tracer wraps a
# function at every module that imported it by name, and its tests
# check this binding.
from repro.semantics.base import evaluation_adom  # noqa: F401


def evaluate_datalog_seminaive(
    program: Program,
    db: Database,
    validate: bool = True,
    tracer=None,
) -> EvaluationResult:
    """Minimum model via semi-naive (delta-driven) evaluation.

    SCC-scheduled (:func:`repro.semantics.planner.scheduled_fixpoint`):
    one component at a time in topological order, each with its own
    delta loop.  A tracer rides along on the same schedule.
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
    recorder = StatsRecorder("seminaive", current, tracer=tracer)
    result.rule_firings, _ = planner.scheduled_fixpoint(
        program, current, adom, recorder=recorder, result=result,
        tracer=tracer,
    )
    result.stats = recorder.finish(adom_size=adom_size)
    return result
