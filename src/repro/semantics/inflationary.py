"""Inflationary (forward chaining) Datalog¬ — §4.1 of the paper.

The rules are fired in parallel with all applicable instantiations; a
negative literal ¬A holds if A has *not been inferred so far*, which
does not preclude A from being inferred later.  Facts accumulate (the
"inflation of tuples"), so the stage sequence

    Γ_P(I) ⊆ Γ²_P(I) ⊆ Γ³_P(I) ⊆ …

reaches a fixpoint Γ^ω_P(I) in polynomially many stages.  By
Theorem 4.2 this language expresses exactly the fixpoint queries.

The engine is delta-driven: after stage 1, a new consequence must use a
fact derived in the previous stage through some *positive* literal —
growth of the instance can only invalidate negative literals, never
reveal new matches through them — so restricting matching to the delta
is sound and keeps stages cheap.  Each stage's negative literals are
checked against the *full* current instance, as the semantics requires.
The per-stage trace is exposed because the paper leans on stage
numbers: in Example 4.1, T(x, y) is first derived at stage d(x, y).
"""

from __future__ import annotations

from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.relational.instance import Database
from repro.semantics.base import (
    EvaluationResult,
    StageTrace,
    StatsRecorder,
    evaluation_adom,
    immediate_consequences,
)
from repro.semantics.planner import absorb


def evaluate_inflationary(
    program: Program,
    db: Database,
    validate: bool = True,
    use_delta: bool = True,
    tracer=None,
) -> EvaluationResult:
    """Γ^ω_P(I): the inflationary fixpoint of ``program`` on ``db``.

    ``use_delta=False`` forces the textbook stage-by-stage recomputation
    (every stage considers all instantiations); the results coincide —
    a property-based test and a benchmark both check this.
    """
    if validate:
        validate_program(program, Dialect.DATALOG_NEG)
    if tracer is not None and not tracer.enabled:
        tracer = None
    current = db.copy()
    for relation in program.idb:
        current.ensure_relation(relation, program.arity(relation))
    adom = evaluation_adom(program, db)
    result = EvaluationResult(current)
    recorder = StatsRecorder("inflationary", current, tracer=tracer)

    # Stage 1 considers all instantiations; every later stage only
    # those using a fact of the previous stage's delta, unless
    # ``use_delta`` is off.  Facts only accumulate, so every pass is
    # add-only and each stage is absorbed relation by relation.
    delta: dict[str, list[tuple]] | None = None
    stage = 0
    while delta is None or delta:
        stage += 1
        frozen = None
        if delta is not None and use_delta:
            frozen = {rel: frozenset(ts) for rel, ts in delta.items()}
        positive, _negative, firings = immediate_consequences(
            program, current, adom, delta=frozen, stats=recorder.stats,
            tracer=tracer, add_only=True,
        )
        result.rule_firings += firings
        trace = StageTrace(stage)
        delta = absorb(current, positive)
        for relation, fresh in delta.items():
            trace.new_facts.extend((relation, t) for t in fresh)
        recorder.stage(stage, firings, added=len(trace.new_facts), trace=trace)
        if trace.new_facts:
            result.stages.append(trace)
    result.stats = recorder.finish(adom_size=len(adom))
    return result
