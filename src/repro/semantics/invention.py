"""Datalog¬new: value invention — §4.3 of the paper.

Variables that occur in a rule's head but not in its body are valuated
*outside* the current active domain, inventing new values; this breaks
the polynomial space barrier and makes the language complete for all
computable queries (Theorem 4.6).

Semantics choice (documented in DESIGN.md): the paper extends each body
instantiation with *one* instantiation of the invention variables by
fresh distinct values, the choice being the only source of
nondeterminism.  Taken literally under inflationary semantics, a body
instantiation that persists across stages would invent fresh values at
every stage, and *every* program with invention would diverge.  We use
the standard Skolem reading that makes the construct usable (and is the
one IQL-style object creation uses): the invented values are a function
of (rule, body instantiation) — the same instantiation re-fired at a
later stage reuses the values it invented.  Results are deterministic
up to isomorphism of the invented values, matching the paper's
genericity discussion.

Invented values are :class:`InventedValue` objects, guaranteed disjoint
from any input domain; they join the active domain for later stages, so
chains of inventions (e.g. building a successor chain as long as |R|,
the key to the evenness query) work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.errors import StepBudgetExceeded, UnsafeAnswerError
from repro.relational.instance import Database
from repro.semantics.base import (
    EvaluationResult,
    StageTrace,
    StatsRecorder,
    instantiate_head,
    iter_matches,
)
from repro.terms import Var


@dataclass(frozen=True, slots=True)
class InventedValue:
    """A fresh value created by a Datalog¬new rule firing."""

    index: int

    def __repr__(self) -> str:
        return f"ν{self.index}"


def contains_invented(values) -> bool:
    """Does the iterable contain an invented value?"""
    return any(isinstance(v, InventedValue) for v in values)


def evaluate_with_invention(
    program: Program,
    db: Database,
    max_stages: int = 1_000,
    answer_relations: tuple[str, ...] = (),
    validate: bool = True,
    tracer=None,
) -> EvaluationResult:
    """Inflationary evaluation of a Datalog¬new program.

    ``answer_relations``, when given, are checked against the paper's
    safety restriction: the answer must contain only input-domain
    values (raises :class:`UnsafeAnswerError` otherwise).  Programs may
    diverge (the language is complete); ``max_stages`` bounds the run
    with :class:`StepBudgetExceeded`.
    """
    if validate:
        validate_program(program, Dialect.DATALOG_NEW)
    if tracer is not None and not tracer.enabled:
        tracer = None
    current = db.copy()
    for relation in program.idb:
        current.ensure_relation(relation, program.arity(relation))
    result = EvaluationResult(current)
    recorder = StatsRecorder("invention", current, tracer=tracer)

    base_values = program.constants() | db.active_domain()
    adom: list[Hashable] = sorted(
        base_values, key=lambda v: (type(v).__name__, repr(v))
    )
    invention_memo: dict[tuple[int, tuple], tuple] = {}
    next_invented = 0

    stage = 0
    while True:
        stage += 1
        if stage > max_stages:
            raise StepBudgetExceeded(
                f"no fixpoint after {max_stages} stages (invention programs "
                "may legitimately diverge)",
                max_stages,
            )
        trace = StageTrace(stage)
        frozen_adom = tuple(adom)
        invented_this_stage: list[InventedValue] = []
        # Parallel firing: collect every consequence against the stage's
        # starting instance, then apply — rules must not see facts added
        # earlier in the same stage.
        inferred: list[tuple[int, str, tuple]] = []
        stage_firings = 0
        spans = {}
        for rule_index, rule in enumerate(program.rules):
            invention_vars = sorted(
                rule.invention_variables(), key=lambda v: v.name
            )
            body_vars = sorted(rule.body_variables(), key=lambda v: v.name)
            span = None
            if tracer is not None:
                span = spans[rule_index] = tracer.rule_span(rule_index, rule)
            for valuation in iter_matches(
                rule, current, frozen_adom, span=span
            ):
                result.rule_firings += 1
                stage_firings += 1
                if span is not None:
                    span.firings += 1
                if invention_vars:
                    key = (
                        rule_index,
                        tuple(valuation[v] for v in body_vars),
                    )
                    fresh = invention_memo.get(key)
                    if fresh is None:
                        fresh_values = []
                        for _ in invention_vars:
                            value = InventedValue(next_invented)
                            next_invented += 1
                            fresh_values.append(value)
                            invented_this_stage.append(value)
                        fresh = tuple(fresh_values)
                        invention_memo[key] = fresh
                    extended: dict[Var, Hashable] = dict(valuation)
                    extended.update(zip(invention_vars, fresh))
                else:
                    extended = valuation
                for relation, t, positive in instantiate_head(rule, extended):
                    if positive:
                        inferred.append((rule_index, relation, t))
            if span is not None:
                # Fact application below is stage bookkeeping; the
                # span's clock covers this rule's matching only.
                span.stop()
        for rule_index, relation, t in inferred:
            added = current.add_fact(relation, t)
            if added:
                trace.new_facts.append((relation, t))
            if tracer is not None:
                spans[rule_index].emitted += 1
                if not added:
                    spans[rule_index].deduplicated += 1
        if tracer is not None:
            for span in spans.values():
                span.close()
        recorder.stage(stage, stage_firings, added=len(trace.new_facts),
                       trace=trace)
        if not trace.new_facts:
            break
        result.stages.append(trace)
        # Only values that actually reached the instance join the domain.
        used = {v for v in invented_this_stage}
        if used:
            adom.extend(sorted(used, key=lambda v: v.index))
    result.stats = recorder.finish(adom_size=len(adom))

    for relation in answer_relations:
        for t in result.database.tuples(relation):
            if contains_invented(t):
                raise UnsafeAnswerError(
                    f"answer relation {relation!r} contains invented value "
                    f"in tuple {t!r}"
                )
    return result


def strip_invented(db: Database, relations: tuple[str, ...]) -> Database:
    """A copy of ``db`` restricted to ``relations``, dropping any tuple
    containing an invented value (the runtime counterpart of the paper's
    syntactic safety restriction)."""
    out = Database()
    for relation in relations:
        rel = db.relation(relation)
        if rel is None:
            continue
        out.ensure_relation(relation, rel.arity)
        for t in rel:
            if not contains_invented(t):
                out.add_fact(relation, t)
    return out
