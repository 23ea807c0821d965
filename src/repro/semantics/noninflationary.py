"""Datalog¬¬: forward chaining with retraction — §4.2 of the paper.

Negative literals in rule heads are interpreted as deletions, and input
(edb) relations may occur in heads, so programs can update their input.
The immediate consequence operator computes, in one parallel firing,
the set of inferred positive facts and inferred negations; how a
simultaneous inference of A and ¬A is resolved is the *conflict
policy*.  The paper's chosen semantics gives priority to positive
inferences; the three alternatives it lists are also implemented and
the languages are equivalent (the tests demonstrate inter-simulations
on examples):

* ``POSITIVE_WINS`` (the paper's choice): A is removed only when ¬A is
  inferred and A is not;
* ``NEGATIVE_WINS``: deletions win over insertions;
* ``NO_OP``: a conflicting fact keeps its previous status;
* ``CONTRADICTION``: a conflict makes the result undefined
  (:class:`~repro.errors.ContradictionError`).

Termination is no longer guaranteed: the paper's flip-flop program
oscillates between {T(0)} and {T(1)} forever.  Because the computation
is deterministic, revisiting an instance proves nontermination — the
engine keeps a set of canonical snapshots and raises
:class:`~repro.errors.NonTerminationError` on a repeat.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.errors import ContradictionError, NonTerminationError, StepBudgetExceeded
from repro.relational.instance import Database
from repro.semantics.base import (
    EvaluationResult,
    StageTrace,
    StatsRecorder,
    evaluation_domain,
    fact_set,
    immediate_consequences,
)


class ConflictPolicy(enum.Enum):
    """Resolution of the simultaneous inference of A and ¬A (§4.2)."""

    POSITIVE_WINS = "positive-wins"
    NEGATIVE_WINS = "negative-wins"
    NO_OP = "no-op"
    CONTRADICTION = "contradiction"


@dataclass
class NoninflationaryResult(EvaluationResult):
    """Adds the conflict counts per stage to the usual result."""

    conflicts: list[int] = field(default_factory=list)


def evaluate_noninflationary(
    program: Program,
    db: Database,
    policy: ConflictPolicy = ConflictPolicy.POSITIVE_WINS,
    max_stages: int = 10_000,
    detect_cycles: bool = True,
    validate: bool = True,
    tracer=None,
) -> NoninflationaryResult:
    """Run a Datalog¬¬ program to fixpoint.

    Raises :class:`NonTerminationError` when the (deterministic) state
    sequence revisits an instance, :class:`StepBudgetExceeded` past
    ``max_stages`` with cycle detection off, and
    :class:`ContradictionError` under the ``CONTRADICTION`` policy.
    """
    if validate:
        validate_program(program, Dialect.DATALOG_NEGNEG)
    if tracer is not None and not tracer.enabled:
        tracer = None
    current = db.copy()
    for relation in program.idb:
        current.ensure_relation(relation, program.arity(relation))
    adom, adom_size = evaluation_domain(program, db)
    result = NoninflationaryResult(current)
    recorder = StatsRecorder("noninflationary", current, tracer=tracer)
    seen: set[frozenset] = set()
    if detect_cycles:
        seen.add(current.canonical())

    stage = 0
    while True:
        stage += 1
        if stage > max_stages:
            raise StepBudgetExceeded(
                f"no fixpoint after {max_stages} stages", max_stages
            )
        heads, negated, firings = immediate_consequences(
            program, current, adom, stats=recorder.stats, tracer=tracer
        )
        positive, negative = fact_set(heads), fact_set(negated)
        result.rule_firings += firings
        conflicts = positive & negative
        if conflicts and policy is ConflictPolicy.CONTRADICTION:
            sample = sorted(conflicts, key=repr)[0]
            raise ContradictionError(
                f"fact {sample[0]}{sample[1]} inferred both positively and "
                f"negatively at stage {stage}"
            )
        if policy is ConflictPolicy.POSITIVE_WINS:
            to_delete = negative - positive
            to_insert = positive
        elif policy is ConflictPolicy.NEGATIVE_WINS:
            to_delete = negative
            to_insert = positive - negative
        else:  # NO_OP: conflicting facts keep their previous status.
            to_delete = {
                fact for fact in negative - positive
            }
            to_insert = {fact for fact in positive - negative}

        trace = StageTrace(stage)
        for relation, t in to_delete:
            if current.remove_fact(relation, t):
                trace.removed_facts.append((relation, t))
        for relation, t in to_insert:
            if current.add_fact(relation, t):
                trace.new_facts.append((relation, t))
        result.conflicts.append(len(conflicts))
        recorder.stage(
            stage,
            firings,
            added=len(trace.new_facts),
            removed=len(trace.removed_facts),
            trace=trace,
        )
        if not trace.new_facts and not trace.removed_facts:
            break
        result.stages.append(trace)
        if detect_cycles:
            snapshot = current.canonical()
            if snapshot in seen:
                raise NonTerminationError(
                    f"instance revisited at stage {stage}: the computation "
                    "cycles and never reaches a fixpoint",
                    stage=stage,
                )
            seen.add(snapshot)
    result.stats = recorder.finish(adom_size=adom_size)
    return result


def terminates(
    program: Program,
    db: Database,
    policy: ConflictPolicy = ConflictPolicy.POSITIVE_WINS,
    max_stages: int = 10_000,
) -> bool:
    """Does the program reach a fixpoint on this input?

    Decidable here because the state space is finite and the sequence
    deterministic: either a fixpoint or a repeated state is reached.
    """
    try:
        evaluate_noninflationary(
            program, db, policy=policy, max_stages=max_stages, detect_cycles=True
        )
    except NonTerminationError:
        return False
    return True
