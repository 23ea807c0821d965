"""Event-condition-action rules: the active-database layer of [104].

The paper (§4.3, §6) points to Datalog extensions "that model various
active databases" and to the production-rule systems where forward
chaining was first adopted.  The distinctive active-database feature
beyond Datalog¬¬ is *delta visibility*: a trigger reacts to the
**events** of the previous step — what was just inserted or deleted —
not merely to the current state.

An ECA program is a Datalog¬¬ program whose bodies may additionally
reference the reserved event relations

* ``ins_R(x̄)`` — R(x̄) was inserted at the previous step,
* ``del_R(x̄)`` — R(x̄) was deleted at the previous step,

with the run seeded by an initial *transaction* (a set of insertions
and deletions applied to the input).  Each step: (1) the event
relations are set to the previous step's changes; (2) all rules fire in
parallel (Datalog¬¬ conflict policy: positive wins); (3) the resulting
changes become the next step's events.  Quiescence = no changes; the
usual cycle detection proves non-quiescent trigger sets.

Example — a audit trigger::

    log(x, 'inserted') :- ins_account(x).
    cascade: !balance(x, b) :- del_account(x), balance(x, b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import EvaluationError, NonTerminationError, StepBudgetExceeded
from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.relational.instance import Database
from repro.semantics.base import (
    StageTrace,
    evaluation_adom,
    fact_set,
    immediate_consequences,
)

INSERT_PREFIX = "ins_"
DELETE_PREFIX = "del_"

Fact = tuple[str, tuple]


@dataclass(frozen=True)
class Transaction:
    """The external update that wakes the triggers up."""

    insertions: frozenset[Fact] = frozenset()
    deletions: frozenset[Fact] = frozenset()

    @classmethod
    def insert(cls, *facts: Fact) -> "Transaction":
        return cls(insertions=frozenset(facts))

    @classmethod
    def delete(cls, *facts: Fact) -> "Transaction":
        return cls(deletions=frozenset(facts))

    def merged(self, other: "Transaction") -> "Transaction":
        return Transaction(
            self.insertions | other.insertions,
            self.deletions | other.deletions,
        )


@dataclass
class ActiveResult:
    """Quiescent database plus the per-step trigger activity."""

    database: Database
    steps: list[StageTrace] = field(default_factory=list)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def answer(self, relation: str) -> frozenset[tuple]:
        return self.database.tuples(relation)


def event_relations(program: Program) -> set[str]:
    """The event relations the program listens to (ins_*/del_*)."""
    out = set()
    for relation in program.sch():
        if relation.startswith((INSERT_PREFIX, DELETE_PREFIX)):
            out.add(relation)
    return out


def _validate(program: Program) -> None:
    validate_program(program, Dialect.DATALOG_NEGNEG)
    for rule in program.rules:
        for relation in rule.head_relations():
            if relation.startswith((INSERT_PREFIX, DELETE_PREFIX)):
                raise EvaluationError(
                    f"event relation {relation!r} cannot be a rule head: "
                    "events are produced by the engine, not by rules"
                )


def run_triggers(
    program: Program,
    db: Database,
    transaction: Transaction,
    max_steps: int = 10_000,
    validate: bool = True,
) -> ActiveResult:
    """Apply ``transaction`` and fire the ECA rules until quiescence.

    Raises :class:`NonTerminationError` when the trigger set provably
    loops (a state, including its pending events, repeats).
    """
    if validate:
        _validate(program)
    current = db.copy()
    for relation in program.idb:
        current.ensure_relation(relation, program.arity(relation))
    result = ActiveResult(current)

    # Apply the external transaction; its changes are the first events.
    inserted: set[Fact] = set()
    deleted: set[Fact] = set()
    for relation, t in transaction.deletions:
        if current.remove_fact(relation, t):
            deleted.add((relation, t))
    for relation, t in transaction.insertions:
        if current.add_fact(relation, t):
            inserted.add((relation, t))

    listened = event_relations(program)
    seen: set[frozenset] = set()
    step = 0
    while inserted or deleted:
        step += 1
        if step > max_steps:
            raise StepBudgetExceeded(
                f"triggers did not quiesce after {max_steps} steps", max_steps
            )
        _set_events(current, listened, inserted, deleted)
        snapshot = current.canonical()
        if snapshot in seen:
            raise NonTerminationError(
                f"trigger state repeated at step {step}: the rule set "
                "never quiesces",
                stage=step,
            )
        seen.add(snapshot)

        adom = evaluation_adom(program, current)
        heads, negated, _ = immediate_consequences(program, current, adom)
        positive, negative = fact_set(heads), fact_set(negated)
        trace = StageTrace(step)
        inserted, deleted = set(), set()
        for relation, t in negative - positive:  # positive wins
            if current.remove_fact(relation, t):
                trace.removed_facts.append((relation, t))
                deleted.add((relation, t))
        for relation, t in positive:
            if current.add_fact(relation, t):
                trace.new_facts.append((relation, t))
                inserted.add((relation, t))
        if trace.new_facts or trace.removed_facts:
            result.steps.append(trace)

    _set_events(current, listened, set(), set())
    return result


def _set_events(
    db: Database,
    listened: set[str],
    inserted: Iterable[Fact],
    deleted: Iterable[Fact],
) -> None:
    """Overwrite the event relations with the latest step's changes."""
    by_event: dict[str, set[tuple]] = {event: set() for event in listened}
    for relation, t in inserted:
        event = INSERT_PREFIX + relation
        if event in by_event:
            by_event[event].add(t)
    for relation, t in deleted:
        event = DELETE_PREFIX + relation
        if event in by_event:
            by_event[event].add(t)
    for event, rows in by_event.items():
        arity = None
        existing = db.relation(event)
        if existing is not None:
            arity = existing.arity
        elif rows:
            arity = len(next(iter(rows)))
        if arity is None:
            continue
        db.ensure_relation(event, arity).replace(rows)
