"""Nondeterministic forward chaining: N-Datalog¬(¬) and extensions — §5.

Instead of firing all rules in parallel, one rule instantiation fires at
a time, chosen nondeterministically (Definition 5.2).  The *effect*
eff(P) of a program is the relation {(I, J)} such that J is reachable
from I by firing instantiations and no firing can change J further.

Supported features, per the paper:

* several literals per head, equality and inequality in bodies
  (Definition 5.1);
* negative head literals = deletions (N-Datalog¬¬);
* the ⊥ head literal of N-Datalog¬⊥ — modelled as a reserved nullary
  fact, so a state enabling a ⊥-rule is never terminal: the run must
  eventually either take a different path or derive ⊥ and be
  abandoned.  This is what makes Example 5.5's program compute
  P − π_A(Q): runs that declare ``done-with-proj`` too early are
  trapped by the enabled ⊥ rule and filtered out of eff(P);
* ∀-quantified body variables of N-Datalog¬∀ (via
  :func:`repro.semantics.base.iter_universal_matches`).

Two drivers are provided: :func:`run_nondeterministic` samples a single
computation with a seeded RNG, and :func:`enumerate_effects` computes
eff(P) exactly by exhaustive search over the (finite) instance space —
exponential in general, intended for the small instances with which the
paper's results are demonstrated and tested.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.errors import EvaluationError, StepBudgetExceeded
from repro.relational.instance import Database
from repro.semantics.base import (
    EngineStats,
    StatsRecorder,
    evaluation_adom,
    instantiate_head,
    iter_matches,
    iter_universal_matches,
)

#: Reserved relation name for the ⊥ fact of N-Datalog¬⊥.
BOTTOM_RELATION = "__bottom__"

Fact = tuple[str, tuple]
StateKey = frozenset


@dataclass(frozen=True)
class Step:
    """One applied rule instantiation: what was inserted and deleted."""

    rule_index: int
    inserted: frozenset[Fact]
    deleted: frozenset[Fact]


@dataclass
class NondeterministicRun:
    """One sampled computation of a nondeterministic program."""

    database: Database
    steps: list[Step] = field(default_factory=list)
    aborted: bool = False  # ⊥ was derived
    stats: EngineStats = field(default_factory=EngineStats, repr=False, compare=False)

    @property
    def step_count(self) -> int:
        return len(self.steps)

    def answer(self, relation: str) -> frozenset[tuple]:
        return self.database.tuples(relation)


def _dialect_for(program: Program) -> Dialect:
    if program.uses_invention():
        return Dialect.N_DATALOG_NEW
    if program.uses_universal():
        return Dialect.N_DATALOG_FORALL
    if program.uses_bottom():
        return Dialect.N_DATALOG_BOTTOM
    if program.uses_negative_heads():
        return Dialect.N_DATALOG_NEGNEG
    return Dialect.N_DATALOG_NEG


def _rule_matches(rule, db, adom, span=None) -> Iterator[dict]:
    if rule.universal:
        # ∀-rules verify each candidate outside the join: no counts.
        return iter_universal_matches(rule, db, adom)
    return iter_matches(rule, db, adom, span=span)


def _candidate_steps(
    program: Program, db: Database, adom, inventor=None, stats=None,
    tracer=None,
) -> tuple[list[Step], int]:
    """Every applicable instantiation that would change the instance,
    plus the number of instantiations considered.

    Respects condition (ii) of Definition 5.2: instantiations whose
    head contains both a literal and its negation are discarded.
    ``inventor`` (a zero-argument callable returning a fresh value)
    enables N-Datalog¬new rules; candidates that are not applied simply
    discard the values they drew.
    """
    if stats is not None:
        stats.consequence_calls += 1
    firings = 0
    candidates: dict[tuple, Step] = {}
    for rule_index, rule in enumerate(program.rules):
        invention_vars = tuple(
            sorted(rule.invention_variables(), key=lambda v: v.name)
        )
        if invention_vars and inventor is None:
            raise EvaluationError(
                "program invents values (N-Datalog¬new); use "
                "run_nondeterministic — eff(P) enumeration over an "
                "unbounded invented domain is not supported"
            )
        span = None
        if tracer is not None:
            span = tracer.rule_span(rule_index, rule)
        for valuation in _rule_matches(rule, db, adom, span=span):
            firings += 1
            if span is not None:
                span.firings += 1
            if invention_vars:
                valuation = dict(valuation)
                valuation.update(
                    (var, inventor()) for var in invention_vars
                )
            inserts: set[Fact] = set()
            deletes: set[Fact] = set()
            for relation, t, positive in instantiate_head(rule, valuation):
                (inserts if positive else deletes).add((relation, t))
            if rule.has_bottom_head():
                inserts.add((BOTTOM_RELATION, ()))
            if inserts & deletes:
                continue  # inconsistent head: not a legal instantiation
            effective_inserts = frozenset(
                f for f in inserts if not db.has_fact(*f)
            )
            effective_deletes = frozenset(f for f in deletes if db.has_fact(*f))
            if span is not None:
                span.emitted += len(inserts)
                span.deduplicated += len(inserts) - len(effective_inserts)
            if not effective_inserts and not effective_deletes:
                continue  # J = I: does not count as a successor
            key = (rule_index, effective_inserts, effective_deletes)
            if key not in candidates:
                candidates[key] = Step(rule_index, effective_inserts, effective_deletes)
        if span is not None:
            span.close()
    ordered = sorted(
        candidates.values(),
        key=lambda s: (s.rule_index, sorted(map(repr, s.inserted)), sorted(map(repr, s.deleted))),
    )
    return ordered, firings


def _apply(db: Database, step: Step) -> None:
    for relation, t in step.deleted:
        db.remove_fact(relation, t)
    for relation, t in step.inserted:
        db.add_fact(relation, t)


def run_nondeterministic(
    program: Program,
    db: Database,
    seed: int | random.Random = 0,
    max_steps: int = 10_000,
    validate: bool = True,
    tracer=None,
) -> NondeterministicRun:
    """Sample one computation, firing uniformly random applicable steps.

    The run ends at a terminal instance (no applicable instantiation
    changes it), or with ``aborted=True`` as soon as ⊥ is derived.
    Deterministic for a fixed seed.
    """
    if validate:
        validate_program(program, _dialect_for(program))
    if tracer is not None and not tracer.enabled:
        tracer = None
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    current = db.copy()
    for relation in program.idb:
        current.ensure_relation(relation, program.arity(relation))
    adom = list(evaluation_adom(program, db))
    adom_seen = set(adom)
    run = NondeterministicRun(current)
    recorder = StatsRecorder("nondeterministic", current, tracer=tracer)

    inventor = None
    if program.uses_invention():
        from repro.semantics.invention import InventedValue

        counter = iter(range(10**9))
        inventor = lambda: InventedValue(next(counter))  # noqa: E731

    while True:
        if len(run.steps) >= max_steps:
            raise StepBudgetExceeded(
                f"no terminal instance after {max_steps} steps", max_steps
            )
        candidates, firings = _candidate_steps(
            program, current, tuple(adom), inventor, stats=recorder.stats,
            tracer=tracer,
        )
        if not candidates:
            recorder.stage(len(run.steps) + 1, firings)
            run.stats = recorder.finish(adom_size=len(adom))
            return run
        step = rng.choice(candidates)
        _apply(current, step)
        run.steps.append(step)
        recorder.stage(
            len(run.steps),
            firings,
            added=len(step.inserted),
            removed=len(step.deleted),
        )
        # Applied invented values join the active domain (adom(P, K)).
        for _, t in step.inserted:
            for value in t:
                if value not in adom_seen:
                    adom_seen.add(value)
                    adom.append(value)
        if any(rel == BOTTOM_RELATION for rel, _ in step.inserted):
            run.aborted = True
            run.stats = recorder.finish(adom_size=len(adom))
            return run


def sample_effects(
    program: Program,
    db: Database,
    samples: int = 20,
    seed: int = 0,
    max_steps: int = 10_000,
) -> set[StateKey]:
    """Terminal instances observed over ``samples`` random runs.

    Aborted (⊥) runs are discarded; a subset of the true eff(P) image.
    """
    rng = random.Random(seed)
    seen: set[StateKey] = set()
    for _ in range(samples):
        run = run_nondeterministic(
            program, db, seed=rng.randrange(2**31), max_steps=max_steps,
            validate=False,
        )
        if not run.aborted:
            seen.add(run.database.canonical())
    return seen


def enumerate_effects(
    program: Program,
    db: Database,
    max_states: int = 100_000,
    validate: bool = True,
) -> set[StateKey]:
    """eff(P) on input ``db``: the set of reachable terminal instances.

    Exhaustive depth-first search over the instance-state graph with
    memoization; states containing ⊥ are abandoned and never terminal.
    Raises :class:`StepBudgetExceeded` past ``max_states`` explored
    states.  Each returned state is a frozenset of (relation, tuple)
    facts — convert with ``Database.from_facts`` as needed.
    """
    if validate:
        validate_program(program, _dialect_for(program))
    start = db.copy()
    for relation in program.idb:
        start.ensure_relation(relation, program.arity(relation))
    adom = evaluation_adom(program, db)

    visited: set[StateKey] = set()
    terminal: set[StateKey] = set()
    stack: list[StateKey] = [start.canonical()]
    visited.add(stack[0])

    while stack:
        state = stack.pop()
        if any(rel == BOTTOM_RELATION for rel, _ in state):
            continue  # abandoned computation
        current = Database.from_facts(state)
        for relation in program.sch():
            current.ensure_relation(relation, program.arity(relation))
        candidates, _ = _candidate_steps(program, current, adom)
        if not candidates:
            terminal.add(state)
            continue
        for step in candidates:
            successor = frozenset((state - step.deleted) | step.inserted)
            if successor not in visited:
                visited.add(successor)
                if len(visited) > max_states:
                    raise StepBudgetExceeded(
                        f"state space exceeds max_states={max_states}", max_states
                    )
                stack.append(successor)
    return terminal


def effects_as_databases(effects: set[StateKey]) -> list[Database]:
    """Convert enumerated terminal states into Database objects."""
    return [Database.from_facts(state) for state in sorted(effects, key=repr)]


def answers_in_effects(effects: set[StateKey], relation: str) -> set[frozenset]:
    """The possible contents of ``relation`` across terminal instances."""
    out: set[frozenset] = set()
    for state in effects:
        out.add(frozenset(t for rel, t in state if rel == relation))
    return out


def is_deterministic_on(
    program: Program, db: Database, relation: str, max_states: int = 100_000
) -> bool:
    """Does every terminal instance agree on ``relation``?

    The semantic notion behind det(L) (Definition 5.8), checked on one
    input.  Undecidable in general over all inputs — Theorem 5.9's
    caveat — but decidable per instance, which the tests exploit.
    """
    effects = enumerate_effects(program, db, max_states=max_states, validate=False)
    if not effects:
        raise EvaluationError("program has no terminating computation on this input")
    return len(answers_in_effects(effects, relation)) == 1
