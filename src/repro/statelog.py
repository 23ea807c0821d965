"""Statelog-lite: state-oriented forward chaining (§6 of the paper).

The paper's conclusion: Datalog-like languages with forward chaining
semantics "remain common in a limited class of applications, mostly
those that can be viewed as data-driven reactive systems" — active
databases (Statelog [91]), declarative networking (Dedalus [19]),
data-driven workflows.  This module implements the shared core of
those languages, in the Dedalus style:

* **deductive** rules hold *within* a state: they are evaluated to
  fixpoint under stratified semantics at each time step;
* **inductive** rules (written with a ``+`` prefix) carry facts *into
  the next state*: their heads become the base facts of step t+1.

Persistence is explicit, as in Dedalus: a relation survives to the
next state only via a frame rule ``+R(x̄) :- R(x̄), …`` (see
:func:`frame_rules`).  Execution stops at a *stable state* (step t+1
equals step t) or when the step budget runs out; a repeated earlier
state proves the system oscillates.

Syntax::

    parse_statelog('''
        % deductive: alarm status derived within the state
        alarm(x) :- sensor(x, 'high').

        % inductive: the next state's log accumulates alarms
        +log(x) :- alarm(x).
        +log(x) :- log(x).          % frame rule: the log persists
    ''')
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import EvaluationError, NonTerminationError, StepBudgetExceeded
from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.ast.rules import Lit, Rule
from repro.logic.formula import Atom
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.base import (
    EngineStats,
    StatsRecorder,
    evaluation_adom,
    instantiate_head,
    iter_matches,
)
from repro.semantics.stratified import evaluate_stratified
from repro.terms import Var


@dataclass(frozen=True)
class StatelogProgram:
    """Deductive rules (within a state) + inductive rules (to the next)
    + async rules (``~``-prefixed: delivered at a nondeterministically
    later state — Dedalus's async construct, see §6's declarative
    networking discussion)."""

    deductive: tuple[Rule, ...]
    inductive: tuple[Rule, ...]
    asynchronous: tuple[Rule, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not self.deductive and not self.inductive and not self.asynchronous:
            raise EvaluationError("a Statelog program needs at least one rule")

    def deductive_program(self) -> Program | None:
        if not self.deductive:
            return None
        return Program(self.deductive, name=f"{self.name}-deductive")

    def inductive_program(self) -> Program | None:
        if not self.inductive:
            return None
        return Program(self.inductive, name=f"{self.name}-inductive")


@dataclass
class StatelogResult:
    """The run: one database per state, first to last (stable) state."""

    states: list[Database] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats, repr=False, compare=False)

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    def final(self) -> Database:
        return self.states[-1]

    def answer(self, relation: str) -> frozenset[tuple]:
        return self.final().tuples(relation)

    def history(self, relation: str) -> list[frozenset[tuple]]:
        """The relation's content at each state."""
        return [state.tuples(relation) for state in self.states]


def parse_statelog(text: str, name: str = "") -> StatelogProgram:
    """Parse the Statelog surface syntax.

    A rule whose first non-blank character (after comments) is ``+`` is
    inductive; everything else is deductive.  The ``+`` must begin the
    rule (rules start on fresh lines).
    """
    chunks: list[tuple[str, str]] = []  # (kind, rule text)
    open_chunk = False
    for raw_line in text.splitlines():
        line = raw_line.split("%")[0].split("#")[0].strip()
        if not line:
            continue
        if open_chunk:
            kind, body = chunks[-1]
            chunks[-1] = (kind, body + " " + line)
        elif line.startswith("+"):
            chunks.append(("inductive", line[1:]))
        elif line.startswith("~"):
            chunks.append(("async", line[1:]))
        else:
            chunks.append(("deductive", line))
        open_chunk = not chunks[-1][1].rstrip().endswith(".")
    if open_chunk:
        raise EvaluationError("unterminated Statelog rule (missing '.')")

    def rules_of(kind: str) -> tuple[Rule, ...]:
        text_block = "\n".join(body for k, body in chunks if k == kind)
        return tuple(parse_program(text_block).rules) if text_block else ()

    return StatelogProgram(
        rules_of("deductive"), rules_of("inductive"), rules_of("async"), name=name
    )


def frame_rules(relations: dict[str, int]) -> list[Rule]:
    """Explicit persistence rules ``+R(x̄) :- R(x̄)`` for each relation."""
    rules = []
    for relation, arity in sorted(relations.items()):
        variables = tuple(Var(f"fr{i}") for i in range(arity))
        atom = Atom(relation, variables)
        rules.append(Rule((Lit(atom),), (Lit(atom),)))
    return rules


def run_statelog(
    program: StatelogProgram,
    initial: Database,
    max_steps: int = 1_000,
    validate: bool = True,
) -> StatelogResult:
    """Run to a stable state.

    Each step: (1) close the current state under the deductive rules
    (stratified semantics — the deductive core must be stratifiable);
    (2) fire every inductive rule against the closed state; their head
    facts form the next state's base.  Raises
    :class:`NonTerminationError` if a state repeats without stabilizing
    and :class:`StepBudgetExceeded` past ``max_steps``.
    """
    deductive = program.deductive_program()
    inductive = program.inductive_program()
    if validate:
        if deductive is not None:
            validate_program(deductive, Dialect.STRATIFIED)
        if inductive is not None:
            validate_program(inductive, Dialect.DATALOG_NEG)

    result = StatelogResult()
    recorder = StatsRecorder("statelog")
    current_base = initial.copy()
    seen: set[frozenset] = set()

    for step in range(max_steps + 1):
        # (1) deductive closure of the state.
        step_firings = 0
        if deductive is not None:
            closed_result = evaluate_stratified(deductive, current_base, validate=False)
            closed = closed_result.database
            step_firings += closed_result.rule_firings
            recorder.stats.consequence_calls += closed_result.stats.consequence_calls
        else:
            closed = current_base.copy()
        result.states.append(closed)

        snapshot = closed.canonical()
        if snapshot in seen:
            raise NonTerminationError(
                f"state repeated at step {step}: the reactive system oscillates",
                stage=step,
            )
        seen.add(snapshot)

        # (2) inductive rules produce the next base state.
        if inductive is None:
            recorder.stage(step, step_firings, counters=closed.index_totals())
            result.stats = recorder.finish(adom_size=len(closed.active_domain()))
            return result
        next_base = Database()
        adom = evaluation_adom(inductive, closed)
        for rule in inductive.rules:
            for valuation in iter_matches(rule, closed, adom):
                step_firings += 1
                for relation, t, positive in instantiate_head(rule, valuation):
                    if positive:
                        next_base.add_fact(relation, t)
        recorder.stage(
            step,
            step_firings,
            added=next_base.fact_count(),
            counters=closed.index_totals(),
        )
        if deductive is not None:
            next_closed = evaluate_stratified(
                deductive, next_base, validate=False
            ).database
        else:
            next_closed = next_base
        if next_closed.canonical() == snapshot:
            result.stats = recorder.finish(adom_size=len(adom))
            return result  # stable state
        current_base = next_base

    raise StepBudgetExceeded(
        f"no stable state after {max_steps} steps", max_steps
    )


def run_async_statelog(
    program: StatelogProgram,
    initial: Database,
    seed: int | random.Random = 0,
    max_delay: int = 3,
    max_steps: int = 1_000,
    validate: bool = True,
) -> StatelogResult:
    """Run with Dedalus-style asynchronous delivery.

    ``~`` rules send their head facts as *messages*: each distinct
    async conclusion is delivered exactly once, at a nondeterministic
    delay of 1..``max_delay`` steps (seeded).  Deductive and inductive
    rules behave as in :func:`run_statelog`.  The run ends at a stable
    state with no messages in flight.

    This is the execution model behind the paper's declarative-
    networking discussion (§6): by the CALM intuition, *monotone*
    programs reach the same final state on every schedule (any seed),
    while programs whose deductive/inductive rules negate message-
    carried relations can race — the tests demonstrate both.
    """
    deductive = program.deductive_program()
    inductive = program.inductive_program()
    asynchronous = (
        Program(program.asynchronous, name=f"{program.name}-async")
        if program.asynchronous
        else None
    )
    if validate:
        if deductive is not None:
            validate_program(deductive, Dialect.STRATIFIED)
        for part in (inductive, asynchronous):
            if part is not None:
                validate_program(part, Dialect.DATALOG_NEG)

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    result = StatelogResult()
    recorder = StatsRecorder("statelog-async")
    current_base = initial.copy()
    pending: dict[int, set] = {}
    sent: set = set()
    seen: set[frozenset] = set()

    for step in range(max_steps + 1):
        step_firings = 0
        if deductive is not None:
            closed_result = evaluate_stratified(deductive, current_base, validate=False)
            closed = closed_result.database
            step_firings += closed_result.rule_firings
            recorder.stats.consequence_calls += closed_result.stats.consequence_calls
        else:
            closed = current_base.copy()
        result.states.append(closed)

        # Relative delivery offsets: two states differing only in how
        # far a message still has to travel are different states.
        in_flight = frozenset(
            (when - step, fact)
            for when, facts in pending.items()
            for fact in facts
        )
        snapshot = (closed.canonical(), in_flight)
        if snapshot in seen:
            raise NonTerminationError(
                f"state and in-flight messages repeated at step {step}",
                stage=step,
            )
        seen.add(snapshot)

        # Fire async rules: schedule each *new* conclusion once.
        if asynchronous is not None:
            adom = evaluation_adom(asynchronous, closed)
            for rule in asynchronous.rules:
                for valuation in iter_matches(rule, closed, adom):
                    step_firings += 1
                    for relation, t, positive in instantiate_head(rule, valuation):
                        fact = (relation, t)
                        if positive and fact not in sent:
                            sent.add(fact)
                            delay = rng.randint(1, max_delay)
                            pending.setdefault(step + delay, set()).add(fact)

        # Inductive rules + due deliveries form the next base.
        next_base = Database()
        if inductive is not None:
            adom = evaluation_adom(inductive, closed)
            for rule in inductive.rules:
                for valuation in iter_matches(rule, closed, adom):
                    step_firings += 1
                    for relation, t, positive in instantiate_head(rule, valuation):
                        if positive:
                            next_base.add_fact(relation, t)
        for relation, t in pending.pop(step + 1, set()):
            next_base.add_fact(relation, t)
        recorder.stage(
            step,
            step_firings,
            added=next_base.fact_count(),
            counters=closed.index_totals(),
        )

        if not pending:
            next_closed = (
                evaluate_stratified(deductive, next_base, validate=False).database
                if deductive is not None
                else next_base
            )
            if next_closed.canonical() == closed.canonical():
                result.stats = recorder.finish(
                    adom_size=len(closed.active_domain())
                )
                return result  # stable, nothing in flight
        current_base = next_base

    raise StepBudgetExceeded(
        f"no stable state after {max_steps} steps", max_steps
    )
