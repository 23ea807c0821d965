"""Datalog with the choice operator — the §5.2 discussion made concrete.

The paper: "another way to introduce nondeterminism in rule-based
languages is provided by the choice operator first presented in [90]
... included in the language LDL", with [52] showing that Datalog with
(dynamic) choice computes exactly ndb-ptime.

A choice goal ``choice((X̄), (Ȳ))`` in a rule body constrains the
rule's firings: across the whole evaluation, the mapping X̄ → Ȳ
witnessed by actual firings must be a *function*.  We implement the
operational *dynamic choice* semantics: evaluation proceeds in
forward-chaining stages; instantiations are considered in a seeded
random order, and one whose choice goals conflict with a commitment
made earlier (possibly earlier in the same stage) is discarded.  Once
made, commitments are never revised — which is what makes the
evaluation polynomial (each candidate fires or dies exactly once).

Negation is allowed and interpreted inflationarily, as everywhere in
the forward-chaining family.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable

from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.ast.rules import ChoiceLit
from repro.relational.instance import Database
from repro.semantics.base import (
    EvaluationResult,
    StageTrace,
    StatsRecorder,
    evaluation_adom,
    instantiate_head,
    iter_matches,
)
from repro.terms import Var


@dataclass
class ChoiceResult(EvaluationResult):
    """Adds the chosen functions to the usual evaluation result.

    ``choices`` maps (rule index, goal index) to the committed
    function: domain-values tuple → range-values tuple.
    """

    choices: dict[tuple[int, int], dict[tuple, tuple]] = field(default_factory=dict)

    def chosen_function(self, rule_index: int, goal_index: int = 0) -> dict[tuple, tuple]:
        return dict(self.choices.get((rule_index, goal_index), {}))


def _goal_key(goal: ChoiceLit, valuation: dict[Var, Hashable]) -> tuple[tuple, tuple]:
    domain = tuple(valuation[v] for v in goal.domain)
    chosen = tuple(valuation[v] for v in goal.range)
    return domain, chosen


def evaluate_with_choice(
    program: Program,
    db: Database,
    seed: int | random.Random = 0,
    validate: bool = True,
    tracer=None,
) -> ChoiceResult:
    """Inflationary evaluation under dynamic choice (seeded).

    Deterministic for a fixed seed; different seeds may commit to
    different functions, and thus different answers — the engine
    implements a *nondeterministic query* in the paper's sense.
    """
    if validate:
        validate_program(program, Dialect.DATALOG_CHOICE)
    if tracer is not None and not tracer.enabled:
        tracer = None
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    current = db.copy()
    for relation in program.idb:
        current.ensure_relation(relation, program.arity(relation))
    adom = evaluation_adom(program, db)
    result = ChoiceResult(current)
    recorder = StatsRecorder("choice", current, tracer=tracer)
    choices: dict[tuple[int, int], dict[tuple, tuple]] = {}

    stage = 0
    while True:
        stage += 1
        trace = StageTrace(stage)
        # Collect this stage's candidate firings against the stage-start
        # instance (parallel semantics for matching)...
        candidates: list[tuple[int, dict[Var, Hashable]]] = []
        spans = {}
        for rule_index, rule in enumerate(program.rules):
            span = None
            if tracer is not None:
                span = spans[rule_index] = tracer.rule_span(rule_index, rule)
            for valuation in iter_matches(rule, current, adom, span=span):
                result.rule_firings += 1
                candidates.append((rule_index, dict(valuation)))
                if span is not None:
                    span.firings += 1
            if span is not None:
                # Freeze the clock at end-of-matching: the shuffled
                # commit pass below is choice bookkeeping, not joining.
                span.stop()
        stage_firings = len(candidates)
        # ...but commit choices sequentially, in random order (dynamic
        # choice): earlier commitments prune later candidates.
        rng.shuffle(candidates)
        new_facts: list[tuple[int, str, tuple]] = []
        for rule_index, valuation in candidates:
            rule = program.rules[rule_index]
            compatible = True
            commitments: list[tuple[tuple[int, int], tuple, tuple]] = []
            for goal_index, goal in enumerate(rule.choice_body()):
                domain, chosen = _goal_key(goal, valuation)
                table = choices.setdefault((rule_index, goal_index), {})
                existing = table.get(domain)
                if existing is None:
                    commitments.append(((rule_index, goal_index), domain, chosen))
                elif existing != chosen:
                    compatible = False
                    break
            if not compatible:
                continue
            for key, domain, chosen in commitments:
                choices[key][domain] = chosen
            for relation, t, positive in instantiate_head(rule, valuation):
                if positive:
                    new_facts.append((rule_index, relation, t))
        for rule_index, relation, t in new_facts:
            added = current.add_fact(relation, t)
            if added:
                trace.new_facts.append((relation, t))
            if tracer is not None:
                span = spans[rule_index]
                span.emitted += 1
                if not added:
                    span.deduplicated += 1
        if tracer is not None:
            for span in spans.values():
                span.close()
        recorder.stage(stage, stage_firings, added=len(trace.new_facts),
                       trace=trace)
        if not trace.new_facts:
            break
        result.stages.append(trace)
    result.choices = choices
    result.stats = recorder.finish(adom_size=len(adom))
    return result


def choice_is_functional(result: ChoiceResult) -> bool:
    """Invariant check: every committed choice table is a function."""
    for table in result.choices.values():
        if len(table) != len(set(table.keys())):
            return False
    return True
