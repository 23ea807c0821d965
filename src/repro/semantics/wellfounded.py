"""The well-founded semantics (§3.3) via Van Gelder's alternating fixpoint.

The well-founded model is 3-valued: each idb fact is true, false, or
unknown.  We compute it with the alternating fixpoint construction the
paper cites for the expressiveness result (well-founded ≡ fixpoint
queries):

* ``S(J)`` — the least model of the program where every *negative idb*
  literal ¬A is evaluated against the assumption set ``J`` (¬A holds
  iff A ∉ J); negative edb literals are evaluated against the input.
  ``S`` is antimonotone.
* The sequence I₀ = ∅, I₁ = S(I₀), I₂ = S(I₁), … has its even
  subsequence increasing to lfp(S²) — the *true* facts — and its odd
  subsequence decreasing to gfp(S²) = S(lfp(S²)) — the *possible*
  facts.  Unknown = possible − true; everything else is false.

On the paper's game instance (Example 3.2) this yields
win(d), win(f) true; win(e), win(g) false; win(a), win(b), win(c)
unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Literal as TypingLiteral

from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.ast.rules import Lit, Rule
from repro.logic.formula import Atom
from repro.relational.instance import Database
from repro.semantics import planner
from repro.semantics.base import EngineStats, StatsRecorder, evaluation_adom

_ASSUMED_SUFFIX = "__wf_assumed"

TruthValue = TypingLiteral["true", "false", "unknown"]


@dataclass
class WellFoundedModel:
    """The 3-valued well-founded model of a program on an input.

    ``true_facts`` and ``possible_facts`` cover idb facts only;
    ``possible_facts ⊇ true_facts`` and the unknowns are their
    difference.  The 2-valued interpretation the paper discusses (take
    the true facts as the answer) is :meth:`answer` /
    :meth:`true_database`.
    """

    program: Program
    input_db: Database
    true_facts: frozenset[tuple[str, tuple]]
    possible_facts: frozenset[tuple[str, tuple]]
    alternation_rounds: int
    rule_firings: int
    stats: EngineStats = field(default_factory=EngineStats, repr=False, compare=False)

    def truth_value(self, relation: str, t: tuple) -> TruthValue:
        fact = (relation, tuple(t))
        if fact in self.true_facts:
            return "true"
        if fact in self.possible_facts:
            return "unknown"
        return "false"

    def unknown_facts(self) -> frozenset[tuple[str, tuple]]:
        return self.possible_facts - self.true_facts

    def is_total(self) -> bool:
        """True iff the model is 2-valued (no unknowns)."""
        return self.possible_facts == self.true_facts

    def answer(self, relation: str) -> frozenset[tuple]:
        """True facts of one relation (the 2-valued interpretation)."""
        return frozenset(t for rel, t in self.true_facts if rel == relation)

    def unknowns(self, relation: str) -> frozenset[tuple]:
        return frozenset(t for rel, t in self.unknown_facts() if rel == relation)

    def true_database(self) -> Database:
        """Input edb plus the true idb facts, as a database."""
        out = self.input_db.copy()
        for relation in self.program.idb:
            out.ensure_relation(relation, self.program.arity(relation))
        for relation, t in self.true_facts:
            out.add_fact(relation, t)
        return out


def _assumed_name(relation: str) -> str:
    return f"{relation}{_ASSUMED_SUFFIX}"


def _transform(program: Program) -> Program:
    """Rewrite negative idb literals to probe the assumption relations."""
    idb = program.idb
    new_rules: list[Rule] = []
    for rule in program.rules:
        body = tuple(
            Lit(Atom(_assumed_name(lit.relation), lit.atom.terms), False)
            if isinstance(lit, Lit) and not lit.positive and lit.relation in idb
            else lit
            for lit in rule.body
        )
        # A rule without negated idb literals stays the same object:
        # compiled plans ride on the rule, so the program's own rule
        # keeps the plans that ran (``--dump-codegen`` shows them).
        new_rules.append(
            rule if body == rule.body
            else Rule(rule.head, body, rule.universal, span=rule.span)
        )
    return Program(new_rules, name=f"{program.name}-wf")


def _least_model(
    transformed: Program,
    base: Database,
    assumed: frozenset[tuple[str, tuple]],
    adom: tuple[Hashable, ...],
    stats: EngineStats | None = None,
    tracer=None,
) -> tuple[frozenset[tuple[str, tuple]], int, tuple[int, int, int]]:
    """lfp of the transformed program with assumptions ``assumed`` (= S(J)).

    Returns (derived facts, firings, the scratch database's final
    (index builds, index updates, index drops) counters).
    """
    work = base.copy()
    for relation in transformed.idb:
        work.ensure_relation(relation, transformed.arity(relation))
    for relation, t in assumed:
        work.add_fact(_assumed_name(relation), t)

    # SCC-scheduled least model: the transformed program negates only
    # assumption/edb relations, so every component schedules.
    derived: set[tuple[str, tuple]] = set()
    firings, _ = planner.scheduled_fixpoint(
        transformed, work, adom, stats=stats, collect=derived,
        tracer=tracer,
    )
    return frozenset(derived), firings, work.index_totals()


def alternating_sequence(
    program: Program,
    db: Database,
) -> Iterator[frozenset[tuple[str, tuple]]]:
    """The alternating fixpoint sequence I₀=∅, I₁=S(I₀), I₂=S(I₁), …

    Yields each Iₖ; callers stop when the even and odd subsequences
    stabilize.  Exposed for tests and teaching; most callers want
    :func:`evaluate_wellfounded`.
    """
    transformed = _transform(program)
    adom = evaluation_adom(program, db)
    current: frozenset[tuple[str, tuple]] = frozenset()
    while True:
        yield current
        current, _, _ = _least_model(transformed, db, current, adom)


def evaluate_wellfounded(
    program: Program,
    db: Database,
    validate: bool = True,
    tracer=None,
) -> WellFoundedModel:
    """The well-founded model of a Datalog¬ program on ``db``.

    Accepts *any* Datalog¬ program — no stratifiability requirement:
    this is precisely the paper's point about well-founded semantics.
    """
    if validate:
        validate_program(program, Dialect.DATALOG_NEG)
    if tracer is not None and not tracer.enabled:
        tracer = None
    transformed = _transform(program)
    adom = evaluation_adom(program, db)
    recorder = StatsRecorder("wellfounded", tracer=tracer)

    def step(assumed, label):
        derived, firings, counters = _least_model(
            transformed, db, assumed, adom, stats=recorder.stats,
            tracer=tracer
        )
        recorder.stage(label, firings, added=len(derived), counters=counters)
        return derived, firings

    rounds = 0
    firings_total = 0
    call = 1
    even: frozenset[tuple[str, tuple]] = frozenset()  # I₀
    odd, firings = step(even, call)  # I₁
    firings_total += firings
    while True:
        rounds += 1
        call += 1
        next_even, firings = step(odd, call)  # I₂ₖ
        firings_total += firings
        call += 1
        next_odd, firings = step(next_even, call)  # I₂ₖ₊₁
        firings_total += firings
        if next_even == even and next_odd == odd:
            break
        even, odd = next_even, next_odd
    return WellFoundedModel(
        program=program,
        input_db=db,
        true_facts=even,
        possible_facts=odd,
        alternation_rounds=rounds,
        rule_firings=firings_total,
        stats=recorder.finish(adom_size=len(adom)),
    )
