"""The well-founded semantics (§3.3) via Van Gelder's alternating fixpoint.

The well-founded model is 3-valued: each idb fact is true, false, or
unknown.  We compute it with the alternating fixpoint construction the
paper cites for the expressiveness result (well-founded ≡ fixpoint
queries):

* ``S(J)`` — the least model of the program where every *negative idb*
  literal ¬A is evaluated against the assumption set ``J`` (¬A holds
  iff A ∉ J); negative edb literals are evaluated against the input.
  ``S`` is antimonotone.
* The sequence I₀, I₁ = S(I₀), I₂ = S(I₁), … starts from the input's
  idb facts (I₀ = ∅ when it has none; every S(J) contains them).  Its
  even subsequence increases to lfp(S²) — the *true* facts — and its
  odd subsequence decreases to gfp(S²) = S(lfp(S²)) — the *possible*
  facts.  Unknown = possible − true; everything else is false.

One run keeps two work databases, an even side and an odd side, each
copied from the input once.  :func:`_transform` rewrites ¬R to
¬R__wf_assumed, and each side's ``R__wf_assumed`` *is* the other side's
``R`` relation object (:meth:`Database.attach`), so a step reads the
previous iterate where the other side left it.  A step resets its own
idb relations to the input's idb facts (clearing keeps their chain
indexes live, so each side builds them once) and runs the SCC-scheduled
least fixpoint; nothing is copied or reloaded.  The run stops when
neither side's idb size changed over a round.  The size test is exact:
the evens only grow and the odds only shrink, so a successor of the
same size is the same set.

On the paper's game instance (Example 3.2) this yields
win(d), win(f) true; win(e), win(g) false; win(a), win(b), win(c)
unknown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Literal as TypingLiteral

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

    ``true_facts`` and ``possible_facts`` cover idb facts only; a fact
    the input gives for an idb relation is true (read positively and
    under negation alike).  ``possible_facts ⊇ true_facts`` and the
    unknowns are their difference.  The 2-valued interpretation the
    paper discusses (take the true facts as the answer) is
    :meth:`answer` / :meth:`true_database`.
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


class _Side:
    """One work database of the alternation and the iterate it holds.

    ``idb`` are this side's own idb relations (the iterate), in sorted
    name order; ``own`` is every relation of the copy, taken before
    :class:`_Alternation` attaches the other side's relations.
    """

    __slots__ = ("db", "idb", "own", "booked")

    def __init__(self, db: Database, program: Program, names: list[str]):
        self.db = db.copy()
        self.idb = [
            self.db.ensure_relation(name, program.arity(name)) for name in names
        ]
        self.own = [
            rel for rel in map(self.db.relation, self.db.relation_names())
            if rel is not None
        ]
        self.booked = (0, 0, 0)  # a copy's counters start at zero

    def size(self) -> int:
        return sum(len(rel) for rel in self.idb)

    def facts(self) -> frozenset[tuple[str, tuple]]:
        return frozenset((rel.name, t) for rel in self.idb for t in rel)

    def book(self) -> tuple[int, int, int]:
        """(builds, updates, drops) on this side's own relations since
        the last call.  An attached relation is the other side's to
        book: counting it here too would count its chain work twice.
        """
        totals = (
            sum(rel.index_builds for rel in self.own),
            sum(rel.index_updates for rel in self.own),
            sum(rel.index_drops for rel in self.own),
        )
        booked, self.booked = self.booked, totals
        return (
            totals[0] - booked[0], totals[1] - booked[1], totals[2] - booked[2]
        )


class _Alternation:
    """The alternating fixpoint on two long-lived work databases.

    Each side is copied from the input once.  Each side's
    ``R__wf_assumed`` is the other side's ``R`` relation object, so a
    step reads the previous iterate where it lies and reloads nothing.
    ``recorder`` receives one stage record per step.
    """

    def __init__(self, program: Program, db: Database, tracer=None):
        self.transformed = _transform(program)
        self.adom = evaluation_adom(program, db)
        self.recorder = StatsRecorder("wellfounded", tracer=tracer)
        self.tracer = tracer
        names = sorted(program.idb)
        self.given = [db.tuples(name) for name in names]
        self.given_size = sum(len(ts) for ts in self.given)
        self.even = _Side(db, program, names)
        self.odd = _Side(db, program, names)
        for name, even, odd in zip(names, self.even.idb, self.odd.idb):
            self.even.db.attach(_assumed_name(name), odd)
            self.odd.db.attach(_assumed_name(name), even)
        self.steps = 0

    def step(self, side: _Side) -> bool:
        """Replace ``side``'s iterate by S(the other side's iterate).

        Returns True iff the iterate's size changed.
        """
        before = side.size()
        # Reset to the input's idb facts; clearing keeps the chains
        # live, so each side builds its indexes once and then updates.
        for rel, given in zip(side.idb, self.given):
            rel.clear()
            if given:
                rel.add_batch(given)
        # The transformed program negates only assumption and edb
        # relations, so every component schedules.
        firings, _ = planner.scheduled_fixpoint(
            self.transformed, side.db, self.adom,
            stats=self.recorder.stats, tracer=self.tracer,
        )
        self.steps += 1
        after = side.size()
        self.recorder.stage(
            self.steps, firings, added=after - self.given_size,
            counters=side.book(),
        )
        return after != before


def alternating_sequence(
    program: Program,
    db: Database,
) -> Iterator[frozenset[tuple[str, tuple]]]:
    """The alternating fixpoint sequence I₀, I₁=S(I₀), I₂=S(I₁), …

    I₀ is the input's idb facts (∅ when there are none).  Yields each
    Iₖ as a snapshot of one pair of work databases, even iterates from
    one and odd from the other; callers stop when the even and odd
    subsequences stabilize.  Exposed for tests and teaching; most
    callers want :func:`evaluate_wellfounded`.
    """
    run = _Alternation(program, db)
    yield run.even.facts()
    for side in itertools.cycle((run.odd, run.even)):
        run.step(side)
        yield side.facts()


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
    run = _Alternation(program, db, tracer=tracer)
    run.step(run.odd)  # I₁
    rounds = 0
    while True:
        rounds += 1
        even_moved = run.step(run.even)  # I₂ₖ
        odd_moved = run.step(run.odd)  # I₂ₖ₊₁
        # Evens only grow and odds only shrink: same size, same set.
        if not (even_moved or odd_moved):
            break
    stats = run.recorder.finish(adom_size=len(run.adom))
    return WellFoundedModel(
        program=program,
        input_db=db,
        true_facts=run.even.facts(),
        possible_facts=run.odd.facts(),
        alternation_rounds=rounds,
        rule_firings=stats.rule_firings,
        stats=stats,
    )
