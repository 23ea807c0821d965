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
previous iterate where the other side left it; nothing is copied or
reloaded.

Each side's first step runs the SCC-scheduled least fixpoint over its
copy, which already holds the input's idb facts.  Every later step
costs the change, not the model: it starts from the side's previous
model and consumes the net change the other side made in its previous
step.  The seeds come from two rewrites of the transformed program
(:func:`_seed_variants`), each turning one negated ``R__wf_assumed``
occurrence into a positive ``R__wf_flip`` literal over the changed
tuples.

* An even step's assumption set only lost tuples, so its model only
  grows: one delta pass of the *grow* variants fires the rule instances
  whose negated tuple just left the set, then add-only semi-naive
  passes of the transformed program run until no fact is new
  (:func:`repro.semantics.differential.propagate`, the differential
  engine's insertion).
* An odd step's assumption set only gained tuples, so its model only
  shrinks: DRed (:func:`repro.semantics.differential.dred`, the
  differential engine's), seeded by the *shrink* variants over the
  gained tuples, over-deletes and then rederives through head-bound
  support checks over the evaluation's active domain.  An idb fact the
  input gives is never deleted.

The run stops when neither side changed over a round.  On a chain game
each round moves about one fact per side, so the n/2 rounds of a chain
of n positions fire O(n) times, where recomputing each step's model
would fire O(n²) times.

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
from repro.ast.rules import EqLit, Lit, Rule
from repro.logic.atom import Atom
from repro.relational.instance import Database
from repro.semantics import planner
from repro.semantics.base import (
    EngineStats,
    StatsRecorder,
    evaluation_domain,
)
from repro.semantics.differential import (
    Changes,
    _count,
    _minus,
    dred,
    propagate,
    support_probes,
)
from repro.terms import Var

_ASSUMED_SUFFIX = "__wf_assumed"
_FLIP_SUFFIX = "__wf_flip"

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


def _flip_name(relation: str) -> str:
    return f"{relation}{_FLIP_SUFFIX}"


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


def _seed_variants(
    program: Program, transformed: Program
) -> tuple[Program | None, Program | None, tuple[int, ...]]:
    """The grow and shrink seed programs of ``transformed`` (``None``
    when no rule reads an assumption) and, for each of their rules, the
    index of the rule it varies: the shrink variants match the grow
    variants one for one.

    Each variant of a rule turns one negated ``R__wf_assumed``
    occurrence into the positive literal ``R__wf_flip`` over the same
    terms.  A delta pass on the flip relations then fires exactly the
    instances whose negated tuple just changed membership.  A grow
    variant keeps the rule's other negated literals, which read the
    assumption set as it now stands.  A shrink variant drops the other
    negated assumption literals: they held under the assumption set
    before it grew, which is no longer on hand, so the seed
    over-estimates the over-deletion and rederivation restores what
    still holds.  A head variable that only dropped literals bound keeps
    ranging over the active domain through the always-true ``v = v``.
    """
    flips = {_assumed_name(relation): relation for relation in program.idb}
    grow: list[Rule] = []
    shrink: list[Rule] = []
    sources: list[int] = []
    for index, rule in enumerate(transformed.rules):
        assumed = [
            k for k, lit in enumerate(rule.body)
            if isinstance(lit, Lit) and not lit.positive
            and lit.relation in flips
        ]
        for k in assumed:
            lit = rule.body[k]
            flip = Lit(Atom(_flip_name(flips[lit.relation]), lit.atom.terms))
            grow.append(Rule(
                rule.head, rule.body[:k] + (flip,) + rule.body[k + 1:],
                span=rule.span,
            ))
            body = tuple(
                flip if j == k else other
                for j, other in enumerate(rule.body)
                if j == k or j not in assumed
            )
            kept: set[Var] = set()
            for other in body:
                kept |= other.variables()
            unbound = sorted(rule.head_variables() - kept, key=lambda v: v.name)
            shrink.append(Rule(
                rule.head, body + tuple(EqLit(v, v) for v in unbound),
                span=rule.span,
            ))
            sources.append(index)
    if not grow:
        return None, None, ()
    name = transformed.name
    return (
        Program(grow, name=f"{name}-grow"),
        Program(shrink, name=f"{name}-shrink"),
        tuple(sources),
    )


def _flipped(change: Changes) -> Changes:
    """A net change as the delta of the flip relations."""
    return {_flip_name(relation): ts for relation, ts in change.items()}


class _Side:
    """One work database of the alternation and the iterate it holds.

    ``idb`` are this side's own idb relations (the iterate), in sorted
    name order, and ``size`` their number of facts, moved by each
    step's net change.  ``pending`` is the net change the other side
    made in its last step, which this side's next step consumes:
    ``None`` until this side's first step, which starts from the input
    instead.
    """

    __slots__ = ("db", "idb", "size", "pending")

    def __init__(self, db: Database, program: Program, names: list[str]):
        self.db = db.copy()
        self.idb = [
            self.db.ensure_relation(name, program.arity(name)) for name in names
        ]
        self.size = sum(map(len, self.idb))
        self.pending: Changes | None = None

    def facts(self) -> frozenset[tuple[str, tuple]]:
        return frozenset((rel.name, t) for rel in self.idb for t in rel)


class _Alternation:
    """The alternating fixpoint on two long-lived work databases.

    Each side is copied from the input once.  Each side's
    ``R__wf_assumed`` is the other side's ``R`` relation object, so a
    step reads the previous iterate where it lies and reloads nothing.
    Each side's first step is a scheduled least fixpoint; every later
    step consumes the net change the other side made in its previous
    step: the even side grows its model semi-naively, the odd side
    shrinks its model by DRed.  ``recorder`` receives one stage record
    per step, with the index work on the stepping side's database
    during the step: the other side's relations attached there do not
    move while this side steps, so nothing is counted twice.

    The active domain is enumerated (and sorted) only when some rule of
    the transformed or seed programs ranges a variable over it;
    ``adom_size`` is its size either way.
    """

    def __init__(self, program: Program, db: Database, tracer=None):
        self.transformed = _transform(program)
        self.grow, self.shrink, self.sources = _seed_variants(
            program, self.transformed
        )
        programs = (self.transformed, self.grow, self.shrink)
        self.adom, self.adom_size = evaluation_domain(
            program, db, *(p for p in programs if p is not None)
        )
        self.recorder = StatsRecorder("wellfounded", tracer=tracer)
        self.tracer = tracer
        names = sorted(program.idb)
        self.given = [db.tuples(name) for name in names]
        self.given_size = sum(len(ts) for ts in self.given)
        #: The input's idb facts by relation, which DRed never deletes.
        self.kept = dict(zip(names, self.given))
        self.even = _Side(db, program, names)
        self.odd = _Side(db, program, names)
        for name, even, odd in zip(names, self.even.idb, self.odd.idb):
            self.even.db.attach(_assumed_name(name), odd)
            self.odd.db.attach(_assumed_name(name), even)
        #: The odd side's support probes, built on its first DRed and
        #: kept for the run: their join order only sets speed.
        self.probes = None
        #: The run's planner report: the transformed program's, whose
        #: rules are the program's own, in order.
        self.report = None
        self.steps = 0

    def step(self, side: _Side) -> bool:
        """Replace ``side``'s iterate by S(the other side's iterate).

        Returns True iff the iterate changed.
        """
        self.recorder.watch(side.db)
        if side.pending is None:
            firings, change = self._first_step(side)
        elif self.grow is None:  # no rule reads an assumption: S is constant
            firings, change = 0, {}
        elif side is self.even:
            firings, change = self._grow(side.pending)
        else:
            firings, change = self._shrink(side.pending)
        side.pending = {}
        other = self.odd if side is self.even else self.even
        if other.pending is not None:  # else its first step starts afresh
            other.pending = change
        # A seed pass runs a variant program, whose planner report would
        # stand in for the run's.
        self.recorder.stats.planner = self.report
        self.steps += 1
        self.recorder.stage(
            self.steps, firings, added=side.size - self.given_size
        )
        return bool(change)

    def _first_step(self, side: _Side) -> tuple[int, Changes]:
        """A side's first step: the least fixpoint over its copy, which
        holds the input's idb facts.  Returns the firings and what it
        added to them."""
        # The transformed program negates only assumption and edb
        # relations, so every component schedules.
        firings, _ = planner.scheduled_fixpoint(
            self.transformed, side.db, self.adom,
            stats=self.recorder.stats, tracer=self.tracer,
        )
        self.report = self.recorder.stats.planner
        change = {}
        for rel, given in zip(side.idb, self.given):
            gained = rel.live_set() - given
            if gained:
                change[rel.name] = gained
        side.size += _count(change)
        return firings, change

    def _grow(self, removed: Changes) -> tuple[int, Changes]:
        """An even step: the assumption set lost ``removed``.

        Semi-naive insertion
        (:func:`~repro.semantics.differential.propagate`) whose first
        pass runs the grow variants over the tuples that left the set,
        firing the instances whose negated tuple left it.  Returns the
        firings and every fact added.
        """
        added, firings = propagate(
            self.transformed, self.even.db, self.adom, _flipped(removed),
            seed=(self.grow, self.sources), stats=self.recorder.stats,
            tracer=self.tracer,
        )
        self.even.size += _count(added)
        return firings, added

    def _shrink(self, gained: Changes) -> tuple[int, Changes]:
        """An odd step: the assumption set gained ``gained``.

        DRed (:func:`~repro.semantics.differential.dred`) seeded by the
        shrink variants' delta pass over the tuples that entered the
        set; an idb fact the input gives is never over-deleted.
        Returns the firings and the net removals.
        """
        overdeleted, rederived, firings = dred(
            self.transformed, self.odd.db, self.adom, _flipped(gained),
            self._probes, seed=(self.shrink, self.sources),
            stats=self.recorder.stats,
            keep=self.kept, tracer=self.tracer,
        )
        removed = _minus(overdeleted, rederived)
        self.odd.size -= _count(removed)
        return firings, removed

    def _probes(self):
        if self.probes is None:
            self.probes = support_probes(self.transformed.rules, self.odd.db)
        return self.probes


def alternating_sequence(
    program: Program,
    db: Database,
) -> Iterator[frozenset[tuple[str, tuple]]]:
    """The alternating fixpoint sequence I₀, I₁=S(I₀), I₂=S(I₁), …

    I₀ is the input's idb facts (∅ when there are none).  Yields each
    Iₖ as a snapshot of one pair of work databases, even iterates from
    one and odd from the other, each computed as
    :func:`evaluate_wellfounded` does: I₁ and I₂ afresh, every later
    iterate from the one two steps back and the change between the two
    before it.  Callers stop when the even and odd subsequences
    stabilize.  Exposed for tests and teaching; most callers want
    :func:`evaluate_wellfounded`.
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
        # Neither side changed: both subsequences have settled.
        if not (even_moved or odd_moved):
            break
    stats = run.recorder.finish(adom_size=run.adom_size)
    return WellFoundedModel(
        program=program,
        input_db=db,
        true_facts=run.even.facts(),
        possible_facts=run.odd.facts(),
        alternation_rounds=rounds,
        rule_firings=stats.rule_firings,
        stats=stats,
    )
