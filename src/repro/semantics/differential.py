"""Differential evaluation: one incremental engine for positive views.

A :class:`DifferentialEngine` keeps the minimum model of a positive
Datalog program (§3.1) materialized, in the spirit of differential
dataflow: it absorbs *diff batches* of base (EDB) insertions and
deletions in time proportional to the change, and streams the induced
IDB diffs to subscribers.

The view is kept per SCC of the predicate dependency graph, in the
planner's topologically-ordered schedule
(:func:`repro.semantics.planner.plan_context`), and every component is
kept by the same algorithm: semi-naive insertion (:func:`propagate`)
and DRed deletion (:func:`dred`: over-delete to a fixpoint, then
restore the survivors).  DRed is exact with or without recursion, and
its support checks are the same compiled ``count_full`` probes that
derivation counting would need for its recounts, so a second
algorithm for nonrecursive components would only store counts the
probes compute on demand.  The schedule stays: the net IDB diff of
each component joins the incoming delta of the components above it,
so one base change flows through the whole program exactly once and
reaches only the components that read it.

The engine plans the whole view through one copy of the program that
it owns: the same rules in the same order, under a plan context that no
other evaluation shares, so neither a from-scratch run of the caller's
program (:meth:`DifferentialEngine.consistent_with_scratch` makes one)
replans its decisions nor restarts its planner report.  The view is
first materialized by one scheduled fixpoint
(:func:`repro.semantics.planner.scheduled_fixpoint`) on that copy,
which absorbs each pass with one ``add_batch`` per relation and ends
with the index cover's chain garbage collection.  An update hands each
component's rule ids to :func:`propagate` and :func:`dred`, whose
passes are :func:`repro.semantics.planner.consequences` calls over
those rules only, so ``stats.planner`` is one report over the build and
every update, keyed by the program's rule indices.

Deltas freeze to delta blocks so the passes take the batch kernels.
The add-only passes (rederivation, insertion) say so with
``add_only=True``; over-deletion reads consequences as "everything
derivable" and does not.  Rederivation support checks go through
*support probes* (:func:`support_probes`): one per rule, the rule's
*bound* plan, whose head variables are seeded from each candidate fact,
under a join order that counts them as bound.  The engine builds one
table of them for the program when its first check needs it, and keeps
it.  A probe's ``count_full`` kernel
(:meth:`~repro.semantics.plan.RulePlan.count_heads`) takes a whole
pass's candidates in one call and returns each one's number of
derivations, so a check costs that fact's derivations rather than the
whole rule's match set.  Facts leave and return in bulk: over-deleted
facts through ``Relation.discard_batch``, rederived and propagated ones
through ``Relation.add_batch``, one call per relation.

The same probes answer :meth:`DifferentialEngine.derivations`, and
:attr:`DifferentialEngine.counts` sums them over every fact of each
nonrecursive component: a fact there has finitely many derivation
trees, and the sum over its rules' body valuations counts them, the
ℕ-provenance of nonrecursive rules.  Nothing stores a count, so no
update pays for one.

DRed's two phases live in one function, :func:`dred`, and semi-naive
insertion in another, :func:`propagate`, which DRed's rederivation
runs too.  The well-founded engine's steps call both
(:mod:`repro.semantics.wellfounded`).  What differs between the
callers is passed in as data: the rules each pass runs, the first
pass's program, the active domain (``_NO_ADOM`` here), facts that may
never be deleted, and the support probes.

Cost model: an update costs the facts it touches.  Nothing in
:meth:`DifferentialEngine.apply` scans the view: the engine never
enumerates an active domain (positive range-restricted Datalog binds
every body variable in a positive literal, so its minimum model does
not depend on the domain and no compiled plan has ``unbound_slots``),
bulk passes are delta-restricted, and probe setup is paid once per
rule, not once per pass or per checked fact.

Scope: plain (positive) Datalog, the dialect in which DRed is exact.
Updates are **atomic**: the entire diff batch is validated (hashable
value sequences, no IDB-named relations, consistent arities) before
the first fact is touched, so a bad fact in a batch can never leave
the view half-updated.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Container, Iterable

from repro.errors import SchemaError
from repro.ast.analysis import validate_program
from repro.ast.program import Dialect, Program
from repro.ast.rules import Rule
from repro.relational.instance import Database
from repro.semantics import planner
from repro.semantics.base import EngineStats, _order_positive_indices
from repro.semantics.plan import RulePlan, active_matcher, make_delta, plan_for
from repro.terms import Var

Fact = tuple[str, tuple]
#: Facts by relation: a pass's inferences, or a change to a database.
Changes = dict[str, set[tuple]]

#: The active domain every matcher call receives.  The engine accepts
#: positive range-restricted Datalog only, where every body variable
#: occurs in a positive literal: no compiled plan has ``unbound_slots``
#: and the minimum model does not depend on the domain (§3.1), so
#: computing adom(P, I) would be a view-sized scan per update for
#: nothing.
_NO_ADOM: tuple = ()

#: The facts of a relation a change does not name.
_NO_FACTS: frozenset = frozenset()


@dataclass
class UpdateReport:
    """Net effect of one maintenance operation on the view."""

    inserted: frozenset[Fact] = frozenset()
    deleted: frozenset[Fact] = frozenset()
    overdeleted: int = 0  # DRed phase-1 size (before rederivation)

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted)


@dataclass(frozen=True)
class DiffBatch:
    """One atomic batch of base changes.

    Semantics: deletions apply before insertions, so a fact named on
    both sides ends up *present*.  Inserting a present fact and
    deleting an absent one are no-ops (set semantics), never errors.
    """

    inserts: tuple[Fact, ...] = ()
    deletes: tuple[Fact, ...] = ()


@dataclass(frozen=True)
class RelationDiff:
    """The net change of one relation under one :meth:`apply`."""

    relation: str
    inserted: frozenset[tuple] = frozenset()
    deleted: frozenset[tuple] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted)


class Subscription:
    """A handle on one relation's diff stream (identity-hashed)."""

    __slots__ = ("engine", "relation", "active")

    def __init__(self, engine: "DifferentialEngine", relation: str):
        self.engine = engine
        self.relation = relation
        self.active = True

    def cancel(self) -> None:
        """Stop receiving diffs; the engine drops the handle lazily."""
        self.active = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "cancelled"
        return f"Subscription({self.relation!r}, {state})"


@dataclass
class ApplyResult:
    """What one diff batch did: the net report plus per-subscriber diffs."""

    report: UpdateReport
    diffs: dict[Subscription, RelationDiff] = field(default_factory=dict)

    def for_subscriber(self, subscription: Subscription) -> RelationDiff:
        return self.diffs.get(
            subscription, RelationDiff(subscription.relation)
        )


def support_probes(
    rules: Iterable[Rule], db: Database
) -> dict[str, list[RulePlan]]:
    """Support probes for ``rules``: head relation → one per rule.

    A rule's probe is its bound plan: every head variable is ``bound``,
    under the join order ``db``'s relation sizes give now, with those
    variables counted as bound from the first literal on.  Its
    :meth:`~repro.semantics.plan.RulePlan.count_heads` runs the
    ``count_full`` kernel, which checks each candidate against the
    head's constants and repeated variables, seeds the bound variables
    from its values and counts its body valuations through the
    relations' indexes, so a check costs the candidate's own join
    fan-out, not the rule's full match set, and a whole pass of checks
    is one call.  A body variable that no positive literal and no head
    binds ranges over the ``adom`` the call passes (a well-founded
    rule may bind one only under negation; the differential engine
    passes ``_NO_ADOM``).  The order only sets speed, never a count,
    so a probe may outlive the sizes it was ordered by: the
    differential engine and the well-founded run each build their
    probes once.
    """
    probes: dict[str, list[RulePlan]] = {}
    for rule in rules:
        (head,) = rule.head_literals()
        bound = sorted(
            {term for term in head.terms if isinstance(term, Var)},
            key=lambda v: v.name,
        )
        order = tuple(
            _order_positive_indices(list(rule.positive_body()), db, bound)
        )
        probes.setdefault(head.relation, []).append(
            plan_for(rule, order, bound=tuple(bound))
        )
    return probes


def _minus(changes: Changes, other: Changes) -> Changes:
    """``changes`` without ``other``, relation by relation; a relation
    left empty is left out."""
    out: Changes = {}
    for relation, ts in changes.items():
        rest = ts - other[relation] if relation in other else ts
        if rest:
            out[relation] = rest
    return out


def _count(changes: Changes) -> int:
    """How many facts ``changes`` holds."""
    return sum(map(len, changes.values()))


def _frozen(delta: Changes) -> dict:
    """Freeze a delta for propagation as delta *blocks*, so bulk passes
    take the batch kernels."""
    return {rel: make_delta(ts) for rel, ts in delta.items() if ts}


def propagate(
    program: Program,
    db: Database,
    adom: tuple,
    delta: Changes,
    rule_ids: tuple[int, ...] | None = None,
    seed: tuple[Program, tuple[int, ...]] | None = None,
    stats: EngineStats | None = None,
    tracer=None,
    within: Changes | None = None,
) -> tuple[Changes, int]:
    """Semi-naive insertion on ``db``, in place: ``(added, firings)``.

    Passes run until no head is new.  Each runs ``program``'s rules
    ``rule_ids`` (every rule when ``None``) on the facts the previous
    pass added, and the first on ``delta``; with ``seed`` given, the
    first pass runs every rule of its program instead, each traced as
    the ``program`` rule its index tuple names.  A head joins
    ``db`` through its relation object, which must exist; with
    ``within`` given, only a head in ``within`` does.  Every pass is
    add-only: a head already in ``db`` is a no-op here, so the kernels
    may subtract it at the source.  Each pass's heads go in with one
    ``add_batch`` per relation.  ``stats`` and ``tracer`` go to every
    pass.  A delta that no rule of the pass reads positively
    (:func:`repro.semantics.planner.reads`) would derive nothing, so it
    ends the loop without a pass.
    """
    pass_program, ids, spans = (
        (program, rule_ids, None) if seed is None else (seed[0], None, seed[1])
    )
    reads = planner.reads(pass_program, ids)
    later = planner.reads(program, rule_ids)
    added: Changes = {}
    firings = 0
    while delta and not reads.isdisjoint(delta):
        heads, _neg, fired = planner.consequences(
            pass_program, db, adom, delta=_frozen(delta), stats=stats,
            rule_ids=ids, count_call=True, tracer=tracer, add_only=True,
            span_ids=spans,
        )
        firings += fired
        pass_program, ids, spans, reads = program, rule_ids, None, later
        delta = {}
        for relation, ts in heads.items():
            if within is not None:
                ts = ts & within.get(relation, _NO_FACTS)
            fresh = db.relation(relation).add_batch(ts)
            if fresh:
                delta[relation] = fresh
                added.setdefault(relation, set()).update(fresh)
    return added, firings


def dred(
    program: Program,
    db: Database,
    adom: tuple,
    frontier: Changes,
    probes: Callable[[], dict[str, list[RulePlan]]],
    rule_ids: tuple[int, ...] | None = None,
    seed: tuple[Program, tuple[int, ...]] | None = None,
    stats: EngineStats | None = None,
    keep: dict[str, Container[tuple]] | None = None,
    ghosts: Changes | None = None,
    tracer=None,
) -> tuple[Changes, Changes, int]:
    """DRed on ``db``, in place: ``(over-deleted, rederived, firings)``.

    The net deletion is the over-deleted facts minus the rederived ones,
    both by relation; ``firings`` counts every pass either phase ran.
    Both phases run ``program``'s rules ``rule_ids`` (every rule when
    ``None``).

    Phase 1 (over-delete): each pass runs those rules on the facts the
    previous pass over-deleted, to a fixpoint, the first on
    ``frontier``; with ``seed`` given, the first pass runs every rule
    of its program instead, as :func:`propagate`'s does.  A head joins
    the over-deletion when it is in ``db``, not kept (``keep`` holds,
    by relation, the facts that may never be deleted) and not
    over-deleted yet.  These passes read consequences as "everything
    derivable", most of it still in ``db``, so none is add-only; a
    frontier that no rule of the pass reads positively ends the phase
    without a pass.  Every pass reads ``db`` before anything leaves it;
    then ``ghosts`` (facts, by relation, present only so that bodies
    match through them) and the over-deleted facts leave together, one
    ``discard_batch`` per relation.

    Phase 2 (delta-restricted rederive): the over-deleted candidates get
    head-bound support checks against what survived, through the probes
    ``probes()`` returns (called once, after the removal, and only when
    something was over-deleted), with ``adom`` for variables no
    positive literal binds: per relation, one ``count_heads`` call per
    probe over the candidates no earlier probe supported.  The
    survivors go back with one ``add_batch`` per relation *after* the
    checks and are then propagated semi-naively (:func:`propagate`),
    but only into the candidate set: ``db`` may already hold facts of
    the same update that are not the candidates' to rederive.  Work is
    proportional to the over-deletion, not to ``db``.  ``stats`` and
    ``tracer`` go to every pass.
    """
    pass_program, ids, spans = (
        (program, rule_ids, None) if seed is None else (seed[0], None, seed[1])
    )
    reads = planner.reads(pass_program, ids)
    later = planner.reads(program, rule_ids)
    overdeleted: Changes = {}
    firings = 0
    while frontier and not reads.isdisjoint(frontier):
        heads, _neg, fired = planner.consequences(
            pass_program, db, adom, delta=_frozen(frontier), stats=stats,
            rule_ids=ids, count_call=True, tracer=tracer, span_ids=spans,
        )
        firings += fired
        pass_program, ids, spans, reads = program, rule_ids, None, later
        frontier = {}
        for relation, ts in heads.items():
            rel = db.relation(relation)
            if rel is None:
                continue
            gone = ts & rel.live_set()
            gone.difference_update(overdeleted.get(relation, _NO_FACTS))
            if keep is not None:
                gone.difference_update(keep.get(relation, _NO_FACTS))
            if gone:
                frontier[relation] = gone
                overdeleted.setdefault(relation, set()).update(gone)
    for removed in (ghosts or {}, overdeleted):
        for relation, ts in removed.items():
            db.relation(relation).discard_batch(ts)
    if not overdeleted:
        return overdeleted, {}, firings

    checks = probes()
    supported: Changes = {}
    for relation, ts in overdeleted.items():
        pending = list(ts)
        held: list[tuple] = []
        for probe in checks[relation]:
            counts = probe.count_heads(db, adom, pending)
            held.extend(itertools.compress(pending, counts))
            pending = [t for t, n in zip(pending, counts) if not n]
            if not pending:
                break
        if held:
            supported[relation] = held
    for relation, ts in supported.items():
        db.relation(relation).add_batch(ts)
    rederived, fired = propagate(
        program, db, adom, supported, rule_ids, stats=stats, tracer=tracer,
        within=overdeleted,
    )
    for relation, ts in supported.items():
        rederived.setdefault(relation, set()).update(ts)
    return overdeleted, rederived, firings + fired


class DifferentialEngine:
    """An incrementally-maintained minimum model with subscriptions.

    ``engine.database`` always equals
    ``evaluate_datalog_seminaive(program, base)`` for the current base;
    :meth:`apply` moves it from one base to another in time
    proportional to the induced change.
    """

    def __init__(self, program: Program, base: Database):
        validate_program(program, Dialect.DATALOG)
        self.program = program
        for relation in sorted(program.idb):
            if base.tuples(relation):
                raise SchemaError(
                    f"base database contains facts in derived relation "
                    f"{relation!r}; a maintained view must own its IDB "
                    f"(materialize from an EDB-only base instead)"
                )
        self.database = base.copy()
        for relation in program.idb:
            self.database.ensure_relation(relation, program.arity(relation))
        #: The program the engine plans through: the caller's rules in
        #: the caller's order, under a plan context of its own.
        self._planning = Program(program.rules, name=program.name)
        #: The program's support probes, built on the first check (see
        #: :meth:`_probes`).
        self._probe_table: dict[str, list[RulePlan]] | None = None
        self._subscriptions: list[Subscription] = []
        self.stats = EngineStats(
            engine="differential",
            matcher=active_matcher(),
        )
        self.stats.differential = {
            "components": [
                {
                    "relations": sorted(comp.relations),
                    "recursive": comp.recursive,
                    "rules": len(comp.rule_ids),
                }
                for comp in planner.plan_context(self._planning).schedule
            ],
            "updates": 0,
            "facts_touched": 0,
            "last_facts_touched": 0,
            "view_size": 0,
            "overdeleted": 0,
            "rederived": 0,
            # Reads 0 now that every component runs DRed; kept while
            # the benchmark's worker still reads it.
            "recounted": 0,
            "support_checks": 0,
        }
        started = perf_counter()
        self.stats.rule_firings, _ = planner.scheduled_fixpoint(
            self._planning, self.database, _NO_ADOM, stats=self.stats
        )
        self.stats.seconds += perf_counter() - started
        self._settle()

    # -- public API ---------------------------------------------------------

    def answer(self, relation: str) -> frozenset[tuple]:
        return self.database.tuples(relation)

    def subscribe(self, relation: str) -> Subscription:
        """A diff-stream handle for one relation (typically IDB)."""
        if relation not in self.program.sch():
            raise SchemaError(
                f"cannot subscribe to unknown relation {relation!r}"
            )
        subscription = Subscription(self, relation)
        self._subscriptions.append(subscription)
        return subscription

    def insert(self, facts: Iterable[Fact]) -> ApplyResult:
        """Insert base facts (an insert-only :meth:`apply`)."""
        return self.apply(DiffBatch(inserts=tuple(facts)))

    def delete(self, facts: Iterable[Fact]) -> ApplyResult:
        """Delete base facts (a delete-only :meth:`apply`)."""
        return self.apply(DiffBatch(deletes=tuple(facts)))

    def apply(self, batch) -> ApplyResult:
        """Apply one atomic diff batch; returns net + per-subscriber diffs.

        ``batch`` is a :class:`DiffBatch` or an iterable of
        ``("+" | "-", relation, values)`` triples.  The whole batch is
        validated before the first fact is applied.
        """
        started = perf_counter()
        inserts, deletes = _normalize_batch(batch)
        self._validate_batch(inserts, deletes)

        deleted: Changes = {}
        inserted: Changes = {}
        for relation, t in deletes:
            if self.database.remove_fact(relation, t):
                deleted.setdefault(relation, set()).add(t)
        for relation, t in inserts:
            if self.database.add_fact(relation, t):
                if t in deleted.get(relation, _NO_FACTS):
                    deleted[relation].discard(t)  # net no-op
                else:
                    inserted.setdefault(relation, set()).add(t)

        overdeleted_total = rederived_total = 0
        if _count(inserted) or _count(deleted):
            for comp in planner.plan_context(self._planning).schedule:
                reads = planner.reads(self._planning, comp.rule_ids)
                ins_in = {
                    rel: ts for rel, ts in inserted.items()
                    if rel in reads and ts
                }
                del_in = {
                    rel: ts for rel, ts in deleted.items()
                    if rel in reads and ts
                }
                if not ins_in and not del_in:
                    continue
                comp_del, overdeleted, rederived = self._dred_delete(
                    comp.rule_ids, del_in
                )
                comp_ins, fired = propagate(
                    self._planning, self.database, _NO_ADOM, ins_in,
                    comp.rule_ids, stats=self.stats,
                )
                self.stats.rule_firings += fired
                overdeleted_total += overdeleted
                rederived_total += rederived
                comp_del, comp_ins = (
                    _minus(comp_del, comp_ins), _minus(comp_ins, comp_del)
                )
                for relation, ts in comp_ins.items():
                    inserted.setdefault(relation, set()).update(ts)
                for relation, ts in comp_del.items():
                    deleted.setdefault(relation, set()).update(ts)

        report = UpdateReport(
            inserted=frozenset(
                (rel, t) for rel, ts in inserted.items() for t in ts
            ),
            deleted=frozenset(
                (rel, t) for rel, ts in deleted.items() for t in ts
            ),
            overdeleted=overdeleted_total,
        )
        self._subscriptions = [s for s in self._subscriptions if s.active]
        diffs = {
            subscription: RelationDiff(
                subscription.relation,
                inserted=frozenset(inserted.get(subscription.relation, ())),
                deleted=frozenset(deleted.get(subscription.relation, ())),
            )
            for subscription in self._subscriptions
        }

        touched = (
            len(report.inserted) + len(report.deleted)
            + overdeleted_total + rederived_total
        )
        counters = self.stats.differential
        counters["updates"] += 1
        counters["facts_touched"] += touched
        counters["last_facts_touched"] = touched
        counters["overdeleted"] += overdeleted_total
        counters["rederived"] += rederived_total
        self._settle()
        self.stats.seconds += perf_counter() - started
        return ApplyResult(report=report, diffs=diffs)

    def consistent_with_scratch(self) -> bool:
        """Does the view equal from-scratch evaluation?  (For tests.)"""
        from repro.semantics.seminaive import evaluate_datalog_seminaive

        base = self.database.restrict(
            [
                rel for rel in self.database.relation_names()
                if rel not in self.program.idb
            ]
        )
        scratch = evaluate_datalog_seminaive(self.program, base)
        return all(
            self.answer(relation) == scratch.answer(relation)
            for relation in self.program.idb
        )

    @property
    def counts(self) -> Counter[Fact]:
        """Each fact of a nonrecursive component with its number of
        derivations (:meth:`derivations`), computed when read: the
        ℕ-provenance of nonrecursive rules.  Recursive components have
        no entry."""
        counts: Counter[Fact] = Counter()
        for comp in planner.plan_context(self._planning).schedule:
            if comp.recursive:
                continue
            for relation in comp.relations:
                facts = list(self.database.relation(relation))
                for t, n in zip(facts, self.derivations(relation, facts)):
                    counts[(relation, t)] = n
        return counts

    def derivations(self, relation: str, heads: Iterable[tuple]) -> list[int]:
        """Each of ``heads``' number of derivations by ``relation``'s
        rules from the view as it stands: one ``count_full`` call per
        rule through the engine's kept probes, summed.  A tuple no
        rule derives counts 0, and so does every tuple of a base
        relation.  For a relation of a recursive component this counts
        the rule instances that derive a tuple in one step, not its
        derivation trees.  Raises :class:`SchemaError` on a tuple whose
        arity is not the derived relation's."""
        heads = [tuple(t) for t in heads]
        totals = [0] * len(heads)
        if relation not in self.program.idb:
            return totals
        arity = self.program.arity(relation)
        for t in heads:
            if len(t) != arity:
                raise SchemaError(
                    f"{relation}{t!r} has arity {len(t)}; "
                    f"{relation!r} has arity {arity}"
                )
        for probe in self._probes()[relation]:
            found = probe.count_heads(self.database, _NO_ADOM, heads)
            totals = list(map(operator.add, totals, found))
        return totals

    # -- batch validation ---------------------------------------------------

    def _validate_batch(
        self, inserts: list[Fact], deletes: list[Fact]
    ) -> None:
        """Whole-batch validation before any mutation (atomicity)."""
        arities: dict[str, int] = {}
        for relation, t in itertools.chain(deletes, inserts):
            if relation in self.program.idb:
                raise SchemaError(
                    f"{relation!r} is a derived relation; "
                    f"update the base instead"
                )
            expected = arities.get(relation)
            if expected is None:
                rel = self.database.relation(relation)
                if rel is not None:
                    expected = rel.arity
                elif relation in self.program.sch():
                    expected = self.program.arity(relation)
                else:
                    expected = len(t)
                arities[relation] = expected
            if len(t) != expected:
                raise SchemaError(
                    f"fact {relation}{t!r} has arity {len(t)}; "
                    f"{relation!r} has arity {expected}"
                )

    # -- maintenance --------------------------------------------------------

    def _probes(self) -> dict[str, list[RulePlan]]:
        """The program's support probes, built on the first check and
        kept for the engine's life, as the well-founded run keeps its
        own: their join order, taken from the view's sizes then, only
        sets speed."""
        if self._probe_table is None:
            self._probe_table = support_probes(
                self.program.rules, self.database
            )
        return self._probe_table

    def _dred_delete(
        self,
        rule_ids: tuple[int, ...],
        del_in: Changes,
    ) -> tuple[Changes, int, int]:
        """DRed for the component of ``rule_ids`` (see :func:`dred`).

        The deleted input facts come back as ghosts, so rule bodies can
        match through them while the over-deletion closes; they leave
        with the over-deleted facts.  The support checks use the
        engine's kept probes.  Returns the net deletion and the sizes
        of the over-deletion and of the rederivation.
        """
        if not del_in:
            return {}, 0, 0
        for relation, ts in del_in.items():
            self.database.relation(relation).add_batch(ts)
        overdeleted, rederived, firings = dred(
            self._planning, self.database, _NO_ADOM, del_in, self._probes,
            rule_ids, stats=self.stats, ghosts=del_in,
        )
        self.stats.rule_firings += firings
        self.stats.differential["support_checks"] += _count(overdeleted)
        return (_minus(overdeleted, rederived), _count(overdeleted),
                _count(rederived))

    def _settle(self) -> None:
        """Bring the view size and the index counters up to date: the
        latter are the view database's totals, which count the build
        and every update."""
        db = self.database
        self.stats.differential["view_size"] = sum(
            len(db.relation(rel) or ()) for rel in db.relation_names()
        )
        (self.stats.index_builds, self.stats.index_updates,
         self.stats.index_drops) = db.index_totals()


def _fact(relation, values) -> Fact:
    """One batch entry as a ``(relation, tuple)`` fact, checked.

    Raises :class:`SchemaError` naming the entry unless ``relation`` is
    a name and ``values`` a non-string sequence of hashable values, so
    a bad entry fails its batch before the first fact is applied.
    """
    if not isinstance(relation, str):
        raise SchemaError(f"relation name {relation!r} is not a string")
    try:
        if isinstance(values, (str, bytes)):  # one value, not a sequence
            raise TypeError
        t = tuple(values)
        hash(t)
    except TypeError:
        raise SchemaError(
            f"fact {relation}{values!r}: values must be a sequence of "
            f"hashable values"
        ) from None
    return relation, t


def _facts(entries) -> list[Fact]:
    """A DiffBatch side's ``(relation, values)`` pairs, checked."""
    facts: list[Fact] = []
    for entry in entries:
        try:
            relation, t = entry
        except (TypeError, ValueError):
            raise SchemaError(
                f"diff entry {entry!r} is not a (relation, values) pair"
            ) from None
        facts.append(_fact(relation, t))
    return facts


def _normalize_batch(batch) -> tuple[list[Fact], list[Fact]]:
    """Coerce a DiffBatch or signed-triple iterable to checked fact lists."""
    if isinstance(batch, DiffBatch):
        return _facts(batch.inserts), _facts(batch.deletes)
    inserts: list[Fact] = []
    deletes: list[Fact] = []
    for op in batch:
        try:
            sign, relation, t = op
        except (TypeError, ValueError):
            raise SchemaError(
                f"diff entry {op!r} is not a (sign, relation, values) triple"
            ) from None
        if sign in ("+", "insert", 1):
            inserts.append(_fact(relation, t))
        elif sign in ("-", "delete", -1):
            deletes.append(_fact(relation, t))
        else:
            raise SchemaError(f"unknown diff sign {sign!r}")
    return inserts, deletes
