"""Differential evaluation: one incremental engine for positive views.

This module unifies the two classical view-maintenance algorithms —
DRed (:mod:`repro.semantics.maintenance`) and derivation counting
(:mod:`repro.semantics.counting`) — behind a single
:class:`DifferentialEngine`, in the spirit of differential dataflow:
a materialized minimum model that absorbs *diff batches* of base
(EDB) insertions and deletions in time proportional to the change,
and streams the induced IDB diffs to subscribers.

Strategy selection is per SCC of the predicate dependency graph,
reusing the planner's topologically-ordered schedule
(:func:`repro.semantics.planner.plan_context`):

* **nonrecursive SCC** — derivation counting.  Counting is exact
  whenever a fact cannot support itself, updates never need a
  rederivation phase, and the stored counts double as multiplicity
  provenance.
* **recursive SCC** — DRed (over-delete to a fixpoint, then restore
  survivors).  Counting is unsound under recursion (a cycle of facts
  keeps itself alive), so the component falls back to the algorithm
  that is exact there.

Components are processed in topological order; the net IDB diff of
each component joins the incoming delta of the components above it,
so one base change flows through the whole stratification exactly
once.

The view is first materialized the same way, component by component.
A DRed component runs the planner's scheduled fixpoint
(:func:`repro.semantics.planner.scheduled_fixpoint`) on its
subprogram, which absorbs each pass with one ``add_batch`` per relation
and ends with the index cover's chain garbage collection.  A counting
component walks each rule's full pass once (``RulePlan.run_rows``),
counts every head's derivations with a :class:`~collections.Counter`
(the ℕ-provenance of a nonrecursive rule) and absorbs the distinct
heads once (:func:`repro.semantics.planner.absorb`).

All bulk propagation (insertion deltas, over-deletion frontiers,
affected-fact discovery) goes through
:func:`repro.semantics.base.immediate_consequences` on a per-component
subprogram, which dispatches to the cost-based planner and the
generated kernels, and deltas freeze to delta blocks so those passes
take the batch kernels.  The add-only passes (rederivation,
insertion) say so with ``add_only=True``; the passes that read
consequences as "everything derivable" (affected-fact discovery,
over-deletion) do not.  Exact recounts and rederivation
support checks go through *support probes* (:class:`_SupportProbe`),
built once per component, when its first check needs them, and kept:
one per rule, a *bound* rule plan whose head variables are seeded from
each candidate fact, under a join order that counts them as bound.
Its ``count_full`` kernel takes a whole pass's candidates in one call
and returns each one's number of derivations, so a check costs that
fact's derivations rather than the whole rule's match set (this is
what replaces the old ``MaterializedView._rederive`` full
re-enumeration).  Facts leave and return in bulk: over-deleted facts
through ``Relation.discard_batch``, rederived and propagated ones
through ``Relation.add_batch``, one call per relation.

DRed's two phases live in one function, :func:`dred`, and semi-naive
insertion in another, :func:`propagate`, which DRed's rederivation
runs too.  The well-founded engine's steps call both
(:mod:`repro.semantics.wellfounded`).  What differs between the
callers is passed in as data: the first pass, the active domain
(``_NO_ADOM`` here), facts that may never be deleted, and the support
probes.

Cost model: an update costs the facts it touches.  Nothing in
:meth:`DifferentialEngine.apply` scans the view: the engine never
enumerates an active domain (positive range-restricted Datalog binds
every body variable in a positive literal, so its minimum model does
not depend on the domain and no compiled plan has ``unbound_slots``),
bulk passes are delta-restricted, and probe setup is paid once per
rule, not once per pass or per checked fact.

Scope: plain (positive) Datalog, the dialect in which both component
algorithms are exact.  Updates are **atomic**: the entire diff batch
is validated (hashable value sequences, no IDB-named relations,
consistent arities) before the first fact is touched, so a bad fact in
a batch can never leave the view half-updated.
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
from repro.semantics.base import (
    EngineStats,
    _order_positive_indices,
    immediate_consequences,
)
from repro.semantics.plan import (
    RulePlan,
    active_matcher,
    make_delta,
    plan_for,
)
from repro.terms import Var

Fact = tuple[str, tuple]
#: Facts by relation: a pass's inferences, or a change to a database.
Changes = dict[str, set[tuple]]

COUNTING = "counting"
DRED = "dred"

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


class _Component:
    """One SCC of the predicate dependency graph, with its strategy."""

    __slots__ = ("relations", "rules", "program", "reads", "strategy",
                 "probes")

    def __init__(self, relations: frozenset[str], rules: tuple[Rule, ...],
                 recursive: bool, name: str):
        self.relations = relations
        self.rules = rules
        #: The component's rules as a standalone program: bulk delta
        #: propagation runs ``immediate_consequences`` on it, which
        #: dispatches through the planner (its own cached context) and
        #: the generated kernels.
        self.program = Program(rules, name=name)
        self.reads: frozenset[str] = frozenset(
            relation for rule in rules for relation in rule.body_relations()
        )
        self.strategy = DRED if recursive else COUNTING
        #: The rules' support probes, built when the first check needs
        #: them and kept (see :meth:`DifferentialEngine._probes`).
        self.probes: dict[str, list[_SupportProbe]] | None = None


class _SupportProbe:
    """One rule's head-bound support check, built once and reused.

    The rule's bound :class:`~repro.semantics.plan.RulePlan`: every head
    variable is ``bound``, under the join order the database's relation
    sizes give when the probe is built, with those variables counted as
    bound from the first literal on.  :meth:`counts` runs the plan's
    ``count_full`` kernel, which checks each candidate against the
    head's constants and repeated variables, seeds the bound variables
    from its values and counts its body valuations through the
    relations' indexes, so a check costs the candidate's own join
    fan-out, not the rule's full match set, and a whole pass of checks
    is one call.

    The order only sets speed, never a count, so a probe may outlive
    the sizes it was ordered by: the differential engine builds its
    probes once per component, the well-founded engine once per run.
    """

    __slots__ = ("plan",)

    def __init__(self, rule: Rule, db: Database):
        (head,) = rule.head_literals()
        bound = sorted(
            {term for term in head.terms if isinstance(term, Var)},
            key=lambda v: v.name,
        )
        order = tuple(
            _order_positive_indices(list(rule.positive_body()), db, bound)
        )
        self.plan: RulePlan = plan_for(rule, order, bound=tuple(bound))

    def counts(self, db: Database, adom: tuple,
               heads: list[tuple]) -> list[int]:
        """Each of ``heads``' number of derivations by this rule from
        ``db`` as it stands, a body variable that no positive literal
        and no head binds ranging over ``adom`` (the well-founded
        engine's rules may bind one only under negation; the
        differential engine passes ``_NO_ADOM``).  Never mutates
        ``db``."""
        return self.plan.count_heads(db, adom, heads)


def support_probes(
    rules: Iterable[Rule], db: Database
) -> dict[str, list[_SupportProbe]]:
    """Support probes for ``rules``: head relation → one per rule.

    Ordered by ``db`` as it stands now, so each rule is ordered and
    looked up in its plan cache once per set of probes.
    """
    probes: dict[str, list[_SupportProbe]] = {}
    for rule in rules:
        (relation,) = rule.head_relations()
        probes.setdefault(relation, []).append(_SupportProbe(rule, db))
    return probes


def _derivation_counts(
    rule: Rule, db: Database
) -> tuple[str, Counter[tuple]]:
    """``rule``'s head relation, and each head tuple over ``db`` with
    its number of body valuations, the ℕ-provenance of a nonrecursive
    rule.

    One full-pass walk under the join order of
    :func:`repro.semantics.base.iter_matches`:
    ``RulePlan.run_rows`` returns the batch walk's rows, or the
    generator walk, whose reused slot list is read as it is yielded.
    """
    order = tuple(_order_positive_indices(list(rule.positive_body()), db))
    plan = plan_for(rule, order)
    ((relation, template, fills, _positive),) = plan.emitters
    template = list(template)

    def head(row) -> tuple:
        for position, s in fills:
            template[position] = row[s]
        return tuple(template)

    return relation, Counter(map(head, plan.run_rows(db, _NO_ADOM, -1, None)))


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
    seed: tuple[Program, Changes],
    stats: EngineStats | None = None,
    tracer=None,
    within: Changes | None = None,
) -> tuple[Changes, int]:
    """Semi-naive insertion on ``db``, in place: ``(added, firings)``.

    The first pass runs ``seed``'s program on ``seed``'s delta, and
    every later pass runs ``program`` on the facts the previous pass
    added, until no head is new.  A head joins ``db`` through its
    relation object, which must exist; with ``within`` given, only a
    head in ``within`` does.  Every pass is add-only: a head already in
    ``db`` is a no-op here, so the kernels may subtract it at the
    source.  Each pass's heads go in with one ``add_batch`` per
    relation.  ``stats`` and ``tracer`` go to every pass.  A delta that
    no rule of the pass program reads positively would derive nothing,
    so it ends the loop without a pass.
    """
    pass_program, delta = seed
    reads = planner.plan_context(pass_program).dispatch
    later = planner.plan_context(program).dispatch
    added: Changes = {}
    firings = 0
    while delta and not reads.keys().isdisjoint(delta):
        heads, _neg, fired = immediate_consequences(
            pass_program, db, adom, delta=_frozen(delta), stats=stats,
            tracer=tracer, add_only=True,
        )
        firings += fired
        pass_program, reads = program, later
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
    seed: tuple[Program, Changes],
    probes: Callable[[], dict[str, list[_SupportProbe]]],
    stats: EngineStats | None = None,
    keep: dict[str, Container[tuple]] | None = None,
    ghosts: Changes | None = None,
    tracer=None,
) -> tuple[Changes, Changes, int]:
    """DRed on ``db``, in place: ``(over-deleted, rederived, firings)``.

    The net deletion is the over-deleted facts minus the rederived ones,
    both by relation; ``firings`` counts every pass either phase ran.

    Phase 1 (over-delete): the first pass runs ``seed``'s program on
    ``seed``'s delta, and every later pass runs ``program`` on the facts
    the previous pass over-deleted, to a fixpoint.  A head joins the
    over-deletion when it is in ``db``, not kept (``keep`` holds, by
    relation, the facts that may never be deleted) and not over-deleted
    yet.  These passes read consequences as "everything
    derivable", most of it still in ``db``, so none is add-only; a
    frontier that no rule of the pass program reads positively ends the
    phase without a pass.  Every pass reads ``db`` before anything
    leaves it; then ``ghosts`` (facts, by relation, present only so
    that bodies match through them) and the over-deleted facts leave
    together, one ``discard_batch`` per relation.

    Phase 2 (delta-restricted rederive): the over-deleted candidates get
    head-bound support checks against what survived, through the probes
    ``probes()`` returns (called once, after the removal, and only when
    something was over-deleted), with ``adom`` for variables no
    positive literal binds: per relation, one ``count_full`` call per
    probe over the candidates no earlier probe supported.  The
    survivors go back with one ``add_batch`` per relation *after* the
    checks and are then propagated semi-naively (:func:`propagate`),
    but only into the candidate set: ``db`` may already hold facts of
    the same update that are not the candidates' to rederive.  Work is
    proportional to the over-deletion, not to ``db``.  ``stats`` and
    ``tracer`` go to every pass.
    """
    pass_program, frontier = seed
    reads = planner.plan_context(pass_program).dispatch
    later = planner.plan_context(program).dispatch
    overdeleted: Changes = {}
    firings = 0
    while frontier and not reads.keys().isdisjoint(frontier):
        heads, _neg, fired = immediate_consequences(
            pass_program, db, adom, delta=_frozen(frontier), stats=stats,
            tracer=tracer,
        )
        firings += fired
        pass_program, reads = program, later
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
            counts = probe.counts(db, adom, pending)
            held.extend(itertools.compress(pending, counts))
            pending = [t for t, n in zip(pending, counts) if not n]
            if not pending:
                break
        if held:
            supported[relation] = held
    for relation, ts in supported.items():
        db.relation(relation).add_batch(ts)
    rederived, fired = propagate(
        program, db, adom, (program, supported), stats=stats, tracer=tracer,
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
        #: Exact derivation counts for facts of counting components
        #: (DRed components keep no counts).
        self.counts: Counter[Fact] = Counter()
        self._components = self._build_components()
        self._subscriptions: list[Subscription] = []
        self.stats = EngineStats(
            engine="differential",
            matcher=active_matcher(),
        )
        self.stats.differential = {
            "components": [
                {
                    "relations": sorted(comp.relations),
                    "strategy": comp.strategy,
                    "rules": len(comp.rules),
                }
                for comp in self._components
            ],
            "updates": 0,
            "facts_touched": 0,
            "last_facts_touched": 0,
            "view_size": 0,
            "overdeleted": 0,
            "rederived": 0,
            "recounted": 0,
            "support_checks": 0,
        }
        started = perf_counter()
        self._materialize()
        self.stats.seconds += perf_counter() - started
        self.stats.differential["view_size"] = self._view_size()

    # -- construction -------------------------------------------------------

    def _build_components(self) -> list[_Component]:
        """The planner's SCC schedule, lifted to component subprograms."""
        schedule = planner.plan_context(self.program).schedule
        name = self.program.name or "program"
        return [
            _Component(
                comp.relations,
                tuple(self.program.rules[i] for i in comp.rule_ids),
                comp.recursive,
                name=f"{name}#scc{position}",
            )
            for position, comp in enumerate(schedule)
        ]

    def _materialize(self) -> None:
        """Initial evaluation, component by component in topo order.

        A DRed component runs the scheduled fixpoint on its subprogram
        (:func:`repro.semantics.planner.scheduled_fixpoint`).  A
        counting component counts its rules' derivations from one
        full-pass walk each (:func:`_derivation_counts`) and absorbs the
        distinct heads once: no rule of it reads a head relation of its
        own, so the walks may all run before anything is added.
        """
        for comp in self._components:
            if comp.strategy == DRED:
                planner.scheduled_fixpoint(
                    comp.program, self.database, _NO_ADOM, stats=self.stats
                )
                continue
            heads: Changes = {}
            for rule in comp.rules:
                relation, counts = _derivation_counts(rule, self.database)
                self.counts.update(
                    {(relation, t): n for t, n in counts.items()}
                )
                heads.setdefault(relation, set()).update(counts)
            planner.absorb(self.database, heads)

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

        overdeleted_total = rederived_total = recounted_total = 0
        if _count(inserted) or _count(deleted):
            for comp in self._components:
                ins_in = {
                    rel: ts for rel, ts in inserted.items()
                    if rel in comp.reads and ts
                }
                del_in = {
                    rel: ts for rel, ts in deleted.items()
                    if rel in comp.reads and ts
                }
                if not ins_in and not del_in:
                    continue
                if comp.strategy == COUNTING:
                    comp_ins, comp_del, recounted = self._counting_update(
                        comp, ins_in, del_in
                    )
                    recounted_total += recounted
                else:
                    comp_del, overdeleted, rederived = self._dred_delete(
                        comp, del_in
                    )
                    comp_ins = self._dred_insert(comp, ins_in)
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
            + overdeleted_total + rederived_total + recounted_total
        )
        counters = self.stats.differential
        counters["updates"] += 1
        counters["facts_touched"] += touched
        counters["last_facts_touched"] = touched
        counters["view_size"] = self._view_size()
        counters["overdeleted"] += overdeleted_total
        counters["rederived"] += rederived_total
        counters["recounted"] += recounted_total
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

    def strategy_of(self, relation: str) -> str | None:
        """``"counting"``, ``"dred"``, or ``None`` for EDB relations."""
        for comp in self._components:
            if relation in comp.relations:
                return comp.strategy
        return None

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

    # -- counting components ------------------------------------------------

    def _counting_update(
        self,
        comp: _Component,
        ins_in: Changes,
        del_in: Changes,
    ) -> tuple[Changes, Changes, int]:
        """Discover affected facts via one delta pass, recount exactly.

        Discovery matches against the *union* instance (post-state plus
        deleted "ghosts"), which contains both the pre- and post-state,
        so every derivation gained or lost shows up.  The
        over-approximation is harmless: the recount against the final
        state is exact.  No rule of the component reads its own heads,
        so no recount depends on another's outcome: each affected
        relation is recounted with one ``count_full`` call per probe
        (summed over the rules that derive it, the ℕ-provenance of a
        nonrecursive rule), and a fact whose count left or reached zero
        is added or removed afterwards, in one batch per relation.
        """
        db = self.database
        for relation, ts in del_in.items():
            db.relation(relation).add_batch(ts)
        delta: dict[str, set[tuple]] = {}
        for source in (ins_in, del_in):
            for relation, ts in source.items():
                delta.setdefault(relation, set()).update(ts)
        # Affected discovery reads consequences as "everything
        # derivable" — most of it is already in the database — so it
        # is not an add-only pass.
        affected, _neg, _firings = immediate_consequences(
            comp.program, db, _NO_ADOM,
            delta=_frozen(delta), stats=self.stats,
        )
        for relation, ts in del_in.items():
            db.relation(relation).discard_batch(ts)

        added: Changes = {}
        removed: Changes = {}
        probes = self._probes(comp) if affected else {}
        counts = self.counts
        for relation, ts in affected.items():
            heads = list(ts)
            totals = [0] * len(heads)
            for probe in probes[relation]:
                found = probe.counts(db, _NO_ADOM, heads)
                totals = list(map(operator.add, totals, found))
            gained: list[tuple] = []
            lost: list[tuple] = []
            for t, new in zip(heads, totals):
                fact = (relation, t)
                old = counts.get(fact, 0)
                if new:
                    counts[fact] = new
                    if not old:
                        gained.append(t)
                elif old:
                    del counts[fact]
                    lost.append(t)
            rel = db.relation(relation)
            if gained:
                added[relation] = set(rel.add_batch(gained))
            if lost:
                removed[relation] = set(rel.discard_batch(lost))
        recounted = _count(affected)
        self.stats.differential["support_checks"] += recounted
        return added, removed, recounted

    def _probes(self, comp: _Component) -> dict[str, list[_SupportProbe]]:
        """``comp``'s support probes, built on the first check and kept
        for the engine's life, as the well-founded run keeps its own:
        their join order, taken from the view's sizes then, only sets
        speed."""
        if comp.probes is None:
            comp.probes = support_probes(comp.rules, self.database)
        return comp.probes

    # -- DRed components ----------------------------------------------------

    def _dred_delete(
        self,
        comp: _Component,
        del_in: Changes,
    ) -> tuple[Changes, int, int]:
        """DRed for one recursive component (see :func:`dred`).

        The deleted input facts come back as ghosts, so rule bodies can
        match through them while the over-deletion closes; they leave
        with the over-deleted facts.  The support checks use the
        component's kept probes.  Returns the net deletion and the
        sizes of the over-deletion and of the rederivation.
        """
        if not del_in:
            return {}, 0, 0
        for relation, ts in del_in.items():
            self.database.relation(relation).add_batch(ts)
        overdeleted, rederived, _firings = dred(
            comp.program, self.database, _NO_ADOM,
            seed=(comp.program, del_in),
            probes=lambda: self._probes(comp),
            stats=self.stats,
            ghosts=del_in,
        )
        self.stats.differential["support_checks"] += _count(overdeleted)
        return (_minus(overdeleted, rederived), _count(overdeleted),
                _count(rederived))

    def _dred_insert(
        self,
        comp: _Component,
        ins_in: Changes,
    ) -> Changes:
        """Semi-naive insertion propagation within one component (see
        :func:`propagate`)."""
        added, _firings = propagate(
            comp.program, self.database, _NO_ADOM, (comp.program, ins_in),
            stats=self.stats,
        )
        return added

    # -- misc ---------------------------------------------------------------

    def _view_size(self) -> int:
        return sum(
            len(self.database.relation(rel) or ())
            for rel in self.database.relation_names()
        )


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
