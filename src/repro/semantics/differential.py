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

All bulk propagation (insertion deltas, over-deletion frontiers,
affected-fact discovery) goes through
:func:`repro.semantics.base.immediate_consequences` on a per-component
subprogram, which dispatches to the cost-based planner and the
compiled slot-plan kernel — never a hand-rolled interpreted loop —
and deltas freeze to columnar blocks so those passes take the batch
kernels.  Exact recounts and rederivation support checks go through
*support probes* (:class:`_SupportProbe`), built once per maintenance
pass for each rule of the component: the head positions that seed the
rule's bound variables, the head's constant and repeated-variable
checks, and a *bound* rule plan under a join order fixed for the pass.
A check then only indexes the candidate fact and walks the seeded plan
(:func:`_iter_bound_matches`), so its cost is that one fact's
derivations rather than the whole rule's match set (this is what
replaces the old ``MaterializedView._rederive`` full re-enumeration);
with the compiled tier ablated the probe falls back to the interpreted
literal-at-a-time walk.

Cost model: an update costs the facts it touches.  Nothing in
:meth:`DifferentialEngine.apply` scans the view: the engine never
enumerates an active domain (positive range-restricted Datalog binds
every body variable in a positive literal, so its minimum model does
not depend on the domain and no compiled plan has ``unbound_slots``),
bulk passes are delta-restricted, and probe setup is paid once per
pass per rule, not once per checked fact.

Scope: plain (positive) Datalog, the dialect in which both component
algorithms are exact.  Updates are **atomic**: the entire diff batch
is validated (hashable value sequences, no IDB-named relations,
consistent arities) before the first fact is touched, so a bad fact in
a batch can never leave the view half-updated.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator

from repro.errors import SchemaError
from repro.ast.analysis import validate_program
from repro.ast.program import Dialect, Program
from repro.ast.rules import Rule
from repro.relational.instance import Database
from repro.semantics.base import (
    EngineStats,
    _iter_literal_matches,
    _order_positive,
    _order_positive_indices,
    immediate_consequences,
    instantiate_head,
    iter_matches,
)
from repro.semantics.plan import (
    PlanCache,
    RulePlan,
    active_matcher,
    kernel_difference,
    make_delta,
    plan_for,
)
from repro.terms import Const, Var

Fact = tuple[str, tuple]

COUNTING = "counting"
DRED = "dred"

#: The active domain every matcher call receives.  The engine accepts
#: positive range-restricted Datalog only, where every body variable
#: occurs in a positive literal: no compiled plan has ``unbound_slots``
#: and the minimum model does not depend on the domain (§3.1), so
#: computing adom(P, I) would be a view-sized scan per update for
#: nothing.
_NO_ADOM: tuple = ()


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

    __slots__ = ("relations", "rules", "program", "reads", "strategy")

    def __init__(self, relations: frozenset[str], rules: tuple[Rule, ...],
                 recursive: bool, name: str):
        self.relations = relations
        self.rules = rules
        #: The component's rules as a standalone program: bulk delta
        #: propagation runs ``immediate_consequences`` on it, which
        #: dispatches through the planner (its own cached context) and
        #: the compiled kernel.
        self.program = Program(rules, name=name)
        self.reads: frozenset[str] = frozenset(
            relation for rule in rules for relation in rule.body_relations()
        )
        self.strategy = DRED if recursive else COUNTING


class _SupportProbe:
    """One rule's head-bound support check, built once per pass.

    Everything a check needs that does not depend on the candidate
    fact: which head positions seed the rule's ``bound`` variables
    (each variable's first head occurrence), the head's constant and
    repeated-variable checks, and the bound
    :class:`~repro.semantics.plan.RulePlan` under the join order the
    view's relation sizes give when the probe is built.  ``plan`` is
    ``None`` when the compiled tier is off; the interpreted walk then
    runs instead.

    The order only sets speed, never a count, and it cannot go stale
    within a pass: no pass resizes a body relation while its probes
    are in use.  DRed checks support before re-adding any survivor,
    and a counting component's bodies never read its own relation.
    """

    __slots__ = ("rule", "bound", "seed_positions", "constants", "repeats",
                 "plan")

    def __init__(self, rule: Rule, db: Database):
        (head,) = rule.head_literals()
        first: dict[Var, int] = {}
        constants: list[tuple[int, object]] = []
        repeats: list[tuple[int, int]] = []
        for position, term in enumerate(head.terms):
            if isinstance(term, Const):
                constants.append((position, term.value))
            elif term in first:
                repeats.append((position, first[term]))
            else:
                first[term] = position
        self.rule = rule
        self.bound: tuple[Var, ...] = tuple(
            sorted(first, key=lambda v: v.name)
        )
        self.seed_positions = tuple(first[v] for v in self.bound)
        self.constants = tuple(constants)
        self.repeats = tuple(repeats)
        self.plan: RulePlan | None = None
        if PlanCache.compiled_plans:
            positive = list(rule.positive_body())
            order = tuple(_order_positive_indices(positive, db))
            self.plan = plan_for(rule, order, bound=self.bound)


def _iter_bound_matches(probe: _SupportProbe, db: Database, values: tuple):
    """Body matches of ``probe.rule`` deriving the head fact ``values``.

    The top-down primitive behind exact recounts and rederivation
    support checks.  The probe's head checks reject a fact that
    contradicts a head constant or a repeated head variable; otherwise
    the fact's values at ``probe.seed_positions`` seed the bound
    variables, and each positive literal extends them through the
    relation's incremental indexes, so the cost is the candidate
    fact's own join fan-out, not the rule's full match set.
    Plain-Datalog scope: every body variable occurs in a positive
    literal, so the valuation is total when the last literal matches.
    Callers only count yields, so the items themselves carry no
    contract — one yield per total body valuation.

    With the compiled tier on, this runs the probe's bound plan: the
    seed values occupy slots ``0..k-1`` and later occurrences of
    seeded variables are indexed key fills.  Nothing is ordered,
    compiled or looked up per call; that happened once, when the pass
    built its probes.

    Never mutates the database; callers buffer any re-additions and
    apply them only after enumeration finishes (or is abandoned).
    """
    for position, value in probe.constants:
        if values[position] != value:
            return iter(())
    for position, first in probe.repeats:
        if values[position] != values[first]:
            return iter(())
    seed = tuple([values[position] for position in probe.seed_positions])
    if probe.plan is not None:
        return probe.plan.iter_seeded(db, _NO_ADOM, seed)
    valuation = dict(zip(probe.bound, seed))
    ordered = _order_positive(list(probe.rule.positive_body()), db)

    def descend(idx: int) -> Iterator[dict]:
        if idx == len(ordered):
            yield valuation
            return
        for _ in _iter_literal_matches(ordered[idx], db, valuation):
            yield from descend(idx + 1)

    return descend(0)


def _dict_of(facts: Iterable[Fact]) -> dict[str, set[tuple]]:
    out: dict[str, set[tuple]] = {}
    for relation, t in facts:
        out.setdefault(relation, set()).add(t)
    return out


def _frozen(delta: dict[str, set[tuple]]) -> dict:
    """Freeze a delta for propagation — delta *blocks* when the full
    matcher stack is on, so bulk passes take the batch kernels."""
    return {rel: make_delta(ts) for rel, ts in delta.items() if ts}


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
        from repro.semantics import planner as _planner

        schedule = _planner.plan_context(self.program).schedule
        name = self.program.name or "program"
        if schedule is None:  # pragma: no cover - positive Datalog is
            # always schedulable; kept so an exotic caller degrades to
            # whole-program DRed instead of crashing.
            return [
                _Component(
                    frozenset(self.program.idb),
                    self.program.rules,
                    recursive=True,
                    name=f"{name}#all",
                )
            ]
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
        """Initial evaluation, component by component in topo order."""
        for comp in self._components:
            if comp.strategy == COUNTING:
                additions: list[Fact] = []
                for rule in comp.rules:
                    for valuation in iter_matches(
                        rule, self.database, _NO_ADOM
                    ):
                        for relation, t, _ in instantiate_head(rule, valuation):
                            self.counts[(relation, t)] += 1
                            additions.append((relation, t))
                # Buffered: the head relation is never read by a
                # nonrecursive component's bodies, but we still never
                # mutate while a match generator is live.
                for relation, t in additions:
                    self.database.add_fact(relation, t)
            else:
                # Add-only fixpoint: the batch kernels may subtract
                # already-present heads before emitting.
                with kernel_difference():
                    delta: dict[str, set[tuple]] = {}
                    heads, _neg, _firings = immediate_consequences(
                        comp.program, self.database, _NO_ADOM,
                        stats=self.stats,
                    )
                    for relation, t in heads:
                        if self.database.add_fact(relation, t):
                            delta.setdefault(relation, set()).add(t)
                    while delta:
                        heads, _neg, _firings = immediate_consequences(
                            comp.program, self.database, _NO_ADOM,
                            delta=_frozen(delta), stats=self.stats,
                        )
                        delta = {}
                        for relation, t in heads:
                            if self.database.add_fact(relation, t):
                                delta.setdefault(relation, set()).add(t)

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

        base_deleted: set[Fact] = set()
        base_inserted: set[Fact] = set()
        for relation, t in deletes:
            if self.database.remove_fact(relation, t):
                base_deleted.add((relation, t))
        for relation, t in inserts:
            if self.database.add_fact(relation, t):
                if (relation, t) in base_deleted:
                    base_deleted.discard((relation, t))  # net no-op
                else:
                    base_inserted.add((relation, t))

        inserted = _dict_of(base_inserted)
        deleted = _dict_of(base_deleted)
        overdeleted_total = rederived_total = recounted_total = 0
        if base_inserted or base_deleted:
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
                    cancelled = comp_del & comp_ins
                    comp_del -= cancelled
                    comp_ins -= cancelled
                for relation, t in comp_ins:
                    inserted.setdefault(relation, set()).add(t)
                for relation, t in comp_del:
                    deleted.setdefault(relation, set()).add(t)

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
        ins_in: dict[str, set[tuple]],
        del_in: dict[str, set[tuple]],
    ) -> tuple[set[Fact], set[Fact], int]:
        """Discover affected facts via one delta pass, recount exactly.

        Discovery matches against the *union* instance (post-state plus
        deleted "ghosts"), which contains both the pre- and post-state,
        so every derivation gained or lost shows up.  The
        over-approximation is harmless: the per-fact recount against
        the final state is exact.  The recounts share one set of
        support probes, built after the ghosts leave.
        """
        ghosts = [
            (rel, t) for rel, ts in sorted(del_in.items()) for t in ts
        ]
        for relation, t in ghosts:
            self.database.add_fact(relation, t)
        delta: dict[str, set[tuple]] = {}
        for source in (ins_in, del_in):
            for relation, ts in source.items():
                delta.setdefault(relation, set()).update(ts)
        # Affected discovery reads consequences as "everything
        # derivable" — most of it is already in the database — so it
        # stays outside ``kernel_difference``.
        affected, _neg, _firings = immediate_consequences(
            comp.program, self.database, _NO_ADOM,
            delta=_frozen(delta), stats=self.stats,
        )
        for relation, t in ghosts:
            self.database.remove_fact(relation, t)

        added: set[Fact] = set()
        removed: set[Fact] = set()
        probes = self._support_probes(comp) if affected else {}
        for fact in sorted(affected, key=repr):
            old = self.counts.get(fact, 0)
            new = self._derivation_count(fact, probes)
            if new != old:
                if old == 0 and new > 0:
                    self.database.add_fact(*fact)
                    added.add(fact)
                elif old > 0 and new == 0:
                    self.database.remove_fact(*fact)
                    removed.add(fact)
            if new:
                self.counts[fact] = new
            else:
                self.counts.pop(fact, None)
        return added, removed, len(affected)

    def _support_probes(
        self, comp: _Component
    ) -> dict[str, list[_SupportProbe]]:
        """One pass's support probes: head relation → one per rule.

        Built when a pass has its first fact to check, against the
        view as it stands then, so each rule is ordered and looked up
        in the plan cache once per pass.
        """
        probes: dict[str, list[_SupportProbe]] = {}
        for rule in comp.rules:
            (relation,) = rule.head_relations()
            probes.setdefault(relation, []).append(
                _SupportProbe(rule, self.database)
            )
        return probes

    def _derivation_count(
        self,
        fact: Fact,
        probes: dict[str, list[_SupportProbe]],
        limit: int | None = None,
    ) -> int:
        """Exact derivation count of one fact against the current view.

        Head-bound matching through the pass's ``probes`` (see
        :meth:`_support_probes`): per rule, the fact's values seed the
        probe's bound plan, so the cost is this fact's derivations, not
        the rule's full match set, and no per-fact setup is left.
        ``limit`` turns the count into an existence check
        (rederivation support).
        """
        self.stats.differential["support_checks"] += 1
        relation, values = fact
        total = 0
        for probe in probes.get(relation, ()):
            for _ in _iter_bound_matches(probe, self.database, values):
                total += 1
                if limit is not None and total >= limit:
                    return total
        return total

    # -- DRed components ----------------------------------------------------

    def _dred_delete(
        self,
        comp: _Component,
        del_in: dict[str, set[tuple]],
    ) -> tuple[set[Fact], int, int]:
        """DRed for one recursive component.

        Phase 1 (over-delete): the deleted input facts come back as
        ghosts so rule bodies can match through them; every component
        fact with a derivation touching the frontier joins the
        over-deletion, to a fixpoint, then ghosts and over-deleted
        facts leave the database together.

        Phase 2 (delta-restricted rederive): each over-deleted
        candidate gets a head-bound support check against the
        surviving view, all through one set of support probes built
        for the pass; the survivors are buffered, re-added *after*
        the scan, and then propagated semi-naively — but only into the
        candidate set.  Work is proportional to the over-deletion, not
        the view.
        """
        if not del_in:
            return set(), 0, 0
        db = self.database
        ghosts = [
            (rel, t) for rel, ts in sorted(del_in.items()) for t in ts
        ]
        for relation, t in ghosts:
            db.add_fact(relation, t)
        overdeleted: set[Fact] = set()
        frontier: dict[str, set[tuple]] = {
            rel: set(ts) for rel, ts in del_in.items()
        }
        while frontier:
            # The frontier wants heads that ARE in the database (the
            # candidates to over-delete) — full consequence sets, so
            # no ``kernel_difference`` here either.
            heads, _neg, _firings = immediate_consequences(
                comp.program, db, _NO_ADOM,
                delta=_frozen(frontier), stats=self.stats,
            )
            frontier = {}
            for fact in heads:
                if fact in overdeleted:
                    continue
                relation, t = fact
                if db.has_fact(relation, t):
                    overdeleted.add(fact)
                    frontier.setdefault(relation, set()).add(t)
        for relation, t in ghosts:
            db.remove_fact(relation, t)
        for relation, t in overdeleted:
            db.remove_fact(relation, t)

        rederived: set[Fact] = set()
        probes = self._support_probes(comp) if overdeleted else {}
        supported = [
            fact
            for fact in sorted(overdeleted, key=repr)
            if self._derivation_count(fact, probes, limit=1)
        ]
        delta: dict[str, set[tuple]] = {}
        for fact in supported:
            relation, t = fact
            db.add_fact(relation, t)
            rederived.add(fact)
            delta.setdefault(relation, set()).add(t)
        # Every head this loop can act on is an over-deleted fact not
        # yet re-added — never currently in the database — so the
        # in-kernel difference cannot hide one.
        with kernel_difference():
            while delta:
                heads, _neg, _firings = immediate_consequences(
                    comp.program, db, _NO_ADOM,
                    delta=_frozen(delta), stats=self.stats,
                )
                delta = {}
                for fact in heads:
                    if fact in overdeleted and fact not in rederived:
                        relation, t = fact
                        db.add_fact(relation, t)
                        rederived.add(fact)
                        delta.setdefault(relation, set()).add(t)
        return overdeleted - rederived, len(overdeleted), len(rederived)

    def _dred_insert(
        self,
        comp: _Component,
        ins_in: dict[str, set[tuple]],
    ) -> set[Fact]:
        """Semi-naive insertion propagation within one component."""
        if not ins_in:
            return set()
        db = self.database
        added: set[Fact] = set()
        delta: dict[str, set[tuple]] = {
            rel: set(ts) for rel, ts in ins_in.items()
        }
        # Add-only: already-present heads are no-ops here, so the
        # kernels may subtract them at the source.
        with kernel_difference():
            while delta:
                heads, _neg, _firings = immediate_consequences(
                    comp.program, db, _NO_ADOM,
                    delta=_frozen(delta), stats=self.stats,
                )
                delta = {}
                for fact in heads:
                    relation, t = fact
                    if db.add_fact(relation, t):
                        added.add(fact)
                        delta.setdefault(relation, set()).add(t)
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
