"""Shared evaluation machinery: rule matching and immediate consequences.

Every engine in the family reduces to the same primitive, spelled out
in §4.1 of the paper: enumerate the *instantiations* of a rule with
respect to the current instance — valuations of the rule's variables
into adom(P, K) making every positive body literal a fact of K, every
negative literal a non-fact, and every (in)equality literal true.

Two matchers compute it:

* the **production** path — each (rule, join order) compiled once into
  a slot plan (:mod:`repro.semantics.plan`) and from there into
  specialized Python (:mod:`repro.semantics.codegen`).
  :func:`iter_matches` is its generator API; :func:`immediate_consequences`
  hands whole passes to the planner (:func:`repro.semantics.planner
  .consequences`), which runs the batch kernels;
* the **reference** matcher, :func:`reference_matches` — a direct
  recursive-generator backtracking join over the positive literals
  (driven by each relation's identity chains), followed by equality
  propagation, active-domain enumeration of any variables bound by no
  positive literal, and final checks of negative and inequality
  literals.  Variables occurring *only* in negative literals range over
  the full active domain, exactly as the paper's semantics prescribes
  (this is what makes ``CT(x,y) ← ¬T(x,y)`` meaningful).  It is the test
  oracle; no evaluation calls it.

Under the same join order both enumerate the same matches in the same
order; ``tests/test_plan_kernel.py`` and the differential suites pin
that equivalence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Hashable, Iterable, Iterator

from repro.ast.program import Program
from repro.ast.rules import EqLit, Lit, Rule
from repro.relational.instance import Database
from repro.semantics import planner
from repro.semantics.plan import active_matcher, plan_for
from repro.terms import Const, Var, apply_valuation

#: Version of the ``repro stats --format json`` schema.  Bump on any
#: field rename/removal; additions are allowed.
STATS_SCHEMA_VERSION = 4


@dataclass
class StageTrace:
    """Per-stage record of a forward-chaining evaluation."""

    stage: int
    new_facts: list[tuple[str, tuple]] = field(default_factory=list)
    removed_facts: list[tuple[str, tuple]] = field(default_factory=list)

    @property
    def added(self) -> int:
        return len(self.new_facts)

    @property
    def removed(self) -> int:
        return len(self.removed_facts)


@dataclass
class StageStats:
    """Instrumentation for one consequence pass of an engine.

    ``index_builds`` counts full from-scratch index constructions during
    the pass; ``index_updates`` counts single-tuple in-place maintenance
    operations.  A healthy delta-driven engine builds each index once
    and then only updates.
    """

    stage: int
    seconds: float = 0.0
    firings: int = 0
    added: int = 0
    removed: int = 0
    index_builds: int = 0
    index_updates: int = 0
    index_drops: int = 0

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "firings": self.firings,
            "added": self.added,
            "removed": self.removed,
            "index_builds": self.index_builds,
            "index_updates": self.index_updates,
            "index_drops": self.index_drops,
        }


@dataclass
class EngineStats:
    """Whole-run observability for an evaluation engine.

    Populated by the engine drivers via :class:`StatsRecorder` and by
    :func:`immediate_consequences` (``consequence_calls``); surfaced on
    results as ``result.stats`` and by the ``repro stats`` CLI command.
    """

    engine: str = ""
    #: Which matcher produced the instantiations: always ``"columnar"``
    #: (the production path: planner plus generated batch and scalar
    #: kernels, traced runs included).
    matcher: str = ""
    seconds: float = 0.0
    rule_firings: int = 0
    consequence_calls: int = 0
    #: |adom(P, I)| as enumerated for the run.  Reads 0 for the
    #: differential engine, which never enumerates an active domain:
    #: it accepts positive Datalog only, whose minimum model does not
    #: depend on the domain.
    adom_size: int = 0
    index_builds: int = 0
    index_updates: int = 0
    index_drops: int = 0
    #: This run's query-planner report (plan cache traffic, per-rule
    #: join orders with estimated vs. actual cardinality, index-cover
    #: size), or ``None`` when the planner never engaged (an engine
    #: outside the planned paths).  A plain dict so the
    #: pinned stats JSON stays ``json.dumps``-able; see
    #: :func:`repro.semantics.planner.explain` for the shape.
    planner: dict | None = None
    #: Differential-engine counters (facts touched per update vs view
    #: size, per-component ``recursive`` flags, over-delete/rederive
    #: tallies), or ``None`` for from-scratch engines.  A plain dict,
    #: like ``planner``, so the pinned stats JSON stays
    #: ``json.dumps``-able; populated only by
    #: :class:`repro.semantics.differential.DifferentialEngine`.
    differential: dict | None = None
    stages: list[StageStats] = field(default_factory=list)

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def summary(self) -> str:
        """A deterministic multi-line rendering (used by ``repro stats``).

        The per-stage table sizes its columns to the widest value so
        large counters never shear the alignment.
        """
        lines = [
            f"engine:            {self.engine or '(unknown)'}",
            f"matcher:           {self.matcher or '(unknown)'}",
            f"wall time:         {self.seconds:.6f} s",
            f"stages:            {len(self.stages)}",
            f"rule firings:      {self.rule_firings}",
            f"consequence calls: {self.consequence_calls}",
            f"adom size:         {self.adom_size}",
            f"index builds:      {self.index_builds}",
            f"index updates:     {self.index_updates}",
            f"index drops:       {self.index_drops}",
        ]
        if self.stages:
            headers = (
                "stage", "seconds", "firings", "+facts", "-facts",
                "builds", "updates",
            )
            rows = [
                (
                    str(s.stage), f"{s.seconds:.6f}", str(s.firings),
                    str(s.added), str(s.removed), str(s.index_builds),
                    str(s.index_updates),
                )
                for s in self.stages
            ]
            widths = [
                max(len(header), max(len(row[i]) for row in rows))
                for i, header in enumerate(headers)
            ]
            lines.append(
                "  ".join(h.rjust(w) for h, w in zip(headers, widths))
            )
            for row in rows:
                lines.append(
                    "  ".join(c.rjust(w) for c, w in zip(row, widths))
                )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The pinned JSON shape of ``repro stats --format json``.

        Version 4 of ``STATS_SCHEMA_VERSION``: each entry of
        ``differential["components"]`` carries a ``recursive`` flag in
        place of its ``strategy`` label, since the differential engine
        keeps every component by DRed; ``differential["recounted"]``
        stays and reads 0.  Version 3 had removed the planner report's
        adaptive-replan counter, its static-prior and measured-stats
        maps and each variant's per-literal ``sources`` map, when the
        planner began to skip every pass with an empty input.  Version
        2 had dropped version 1's ``storage`` key, when relations
        stopped keeping the interned column store it priced.
        ``matcher``, ``index_drops``, ``planner`` and ``differential``
        were added to version 1 under the additive-changes rule.
        """
        return {
            "engine": self.engine,
            "matcher": self.matcher,
            "seconds": self.seconds,
            "stage_count": self.stage_count,
            "rule_firings": self.rule_firings,
            "consequence_calls": self.consequence_calls,
            "adom_size": self.adom_size,
            "index_builds": self.index_builds,
            "index_updates": self.index_updates,
            "index_drops": self.index_drops,
            "planner": self.planner,
            "differential": self.differential,
            "stages": [s.to_dict() for s in self.stages],
        }


class StatsRecorder:
    """Builds an :class:`EngineStats` while an engine runs.

    The recorder *watches* a database: each :meth:`stage` call diffs the
    database's cumulative index counters against the previous call, so
    per-stage index work is attributed to the stage that did it.  Engines
    that evaluate over several scratch databases (well-founded, Statelog)
    either re-:meth:`watch` or pass explicit ``counters``.

    ``tracer`` (a :class:`repro.obs.Tracer`, duck-typed so this module
    never imports the observability layer) receives a ``run_begin``
    event on construction, one stage span per :meth:`stage` call, and a
    ``run_end`` event from :meth:`finish`.  A ``None`` or disabled
    tracer costs a single ``is None`` test per stage.
    """

    def __init__(self, engine: str, db: Database | None = None, tracer=None):
        self.stats = EngineStats(engine=engine)
        self.tracer = (
            tracer if tracer is not None and tracer.enabled else None
        )
        self.stats.matcher = active_matcher()
        self._db: Database | None = None
        self._counters = (0, 0, 0)
        self._t0 = perf_counter()
        self._mark = self._t0
        if db is not None:
            self.watch(db)
        if self.tracer is not None:
            self.tracer.run_begin(engine)

    def watch(self, db: Database) -> None:
        """(Re)bind the database whose index counters are diffed."""
        self._db = db
        self._counters = db.index_totals()

    def stage(
        self,
        stage: int,
        firings: int = 0,
        added: int = 0,
        removed: int = 0,
        counters: tuple[int, int, int] | None = None,
        trace: StageTrace | None = None,
    ) -> None:
        """Close out one consequence pass and record its stats.

        ``counters``, when given explicitly, is ``(builds, updates,
        drops)``, as :meth:`Database.index_totals` returns.  ``trace``,
        when given and a fact-collecting tracer is attached, lets the
        stage span carry the actual facts added/removed (the ``repro
        trace`` rendering path).
        """
        now = perf_counter()
        if counters is None:
            if self._db is not None:
                totals = self._db.index_totals()
                counters = (
                    totals[0] - self._counters[0],
                    totals[1] - self._counters[1],
                    totals[2] - self._counters[2],
                )
                self._counters = totals
            else:
                counters = (0, 0, 0)
        record = StageStats(
            stage=stage,
            seconds=now - self._mark,
            firings=firings,
            added=added,
            removed=removed,
            index_builds=counters[0],
            index_updates=counters[1],
            index_drops=counters[2],
        )
        self.stats.stages.append(record)
        if self.tracer is not None:
            self.tracer.stage(record, trace=trace)
        self._mark = now

    def settle(self) -> None:
        """Fold counter movement since the last stage record into it.

        End-of-run index maintenance (the planner's cover GC) happens
        after the final consequence pass closes; without settling, those
        drops fall between stage records and never reach the totals.
        """
        if self._db is None or not self.stats.stages:
            return
        totals = self._db.index_totals()
        last = self.stats.stages[-1]
        last.index_builds += totals[0] - self._counters[0]
        last.index_updates += totals[1] - self._counters[1]
        last.index_drops += totals[2] - self._counters[2]
        self._counters = totals

    def finish(self, adom_size: int = 0) -> EngineStats:
        """Total the per-stage records and return the finished stats."""
        stats = self.stats
        stats.seconds = perf_counter() - self._t0
        stats.adom_size = adom_size
        stats.rule_firings = sum(s.firings for s in stats.stages)
        stats.index_builds = sum(s.index_builds for s in stats.stages)
        stats.index_updates = sum(s.index_updates for s in stats.stages)
        stats.index_drops = sum(s.index_drops for s in stats.stages)
        if self.tracer is not None:
            self.tracer.run_end(stats)
        return stats


@dataclass
class EvaluationResult:
    """Outcome of a deterministic evaluation.

    ``database`` holds the final instance (edb and idb relations);
    ``stages`` traces each application of the immediate consequence
    operator; ``rule_firings`` counts instantiations considered;
    ``stats`` carries the engine's :class:`EngineStats`.
    """

    database: Database
    stages: list[StageTrace] = field(default_factory=list)
    rule_firings: int = 0
    stats: EngineStats = field(
        default_factory=EngineStats, repr=False, compare=False
    )
    _stage_index: tuple[tuple[int, int], dict[tuple[str, tuple], int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def answer(self, relation: str) -> frozenset[tuple]:
        """Tuples of one (typically the designated answer) relation."""
        return self.database.tuples(relation)

    def stage_of(self, relation: str, t: tuple) -> int | None:
        """The stage at which a fact was first derived, if it was.

        Backed by a lazily-built fact → stage dict so repeated
        provenance-style queries cost O(1) instead of a scan over every
        stage's facts; the dict is rebuilt if stages were appended since.
        """
        return self._stage_lookup().get((relation, t))

    def _stage_lookup(self) -> dict[tuple[str, tuple], int]:
        fingerprint = (
            len(self.stages),
            sum(len(trace.new_facts) for trace in self.stages),
        )
        cached = self._stage_index
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        lookup: dict[tuple[str, tuple], int] = {}
        for trace in self.stages:
            for fact in trace.new_facts:
                lookup.setdefault(fact, trace.stage)
        self._stage_index = (fingerprint, lookup)
        return lookup


def _literal_binding(
    lit: Lit, valuation: dict[Var, Hashable]
) -> tuple[tuple[int, ...], tuple[Hashable, ...], list[tuple[int, Var]]]:
    """Split a literal's positions into bound (position, value) and free."""
    bound_positions: list[int] = []
    bound_values: list[Hashable] = []
    free: list[tuple[int, Var]] = []
    for position, term in enumerate(lit.atom.terms):
        if isinstance(term, Const):
            bound_positions.append(position)
            bound_values.append(term.value)
        elif term in valuation:
            bound_positions.append(position)
            bound_values.append(valuation[term])
        else:
            free.append((position, term))
    return tuple(bound_positions), tuple(bound_values), free


def _order_positive_indices(
    literals: list[Lit], db: Database, bound: Iterable[Var] = ()
) -> list[int]:
    """Greedy join order, as indices: start small, follow shared variables.

    ``bound`` are variables the caller binds before the join runs (a
    support probe's head-seeded variables); they count as shared from
    the first pick on.  Ties (same shared-variable count, same relation
    size) go to the literal occurring first in the rule body.  The
    per-literal variable sets are built once up front — the selection
    loop runs O(n²) times per rule per stage and must not rebuild them.
    """
    if not literals:
        return []

    var_sets = [lit.variables() for lit in literals]
    sizes: list[int] = []
    for lit in literals:
        rel = db.relation(lit.relation)
        sizes.append(len(rel) if rel is not None else 0)

    remaining = list(range(len(literals)))
    ordered: list[int] = []
    bound = set(bound)
    while remaining:
        best_slot = 0
        best_key = (-1, 1)
        for slot, i in enumerate(remaining):
            shared = len(var_sets[i] & bound)
            key = (shared, -sizes[i])
            if key > best_key:
                best_key = key
                best_slot = slot
        chosen = remaining.pop(best_slot)
        ordered.append(chosen)
        bound |= var_sets[chosen]
    return ordered


def _order_positive(literals: list[Lit], db: Database) -> list[Lit]:
    """Greedy join order over the literals themselves (see above)."""
    return [literals[i] for i in _order_positive_indices(literals, db)]


def _literal_candidates(
    lit: Lit,
    db: Database,
    valuation: dict[Var, Hashable],
    restricted: frozenset[tuple] | None = None,
) -> tuple[list[tuple], list[tuple[int, Var]]]:
    """The candidate tuples one positive literal will be joined against.

    Returns ``(candidates, free)`` where ``free`` are the literal's
    still-unbound (position, variable) pairs.  Split out from
    :func:`_extend_valuation` so a reference join count (the tests'
    check of the traced kernels' per-literal counts) can count
    candidates without duplicating the lookup logic.
    """
    bound_positions, bound_values, free = _literal_binding(lit, valuation)
    rel = db.relation(lit.relation)
    if restricted is not None:
        candidates = [
            t
            for t in restricted
            if all(t[p] == v for p, v in zip(bound_positions, bound_values))
        ]
    elif rel is None:
        candidates = []
    elif not free and bound_positions:
        exact = tuple(bound_values)
        candidates = [exact] if exact in rel else []
    elif bound_positions:
        # The identity chain, probed at full depth.  Snapshot the
        # bucket: consumers may add facts between yields, and the live
        # ordered-set bucket must not grow mid-iteration.
        candidates = list(rel.probe_chain(
            bound_positions, len(bound_positions), bound_values
        ))
    else:
        candidates = list(rel)
    return candidates, free


def _extend_valuation(
    candidates: list[tuple],
    free: list[tuple[int, Var]],
    valuation: dict[Var, Hashable],
) -> Iterator[dict[Var, Hashable]]:
    """Extend ``valuation`` over each candidate tuple; yields and undoes."""
    for candidate in candidates:
        newly_bound: list[Var] = []
        consistent = True
        for position, var in free:
            value = candidate[position]
            if var in valuation:
                if valuation[var] != value:
                    consistent = False
                    break
            else:
                valuation[var] = value
                newly_bound.append(var)
        if consistent:
            yield valuation
        for var in newly_bound:
            del valuation[var]


def _propagate_equalities(
    equalities: list[EqLit], valuation: dict[Var, Hashable]
) -> tuple[bool, list[Var]]:
    """Bind variables through positive equalities; check bound ones.

    Returns (consistent, newly bound variables); on inconsistency the
    caller must still undo the returned bindings.
    """
    newly_bound: list[Var] = []
    progress = True
    pending = [eq for eq in equalities if eq.positive]
    while progress:
        progress = False
        still_pending: list[EqLit] = []
        for eq in pending:
            left_val = (
                eq.left.value
                if isinstance(eq.left, Const)
                else valuation.get(eq.left, _UNBOUND)
            )
            right_val = (
                eq.right.value
                if isinstance(eq.right, Const)
                else valuation.get(eq.right, _UNBOUND)
            )
            if left_val is not _UNBOUND and right_val is not _UNBOUND:
                if left_val != right_val:
                    return False, newly_bound
            elif left_val is not _UNBOUND:
                valuation[eq.right] = left_val  # type: ignore[index]
                newly_bound.append(eq.right)  # type: ignore[arg-type]
                progress = True
            elif right_val is not _UNBOUND:
                valuation[eq.left] = right_val  # type: ignore[index]
                newly_bound.append(eq.left)  # type: ignore[arg-type]
                progress = True
            else:
                still_pending.append(eq)
        pending = still_pending
    return True, newly_bound


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()


def _check_residual(
    rule: Rule, db: Database, valuation: dict[Var, Hashable]
) -> bool:
    """Check negative literals and (in)equalities under a full valuation."""
    for lit in rule.negative_body():
        if db.has_fact(lit.relation, apply_valuation(lit.atom.terms, valuation)):
            return False
    for eq in rule.equality_body():
        left = eq.left.value if isinstance(eq.left, Const) else valuation[eq.left]
        right = eq.right.value if isinstance(eq.right, Const) else valuation[eq.right]
        if (left == right) != eq.positive:
            return False
    return True


def iter_matches(
    rule: Rule,
    db: Database,
    adom: tuple[Hashable, ...],
    delta: dict[str, frozenset[tuple]] | None = None,
    span=None,
) -> Iterator[dict[Var, Hashable]]:
    """All instantiations of ``rule`` w.r.t. ``db`` (see module docstring).

    The production generator: the rule's compiled plan under the greedy
    size-driven join order, one valuation per match.  Yields valuations
    covering every body variable (head-only invention variables are
    *not* bound here — the invention engine handles them).  The yielded
    dict is reused; callers must copy it if they keep it.

    ``delta``, when given, restricts matching so that at least one
    positive literal matches a delta fact (semi-naive evaluation): the
    plan is run once per positive literal occurrence with that
    occurrence restricted to the delta, which may yield duplicate
    valuations — callers dedupe via the set of derived facts.

    Universal (∀) rules are handled by
    :func:`iter_universal_matches`; this function ignores the
    ``universal`` marker and treats all variables existentially.
    Enumeration order equals :func:`reference_matches`'s, so seeded
    engines replay identically whichever of the two they run.

    ``span`` (a :class:`repro.obs.RuleSpan`, duck-typed), when given,
    books the join order and the per-literal counts of the traced walk
    (:mod:`repro.semantics.codegen_traced`), which enumerates the same
    matches in the same order.
    """
    order = tuple(_order_positive_indices(list(rule.positive_body()), db))
    plan = plan_for(rule, order)
    out: dict[Var, Hashable] = {}
    out_vars = plan.out_vars
    if span is None:
        matches = plan.iter_slot_matches(db, adom, delta)
    else:
        from repro.semantics import codegen_traced

        span.ran(order)
        matches = codegen_traced.iter_slot_matches(
            plan, db, adom, delta, span.tally()
        )
    for slots in matches:
        for var, s in out_vars:
            out[var] = slots[s]
        yield out


def reference_matches(
    rule: Rule,
    db: Database,
    adom: tuple[Hashable, ...],
    delta: dict[str, frozenset[tuple]] | None = None,
) -> Iterator[dict[Var, Hashable]]:
    """The reference matcher: :func:`iter_matches` computed directly.

    Same contract and same enumeration order as :func:`iter_matches`,
    by a recursive backtracking join over valuation dicts instead of a
    compiled plan.  The test oracle.
    """
    ordered = _order_positive(list(rule.positive_body()), db)

    def run(restricted_index: int | None) -> Iterator[dict[Var, Hashable]]:
        valuation: dict[Var, Hashable] = {}

        def descend(idx: int) -> Iterator[dict[Var, Hashable]]:
            if idx == len(ordered):
                yield from finish()
                return
            lit = ordered[idx]
            restricted = None
            if idx == restricted_index:
                restricted = delta.get(lit.relation, frozenset())
            candidates, free = _literal_candidates(
                lit, db, valuation, restricted
            )
            for _ in _extend_valuation(candidates, free, valuation):
                yield from descend(idx + 1)

        def finish() -> Iterator[dict[Var, Hashable]]:
            ok, eq_bound = _propagate_equalities(
                list(rule.equality_body()), valuation
            )
            if ok:
                unbound = [
                    v for v in sorted(rule.body_variables(), key=lambda v: v.name)
                    if v not in valuation
                ]
                if unbound:
                    for values in itertools.product(adom, repeat=len(unbound)):
                        for var, value in zip(unbound, values):
                            valuation[var] = value
                        if _check_residual(rule, db, valuation):
                            yield valuation
                    for var in unbound:
                        valuation.pop(var, None)
                else:
                    if _check_residual(rule, db, valuation):
                        yield valuation
            for var in eq_bound:
                valuation.pop(var, None)

        yield from descend(0)

    if delta is None:
        yield from run(None)
    else:
        for i, lit in enumerate(ordered):
            if delta.get(lit.relation):
                yield from run(i)


def iter_universal_matches(
    rule: Rule,
    db: Database,
    adom: tuple[Hashable, ...],
) -> Iterator[dict[Var, Hashable]]:
    """Instantiations of an N-Datalog¬∀ rule (§5.2).

    The rule fires with a valuation ``v`` of its non-universal variables
    iff *every* extension of ``v`` to the universal variables (over the
    active domain) satisfies the whole body.  Candidates for ``v`` come
    from matching the universal-free part of the body; each candidate is
    then verified against all adom-extensions of the universal part.
    """
    probe, check, ordered_universal = _universal_split(rule)
    for valuation in iter_matches(probe, db, adom):
        holds = True
        for values in itertools.product(adom, repeat=len(ordered_universal)):
            extended = dict(valuation)
            extended.update(zip(ordered_universal, values))
            if not _holds_under(check, db, extended):
                holds = False
                break
        if holds:
            yield valuation


def _universal_split(rule: Rule) -> tuple[Rule, Rule, tuple[Var, ...]]:
    """(probe, check, universal variables by name) of a ∀ rule.

    ``probe`` holds the body literals free of universal variables,
    ``check`` the rest.  The split rides on the rule, as its plans do
    (:func:`~repro.semantics.plan.plan_for`), so every step of a run
    reuses one probe rule and with it the probe's plans and kernels.
    """
    split = getattr(rule, "_universal_split", None)
    if split is None:
        universal = set(rule.universal)
        free = tuple(
            lit for lit in rule.body if not (lit.variables() & universal)
        )
        bound = tuple(lit for lit in rule.body if lit.variables() & universal)
        split = (
            Rule(rule.head, free),
            Rule(rule.head, bound),
            tuple(sorted(universal, key=lambda v: v.name)),
        )
        object.__setattr__(rule, "_universal_split", split)  # Rule is frozen
    return split


def _holds_under(rule: Rule, db: Database, valuation: dict[Var, Hashable]) -> bool:
    """Does the (fully instantiated) body of ``rule`` hold in ``db``?"""
    for lit in rule.positive_body():
        if not db.has_fact(lit.relation, apply_valuation(lit.atom.terms, valuation)):
            return False
    return _check_residual(rule, db, valuation)


def instantiate_head(
    rule: Rule, valuation: dict[Var, Hashable]
) -> list[tuple[str, tuple, bool]]:
    """The instantiated head facts as (relation, tuple, positive) triples.

    ⊥ head literals are skipped here; engines that support them check
    :meth:`Rule.has_bottom_head` separately.
    """
    out: list[tuple[str, tuple, bool]] = []
    for lit in rule.head_literals():
        out.append(
            (lit.relation, apply_valuation(lit.atom.terms, valuation), lit.positive)
        )
    return out


def evaluation_adom(program: Program, db: Database) -> tuple[Hashable, ...]:
    """adom(P, I) in a deterministic order."""
    values = program.constants() | db.active_domain()
    return tuple(sorted(values, key=lambda v: (type(v).__name__, repr(v))))


def _reads_adom(programs: Iterable[Program]) -> bool:
    """Does some rule of ``programs`` range a variable over the active
    domain: one that no positive literal binds, or a universal one?"""
    for program in programs:
        for rule in program.rules:
            bound: set[Var] = set()
            for lit in rule.positive_body():
                bound |= lit.variables()
            if rule.universal or not rule.variables() <= bound:
                return True
    return False


def evaluation_domain(
    program: Program, db: Database, *variants: Program
) -> tuple[tuple[Hashable, ...], int]:
    """The active domain an evaluation's passes get, and |adom(P, I)|.

    The domain is enumerated and sorted (:func:`evaluation_adom`) only
    when some rule of ``program`` — or of ``variants``, the programs an
    engine runs in its place — ranges a variable over it; otherwise no
    kernel reads it, the passes get ``()``, and only its size is
    counted, for ``EngineStats.adom_size``.  The seeded engines, whose
    enumeration order is part of their replay contract, keep calling
    :func:`evaluation_adom`.
    """
    if _reads_adom(variants or (program,)):
        adom = evaluation_adom(program, db)
        return adom, len(adom)
    return (), len(program.constants() | db.active_domain())


def fact_set(heads: dict[str, set[tuple]]) -> set[tuple[str, tuple]]:
    """Inferences by relation as a set of ``(relation, tuple)`` facts,
    for callers that do set algebra over facts of several relations."""
    return {(relation, t) for relation, ts in heads.items() for t in ts}


def immediate_consequences(
    program: Program,
    db: Database,
    adom: tuple[Hashable, ...],
    delta: dict[str, frozenset[tuple]] | None = None,
    stats: EngineStats | None = None,
    tracer=None,
    add_only: bool = False,
) -> tuple[dict[str, set[tuple]], dict[str, set[tuple]], int]:
    """One parallel firing of all rules: Γ_P's new inferences.

    Returns ``(positive, negative, firings)`` where ``positive`` are the
    inferred facts and ``negative`` the inferred negations (nonempty
    only for Datalog¬¬ programs), each as ``{relation: set of tuples}``
    holding only relations with at least one tuple, and ``firings`` the
    number of rule instantiations found.  The caller decides how to
    combine them with the current instance (inflationary union,
    deletion policies, …); :func:`fact_set` gives the facts as
    ``(relation, tuple)`` pairs.
    ``stats``, when given, has its ``consequence_calls`` bumped.

    Evaluation is the planner's (:func:`repro.semantics.planner
    .consequences`), which also handles ``tracer`` (a
    :class:`repro.obs.Tracer`, duck-typed): one rule span per rule
    the pass visits, with per-literal join counts from the traced
    kernels.  ``add_only`` declares the caller an
    add-only fixpoint loop, letting the kernels drop heads already in
    ``db`` (see :meth:`repro.semantics.plan.RulePlan
    .run_emit`); ``positive`` then holds at least every new fact.
    """
    if stats is not None:
        stats.consequence_calls += 1
    return planner.consequences(
        program, db, adom, delta, stats, tracer=tracer, add_only=add_only
    )
