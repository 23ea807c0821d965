"""The cost-based query planner (join ordering, index cover, scheduling).

Compiled plans (:mod:`repro.semantics.plan`) make each (rule, join
order) fast; this module decides *which* order runs, *which* physical
indexes exist, and *which rules a stage visits at all*.  Three
coordinated pieces:

**Cardinality-driven join ordering.**  :func:`_cost_order` replaces the
static greedy heuristic of ``base._order_positive_indices`` with a
deterministic greedy minimum-fan-out search: literals are appended in
order of estimated probe output, where the estimate for a literal with
``b`` of its positions bound is |R| (scan, b = 0), ~0.5 (fully-bound
membership probe), |R| / distinct-keys when a live index reports the
distinct-key count (:meth:`Relation.distinct_estimate` — free, never
builds anything), and the textbook |R|^(1 - b/arity) otherwise.  Ties
break on (estimate, −shared-variables, |R|, body position), so runs are
reproducible and seeded-run-stable.  Every |R| is a live size: the
delta occurrence is sized by the delta, every other literal by its
relation in the database.  A variant in which some other positive
literal reads an absent or empty relation derives nothing whatever its
join order (a rule adds a head only through instantiations of its
whole positive body), so :func:`consequences` skips it before any
decision is looked up — no order is ever decided for a cold relation.
Decisions are cached per (rule, restricted occurrence) with a snapshot
of the literal cardinalities; a stage re-plans only when some
cardinality drifts past ``_REPLAN_RATIO`` (plan-cache hits are the
common case, and a replan that re-derives the *same* order costs no
plan rebuild).  Semi-naive variants force the delta-restricted
occurrence first — the delta is the small side by construction — then
order the rest by cost.

**Minimal shared index selection (MISP).**  Per relation, the context
counts the current decisions that probe each index-key template (the
set of bound positions) and keeps a minimum *chain cover* of those
templates: templates ordered by ⊆ form chains, a minimum chain
decomposition is a minimum path cover of the subset DAG (Dilworth),
found in polynomial time via bipartite matching
(:func:`minimum_chain_cover` — the VLDB'18 automatic-index-selection
construction), and recomputed only for a relation whose template *set*
a new decision changed.  Each chain becomes one physical trie index
(:meth:`Relation.chain_index`) whose column order lists each template's
new positions in turn, so every covered template is a *prefix* of the
chain.  A decision whose templates the cover serves through longer
chains runs the plan :func:`~repro.semantics.plan.plan_for` builds with
those chain specs, and :func:`apply_cover` garbage-collects live chains
whose key set the cover serves through a different chain (counted in
``EngineStats.index_drops``).

**SCC-scheduled semi-naive.**  :func:`scheduled_fixpoint` evaluates the
predicate dependency graph one strongly connected component at a time
in topological order (Tarjan from ``ast/analysis`` + a deterministic
Kahn pass over the component DAG): each component gets one full pass
and — only if it is recursive through a positive edge — its own delta
loop, with the relation→rules dispatch map in :func:`consequences`
ensuring rules whose positive bodies are disjoint from the delta are
never visited (no plan lookup, no delta grouping, nothing).  Components
negated from a later component are complete before the negation is
read.  A program with no sound schedule (a negative edge inside a
component, or a rule whose heads span components) runs as one
recursive component holding every rule.

Every evaluation that computes Γ_P goes through :func:`consequences`,
traced runs included: a tracer changes no decision, only the kernels a
pass calls (their counting twins, :mod:`repro.semantics.codegen_traced`).
``iter_matches`` never consults the planner, so seeded
nondeterministic engines keep their byte-identical enumeration order.
Each run's planner work is surfaced additively as a report of its own,
``EngineStats.planner`` (see :func:`explain` for the shape); cached
join-order decisions outlive the run, the report does not.
"""

from __future__ import annotations

from itertools import repeat
from typing import Hashable, Iterator
from weakref import WeakSet, ref

from repro.ast.analysis import _sccs, precedence_graph
from repro.ast.program import Program
from repro.ast.rules import Lit
from repro.relational.instance import Database
from repro.semantics.plan import ChainSpec, RulePlan, make_delta, plan_for
from repro.terms import Var

#: A cached join-order decision is kept while every literal cardinality
#: ``n`` stays within ``_REPLAN_RATIO * old + _REPLAN_SLACK`` of its
#: decision-time snapshot (and vice versa); outside that band the stage
#: re-plans.
_REPLAN_RATIO = 2.0
_REPLAN_SLACK = 4

#: An index-key template: (relation, set of bound positions).
Template = tuple[str, frozenset[int]]


class _Decision:
    """One cached join-order decision for a (rule, variant) pair."""

    __slots__ = (
        "order",
        "snapshot",
        "est_rows",
        "restricted_pos",
        "templates",
        "plan",
        "plan_epoch",
        "emitter",
        "report",
        "entry",
        "variant",
    )

    def __init__(
        self,
        order: tuple[int, ...],
        snapshot: tuple[int, ...],
        est_rows: float,
        restricted_pos: int,
        base: RulePlan,
    ):
        self.order = order
        self.snapshot = snapshot
        self.est_rows = est_rows
        #: Index of the delta-restricted literal within ``order``
        #: (always 0 — the delta runs first); -1 for the full pass.
        self.restricted_pos = restricted_pos
        #: The index-key templates this decision's plan probes (the
        #: delta-restricted step reads the delta, not an index).
        self.templates: frozenset[Template] = frozenset(
            (step.relation, frozenset(step.key_positions))
            for idx, step in enumerate(base.steps)
            if step.chain_order is not None and idx != restricted_pos
        )
        self.plan: RulePlan | None = None
        self.plan_epoch = -1
        #: ``plan``'s single positive head as ``RulePlan.run_emit``
        #: takes it, or ``None`` (the pass then drains ``run_rows``).
        self.emitter: tuple[str, list, tuple] | None = None
        #: The run report this decision last counted into, and its rule
        #: and variant entries there (see :func:`consequences`).
        self.report: dict | None = None
        self.entry: dict = {}
        self.variant: dict = {}


class _RuleState:
    """Per-rule planner bookkeeping inside a :class:`PlanContext`."""

    __slots__ = ("decisions", "lookups")

    def __init__(self):
        #: variant (None = full pass, int = restricted occurrence) →
        #: cached :class:`_Decision`.
        self.decisions: dict[int | None, _Decision] = {}
        #: Decision lookups over the context's lifetime.
        self.lookups = 0


class _Component:
    """One schedulable SCC of the predicate dependency graph."""

    __slots__ = ("relations", "rule_ids", "recursive")

    def __init__(
        self,
        relations: frozenset[str],
        rule_ids: tuple[int, ...],
        recursive: bool,
    ):
        self.relations = relations
        self.rule_ids = rule_ids
        self.recursive = recursive


class PlanContext:
    """Everything the planner derives from one program.

    Cached on the program object itself (see :func:`plan_context`) and
    garbage-collected with it.  Holds no back-reference to the program,
    only to its rules.
    """

    __slots__ = (
        "rules",
        "positive",
        "var_sets",
        "dispatch",
        "states",
        "schedule",
        "scheduled_components",
        "template_counts",
        "assign",
        "chains",
        "cover_summary",
        "cover_epoch",
        "report",
        "report_owner",
        "passes",
    )

    def __init__(self, program: Program):
        self.rules = program.rules
        self.positive: list[list[Lit]] = [
            list(rule.positive_body()) for rule in self.rules
        ]
        self.var_sets: list[list[set[Var]]] = [
            [lit.variables() for lit in lits] for lits in self.positive
        ]
        dispatch: dict[str, list[int]] = {}
        for i, lits in enumerate(self.positive):
            for relation in {lit.relation for lit in lits}:
                dispatch.setdefault(relation, []).append(i)
        self.dispatch: dict[str, tuple[int, ...]] = {
            relation: tuple(ids) for relation, ids in dispatch.items()
        }
        self.states = [_RuleState() for _ in self.rules]
        schedule = _build_schedule(self, program)
        #: Number of sound SCC components, or ``None`` when the program
        #: has no sound schedule and runs as one recursive component.
        self.scheduled_components = (
            len(schedule) if schedule is not None else None
        )
        if schedule is None:
            schedule = [
                _Component(
                    frozenset(program.idb),
                    tuple(range(len(self.rules))),
                    recursive=True,
                )
            ]
        self.schedule: list[_Component] = schedule
        #: relation → {template: number of current decisions probing it}.
        self.template_counts: dict[str, dict[frozenset[int], int]] = {}
        #: MISP output: (relation, template) → (chain order, probe depth).
        self.assign: dict[Template, ChainSpec] = {}
        #: relation → chain column orders the current cover keeps.
        self.chains: dict[str, list[tuple[int, ...]]] = {}
        #: relation → {"templates": n, "chains": m} for the current
        #: cover, sorted by relation; replaced, never mutated, so reports
        #: may share it.
        self.cover_summary: dict[str, dict[str, int]] = {}
        #: Bumped whenever some relation's cover changes; each decision
        #: re-derives its plan against it.
        self.cover_epoch = 0
        #: The current run's report and a weak reference to the
        #: ``EngineStats`` it belongs to (see :func:`_run_report`).
        self.report: dict = {}
        self.report_owner = None
        #: (rule_ids, live delta relations or ``None``) → the rule
        #: occurrences that pass visits (see :func:`_pass_visits`).
        self.passes: dict[tuple, tuple] = {}


def _new_report(ctx: PlanContext) -> dict:
    """An empty planner report for one run (shape: :func:`explain`)."""
    return {
        "plan_lookups": 0,
        "plan_hits": 0,
        "replans": 0,
        "rules": {},
        "index_cover": ctx.cover_summary,
        "scheduled_components": ctx.scheduled_components,
    }


def _run_report(ctx: PlanContext, stats) -> dict:
    """The report this call's planner work counts into.

    One report per run: the first call carrying a given ``EngineStats``
    starts a fresh report and later calls with the same stats continue
    it, so a finished run's ``stats.planner`` never changes when the
    program is evaluated again.  A call without stats counts into a
    throwaway report.
    """
    if stats is None:
        return _new_report(ctx)
    owner = ctx.report_owner
    if owner is None or owner() is not stats:
        ctx.report = _new_report(ctx)
        ctx.report_owner = ref(stats)
    stats.planner = ctx.report
    return ctx.report


#: Programs currently carrying a cached context (see ``plan_context``).
_context_owners: "WeakSet[Program]" = WeakSet()

_CTX_ATTR = "_planner_context"


def plan_context(program: Program) -> PlanContext:
    """The cached planner context for a program.

    The context rides on the program object itself (identity-keyed, so
    the per-stage lookup is one attribute read — a weak *mapping* keyed
    by the structurally-hashed program would re-compare every rule on
    each lookup) and dies with it.  The weak registry only exists so
    :func:`clear_contexts` can evict live caches for test isolation.
    """
    ctx = getattr(program, _CTX_ATTR, None)
    if ctx is None:
        ctx = PlanContext(program)
        setattr(program, _CTX_ATTR, ctx)
        _context_owners.add(program)
    return ctx


def clear_contexts() -> None:
    """Drop all cached contexts (test isolation)."""
    for program in list(_context_owners):
        if getattr(program, _CTX_ATTR, None) is not None:
            delattr(program, _CTX_ATTR)
    _context_owners.clear()


# -- scheduling -------------------------------------------------------------


def _build_schedule(ctx: PlanContext, program: Program) -> list[_Component] | None:
    """SCCs of the predicate dependency graph in topological order.

    Returns ``None`` when no sound schedule exists: a negative edge
    inside a component (recursion through negation — the well-founded
    engine handles it via its transformed program instead), or a rule
    whose heads span components (multi-head nondeterministic dialects).
    """
    graph = precedence_graph(program)
    edges = {src: {dst for dst, _ in targets} for src, targets in graph.items()}
    comps = _sccs(sorted(graph), edges)
    comp_of: dict[str, int] = {}
    for i, comp in enumerate(comps):
        for relation in comp:
            comp_of[relation] = i
    for src, targets in graph.items():
        for dst, positive in targets:
            if not positive and comp_of[src] == comp_of[dst]:
                return None

    # Deterministic Kahn order over the component DAG (all edges,
    # positive and negative: producers strictly before consumers).
    n = len(comps)
    succ: list[set[int]] = [set() for _ in range(n)]
    indegree = [0] * n
    for src, targets in graph.items():
        for dst, _ in targets:
            a, b = comp_of[src], comp_of[dst]
            if a != b and b not in succ[a]:
                succ[a].add(b)
                indegree[b] += 1
    ready = sorted(i for i in range(n) if indegree[i] == 0)
    topo: list[int] = []
    while ready:
        i = ready.pop(0)
        topo.append(i)
        opened = []
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                opened.append(j)
        if opened:
            ready = sorted(ready + opened)
    if len(topo) != n:  # pragma: no cover - the SCC DAG is acyclic
        return None

    comp_rules: list[list[int]] = [[] for _ in range(n)]
    for idx, rule in enumerate(ctx.rules):
        heads = {comp_of[h] for h in rule.head_relations()}
        if len(heads) != 1:
            return None
        comp_rules[next(iter(heads))].append(idx)

    components: list[_Component] = []
    for i in topo:
        rule_ids = comp_rules[i]
        if not rule_ids:
            continue  # pure-edb component: nothing to evaluate
        comp = comps[i]
        recursive = any(
            lit.relation in comp
            for rid in rule_ids
            for lit in ctx.positive[rid]
        )
        components.append(_Component(frozenset(comp), tuple(rule_ids), recursive))
    return components


# -- cost model -------------------------------------------------------------


def _estimate(
    lit: Lit,
    variables: set[Var],
    size: int,
    bound: set[Var],
    db: Database,
) -> tuple[float, int]:
    """(estimated probe output, shared-variable count) for one literal."""
    from repro.terms import Const

    bound_positions = [
        p
        for p, term in enumerate(lit.terms)
        if isinstance(term, Const) or term in bound
    ]
    shared = len(variables & bound)
    arity = len(lit.terms)
    if not bound_positions:
        return float(size), shared
    if len(bound_positions) == arity:
        return 0.5, shared
    rel = db.relation(lit.relation)
    distinct = (
        rel.distinct_estimate(frozenset(bound_positions))
        if rel is not None
        else None
    )
    if distinct:
        return size / distinct, shared
    return float(size) ** (1.0 - len(bound_positions) / arity), shared


def _cost_order(
    lits: list[Lit],
    var_sets: list[set[Var]],
    sizes: list[int],
    db: Database,
    restricted_occ: int | None = None,
) -> tuple[tuple[int, ...], float]:
    """Greedy minimum-fan-out join order; (order, estimated rows).

    A restricted occurrence (the semi-naive delta literal) is forced
    first — the delta is the small side by construction and running it
    first is what lets the grouped delta probe pay off.  Ties break on
    (estimate, −shared variables, relation size, body position), all
    deterministic.
    """
    n = len(lits)
    if n == 0:
        return (), 1.0
    remaining = list(range(n))
    ordered: list[int] = []
    bound: set[Var] = set()
    est_rows = 1.0
    if restricted_occ is not None:
        ordered.append(restricted_occ)
        remaining.remove(restricted_occ)
        bound |= var_sets[restricted_occ]
        est_rows = float(max(sizes[restricted_occ], 1))
    while remaining:
        best_key = None
        best_i = remaining[0]
        best_est = 0.0
        for i in remaining:
            est, shared = _estimate(lits[i], var_sets[i], sizes[i], bound, db)
            key = (est, -shared, sizes[i], i)
            if best_key is None or key < best_key:
                best_key = key
                best_i = i
                best_est = est
        ordered.append(best_i)
        remaining.remove(best_i)
        bound |= var_sets[best_i]
        est_rows *= max(best_est, 0.5)
    return tuple(ordered), est_rows


def _outside_band(a: float, b: float) -> bool:
    """Are two counts outside the replan tolerance band of each other?"""
    low, high = (a, b) if a <= b else (b, a)
    return high > _REPLAN_RATIO * low + _REPLAN_SLACK


def _drifted(old: tuple[int, ...], new: tuple[int, ...]) -> bool:
    """Has any cardinality left the replan tolerance band?"""
    for a, b in zip(old, new):
        if _outside_band(a, b):
            return True
    return False


def _variant_report(decision: _Decision) -> dict:
    """A decision's entry under ``report["rules"][rule][variant]``."""
    return {
        "order": list(decision.order),
        "estimated_rows": round(decision.est_rows, 2),
    }


def _single_head(plan: RulePlan) -> tuple[str, list, tuple] | None:
    """A plan's one positive head emitter, as ``RulePlan.run_emit``
    takes it; ``None`` for other heads and for a plan that never
    matches."""
    emitters = plan.emitters
    if plan.never or emitters is None or len(emitters) != 1:
        return None
    relation, template, fills, positive = emitters[0]
    return (relation, template, fills) if positive else None


def _decision(
    ctx: PlanContext,
    report: dict,
    rule_id: int,
    occ: int | None,
    snapshot: tuple[int, ...],
    delta_size: int,
    db: Database,
) -> _Decision:
    """The (cached, drift-checked) decision for one rule variant.

    ``snapshot`` are the live sizes of the variant's positive literals
    other than the delta occurrence ``occ`` (all of them for a full
    pass); ``delta_size`` sizes that occurrence.  Leaves the decision
    counting into ``report``, with its plan's head emitter at hand.
    """
    state = ctx.states[rule_id]
    state.lookups += 1
    report["plan_lookups"] += 1
    base = None
    decision = state.decisions.get(occ)
    entry = report["rules"].setdefault(str(rule_id), {})
    variant_key = "full" if occ is None else f"delta@{occ}"
    if decision is not None and not _drifted(decision.snapshot, snapshot):
        report["plan_hits"] += 1
        if variant_key not in entry:  # first use in this run
            entry[variant_key] = _variant_report(decision)
    else:
        if decision is not None:
            report["replans"] += 1
        sizes = list(snapshot)
        if occ is not None:
            sizes.insert(occ, delta_size)
        order, est_rows = _cost_order(
            ctx.positive[rule_id], ctx.var_sets[rule_id], sizes, db,
            restricted_occ=occ,
        )
        if decision is None or order != decision.order:
            released = frozenset() if decision is None else decision.templates
            base = plan_for(ctx.rules[rule_id], order)
            decision = state.decisions[occ] = _Decision(
                order, snapshot, est_rows, -1 if occ is None else 0, base
            )
            _update_cover(ctx, released, decision.templates)
        else:
            decision.snapshot = snapshot
            decision.est_rows = est_rows
        fresh = _variant_report(decision)
        previous = entry.get(variant_key)
        if previous is not None and "actual_rows" in previous:
            fresh["actual_rows"] = previous["actual_rows"]
        entry[variant_key] = fresh
    if decision.plan is None or decision.plan_epoch != ctx.cover_epoch:
        decision.plan = _covered_plan(
            ctx, base or plan_for(ctx.rules[rule_id], decision.order)
        )
        decision.plan_epoch = ctx.cover_epoch
        decision.emitter = _single_head(decision.plan)
    decision.report = report
    decision.entry = entry
    decision.variant = entry[variant_key]
    return decision


# -- minimal shared index selection (MISP) ----------------------------------


def minimum_chain_cover(
    templates: "set[frozenset[int]] | list[frozenset[int]]",
) -> list[tuple[tuple[int, ...], list[frozenset[int]]]]:
    """A minimum chain decomposition of index-key templates under ⊆.

    Returns ``[(column order, templates served), ...]``: each chain is
    one physical trie index whose column order lists every member
    template's new positions in turn, so each member is a prefix of the
    chain.  Minimality is Dilworth via minimum path cover of the strict
    subset DAG, solved with deterministic augmenting-path bipartite
    matching — polynomial in the number of templates (which is tiny:
    one per distinct probe shape per relation).
    """
    ts = sorted(templates, key=lambda s: (len(s), tuple(sorted(s))))
    n = len(ts)
    adjacency = [
        [j for j in range(n) if len(ts[i]) < len(ts[j]) and ts[i] < ts[j]]
        for i in range(n)
    ]
    match_right = [-1] * n  # j → the i whose chain continues into j
    match_left = [-1] * n  # i → its chain successor j

    def augment(i: int, seen: set[int]) -> bool:
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_right[j] == -1 or augment(match_right[j], seen):
                match_right[j] = i
                match_left[i] = j
                return True
        return False

    for i in range(n):
        augment(i, set())

    chains: list[tuple[tuple[int, ...], list[frozenset[int]]]] = []
    for start in range(n):
        if match_right[start] != -1:
            continue  # not a chain head: some smaller template precedes it
        members: list[frozenset[int]] = []
        columns: list[int] = []
        covered: frozenset[int] = frozenset()
        node = start
        while True:
            template = ts[node]
            columns.extend(sorted(template - covered))
            covered = template
            members.append(template)
            node = match_left[node]
            if node == -1:
                break
        chains.append((tuple(columns), members))
    return chains


def _update_cover(
    ctx: PlanContext,
    released: frozenset[Template],
    claimed: frozenset[Template],
) -> None:
    """Move one decision's templates from ``released`` to ``claimed``.

    Only a relation whose template *set* changes — a template no other
    decision probes leaves it, or one none probed yet joins — gets its
    chain cover recomputed, and only then does ``cover_epoch`` move.
    """
    counts = ctx.template_counts
    dirty: set[str] = set()
    for relation, template in released - claimed:
        held = counts[relation]
        held[template] -= 1
        if not held[template]:
            del held[template]
            dirty.add(relation)
    for relation, template in claimed - released:
        held = counts.setdefault(relation, {})
        if template not in held:
            dirty.add(relation)
        held[template] = held.get(template, 0) + 1
    if not dirty:
        return
    assign = {
        key: spec for key, spec in ctx.assign.items() if key[0] not in dirty
    }
    for relation in sorted(dirty):
        if not counts[relation]:
            del counts[relation]
            del ctx.chains[relation]
            continue
        chains = ctx.chains[relation] = []
        for order, members in minimum_chain_cover(counts[relation]):
            chains.append(order)
            for template in members:
                assign[(relation, template)] = (order, len(template))
    ctx.assign = assign
    ctx.cover_summary = {
        relation: {"templates": len(held), "chains": len(ctx.chains[relation])}
        for relation, held in sorted(counts.items())
    }
    ctx.cover_epoch += 1


def _covered_plan(ctx: PlanContext, base: RulePlan) -> RulePlan:
    """``base``, or its sibling whose steps probe the cover's chains.

    Each keyed step probes the chain the cover serves its template
    through; when that is the step's identity chain for every step,
    the plan is ``base`` itself.
    """
    specs = []
    for step in base.steps:
        spec = None
        if step.chain_order is not None:
            spec = ctx.assign.get(
                (step.relation, frozenset(step.key_positions))
            )
            if spec == (step.chain_order, step.chain_depth):
                spec = None  # the identity chain
        specs.append(spec)
    if not any(specs):
        return base
    return plan_for(base.rule, base.order, chains=tuple(specs))


def apply_cover(ctx: PlanContext, db: Database) -> None:
    """Garbage-collect chains the cover makes redundant.

    On each relation the cover touches, a live chain the cover does not
    list is dropped when the cover serves that chain's whole key set
    (a listed chain answers the same probes by prefix), counted in
    ``Relation.index_drops`` → ``EngineStats.index_drops``.  Any other
    chain — one whose key set the cover knows nothing about — is not
    the planner's to free and is left alone.
    """
    assign = ctx.assign
    for relation, keep in sorted(ctx.chains.items()):
        rel = db.relation(relation)
        if rel is None:
            continue
        for order in rel.live_indexes():
            if order not in keep and (relation, frozenset(order)) in assign:
                rel.drop_chain_index(order)


# -- consequence evaluation -------------------------------------------------


#: Γ_P's inferences: relation → the head tuples a pass derived for it.
Heads = dict[str, set[tuple]]


def _emit(
    plan: RulePlan,
    slot_iter: "Iterator[list]",
    rule,
    positive: Heads,
    negative: Heads,
) -> int:
    """Drain one plan run into the inference sets; returns firings."""
    from repro.semantics.base import instantiate_head

    firings = 0
    emitters = plan.emitters
    if emitters is None:
        out_vars = plan.out_vars
        for slots in slot_iter:
            firings += 1
            valuation = {var: slots[s] for var, s in out_vars}
            for relation, t, is_positive in instantiate_head(rule, valuation):
                heads = positive if is_positive else negative
                heads.setdefault(relation, set()).add(t)
    else:
        for slots in slot_iter:
            firings += 1
            for relation, template, fills, is_positive in emitters:
                for position, s in fills:
                    template[position] = slots[s]
                heads = positive if is_positive else negative
                heads.setdefault(relation, set()).add(tuple(template))
    return firings


def _head_set(positive: Heads, relation: str) -> set[tuple]:
    """The pass's set for ``relation``: a kernel adds its heads to it,
    and :func:`consequences` keeps it only if it is not empty."""
    heads = positive.get(relation)
    return set() if heads is None else heads


def _size(heads: Heads) -> int:
    """How many head tuples ``heads`` holds."""
    return sum(map(len, heads.values()))


def _pass_visits(
    ctx: PlanContext,
    rule_ids: tuple[int, ...] | None,
    live: tuple[str, ...] | None,
) -> tuple:
    """The rule occurrences one pass visits, in visiting order.

    One ``(rule id, rule, state, occurrences)`` per rule, each
    occurrence ``(occ, delta relation, other relations)``: a full pass
    (``live`` is ``None``) visits every rule of ``rule_ids`` once, with
    ``occ`` and the delta relation ``None``; a delta pass visits the
    rules the dispatch map selects for the ``live`` relations, once per
    positive literal over one of them.
    """
    ids = range(len(ctx.rules)) if rule_ids is None else rule_ids
    if live is None:
        return tuple(
            (i, ctx.rules[i], ctx.states[i],
             ((None, None, tuple(lit.relation for lit in ctx.positive[i])),))
            for i in ids
        )
    selected: set[int] = set()
    for relation in live:
        selected.update(ctx.dispatch.get(relation, ()))
    selected.intersection_update(ids)
    visits = []
    for i in sorted(selected):
        lits = ctx.positive[i]
        occs = tuple(
            (occ, lit.relation,
             tuple(other.relation for j, other in enumerate(lits) if j != occ))
            for occ, lit in enumerate(lits)
            if lit.relation in live
        )
        visits.append((i, ctx.rules[i], ctx.states[i], occs))
    return tuple(visits)


def _traced_run(span, decision: _Decision, db: Database, adom, restricted,
                positive: Heads, negative: Heads, add_only: bool) -> int:
    """One variant through its plan's counting kernels, booked into
    ``span`` (see :mod:`repro.obs.events` for the accounting).

    Same heads, same firings, same ``add_only`` as the untraced
    dispatch in :func:`consequences`.
    """
    from repro.semantics import codegen_traced

    plan = decision.plan
    args = (plan, db, adom, decision.restricted_pos, restricted)
    if plan.never:
        fired = emitted = grew = 0
    elif decision.emitter is not None:
        relation = decision.emitter[0]
        heads = _head_set(positive, relation)
        before = len(heads)
        fired = emitted = codegen_traced.emit(
            *args, heads, add_only, span.tally()
        )
        grew = len(heads) - before
        if heads:
            positive[relation] = heads
    else:
        before = _size(positive) + _size(negative)
        fired = _emit(plan, codegen_traced.walk(*args, span.tally()),
                      plan.rule, positive, negative)
        emitted = fired * len(plan.rule.head_literals())
        grew = _size(positive) + _size(negative) - before
    span.firings += fired
    span.emitted += emitted
    span.deduplicated += emitted - grew
    span.ran(decision.order)
    return fired


def consequences(
    program: Program,
    db: Database,
    adom: tuple[Hashable, ...],
    delta: dict[str, frozenset[tuple]] | None = None,
    stats=None,
    rule_ids: tuple[int, ...] | None = None,
    count_call: bool = False,
    tracer=None,
    add_only: bool = False,
) -> tuple[Heads, Heads, int]:
    """Planner-routed immediate consequences.

    Same contract as :func:`repro.semantics.base.immediate_consequences`
    — ``(positive, negative, firings)``, the inferences by relation:
    each kernel adds its head tuples to its head relation's set, and a
    relation that got none is absent — with the planner's three
    optimizations applied: semi-naive calls visit only the rules the
    relation→rules dispatch map selects for the delta (each with its
    own delta-first cost-based order), full passes run each rule under
    its cost-based order, and index probes go through the minimal
    shared chain cover.  A variant in which a positive literal other
    than the delta occurrence reads an absent or empty relation of
    ``db`` is skipped before its decision lookup: its kernel reads the
    same ``db`` and would derive nothing, so the skip is exact.  A
    rule gets a report entry only once one of its variants runs.

    The pass itself is mostly lookups.  The occurrences it visits are
    kept per (``rule_ids``, live delta relations) on the context
    (:func:`_pass_visits`).  A decision that has not drifted, was
    planned under the current cover and already counted into this
    run's report keeps its head emitter and its report entries, so it
    costs the input sizes, a drift check and a few counter bumps before
    its kernel; any other goes through :func:`_decision`, which plans,
    reports and re-arms it.

    ``rule_ids`` restricts evaluation to one scheduled component;
    ``count_call`` makes this call bump ``stats.consequence_calls``
    (the scheduled drivers call here directly, bypassing
    ``immediate_consequences``'s own bump).  ``add_only`` lets the
    kernels drop heads already in ``db`` (see
    :meth:`repro.semantics.plan.RulePlan.run_emit`).

    ``tracer`` (a :class:`repro.obs.Tracer`, duck-typed), when given,
    receives one rule span per rule whose variant the pass runs: the
    pass takes the same decisions and reports the same, and each run
    goes through :func:`_traced_run`.
    """
    ctx = plan_context(program)
    if stats is not None and count_call:
        stats.consequence_calls += 1
    if tracer is not None and not tracer.enabled:
        tracer = None
    positive: Heads = {}
    negative: Heads = {}
    report = _run_report(ctx, stats)
    live = None if delta is None else tuple([
        relation for relation, facts in delta.items() if facts
    ])
    visits = ctx.passes.get((rule_ids, live))
    if visits is None:
        visits = ctx.passes[(rule_ids, live)] = _pass_visits(
            ctx, rule_ids, live
        )
    relation_of = db.relation
    firings = hits = 0
    for i, rule, state, occs in visits:
        span = None
        fired = 0
        for occ, name, others in occs:
            sizes = tuple([
                len(rel) if (rel := relation_of(other)) is not None else 0
                for other in others
            ])
            if 0 in sizes:
                continue
            if tracer is not None and span is None:
                span = tracer.rule_span(i, rule)
            restricted = None if name is None else delta[name]
            decision = state.decisions.get(occ)
            if (decision is not None and decision.report is report
                    and decision.plan_epoch == ctx.cover_epoch
                    and (decision.snapshot == sizes
                         or not _drifted(decision.snapshot, sizes))):
                state.lookups += 1
                hits += 1
            else:
                decision = _decision(
                    ctx, report, i, occ, sizes,
                    0 if restricted is None else len(restricted), db,
                )
            plan = decision.plan
            emitter = decision.emitter
            if span is not None:
                fired_occ = _traced_run(span, decision, db, adom, restricted,
                                        positive, negative, add_only)
            elif emitter is not None:
                relation, template, fills = emitter
                heads = _head_set(positive, relation)
                fired_occ = plan.run_emit(
                    db, adom, decision.restricted_pos, restricted,
                    relation, template, fills, heads, add_only,
                )
                if heads:
                    positive[relation] = heads
            elif plan.never:
                fired_occ = 0
            else:
                fired_occ = _emit(
                    plan,
                    plan.run_rows(
                        db, adom, decision.restricted_pos, restricted
                    ),
                    rule, positive, negative,
                )
            variant = decision.variant
            variant["actual_rows"] = variant.get("actual_rows", 0) + fired_occ
            entry = decision.entry
            entry["actual_rows"] = entry.get("actual_rows", 0) + fired_occ
            fired += fired_occ
        firings += fired
        if span is not None:
            span.close()
    if hits:
        report["plan_lookups"] += hits
        report["plan_hits"] += hits
    report["index_cover"] = ctx.cover_summary
    return positive, negative, firings


# -- SCC-scheduled fixpoint -------------------------------------------------


def absorb(db: Database, positive: Heads) -> dict[str, list[tuple]]:
    """Add a pass's heads to ``db``; returns the new facts by relation.

    Each relation's heads go to its relation object in one bulk insert
    (:meth:`~repro.relational.instance.Relation.add_batch`) instead of
    a per-fact ``add_fact`` call chain: this is the hot path between
    kernel passes of the add-only fixpoints, and at chain sizes the
    per-fact overhead otherwise rivals the matching.  Relations that
    gained nothing are left out.
    """
    fresh_by_relation: dict[str, list[tuple]] = {}
    for relation, ts in positive.items():
        if not ts:
            continue
        fresh = db.ensure_relation(relation, len(next(iter(ts)))).add_batch(ts)
        if fresh:
            fresh_by_relation[relation] = fresh
    return fresh_by_relation


def scheduled_fixpoint(
    program: Program,
    db: Database,
    adom: tuple[Hashable, ...],
    stats=None,
    recorder=None,
    result=None,
    tracer=None,
):
    """Evaluate to fixpoint one SCC at a time, mutating ``db`` in place.

    Per component one full pass, then (for components recursive through
    a positive edge) a delta loop over that component's rules only; a
    program with no sound schedule is one recursive component.
    ``recorder``/``result``, when given, receive one stage record and
    one :class:`~repro.semantics.base.StageTrace` per pass; without
    either, no stage's facts are listed.  ``tracer``
    is handed to every pass (see :func:`consequences`), so traced runs
    keep this stage structure.
    Ends with the index cover's garbage collection on ``db``.

    Returns ``(total firings, last stage number)``.
    """
    from repro.semantics.base import StageTrace

    ctx = plan_context(program)
    if stats is None and recorder is not None:
        stats = recorder.stats
    firings_total = 0
    stage = 0

    def absorb_stage(positive, firings):
        nonlocal stage
        stage += 1
        fresh_by_relation = absorb(db, positive)
        if recorder is not None or result is not None:
            # Only a stage record or a result reads the stage's facts.
            trace = StageTrace(stage)
            for relation, fresh in fresh_by_relation.items():
                trace.new_facts.extend(zip(repeat(relation), fresh))
            if recorder is not None:
                recorder.stage(
                    stage, firings, added=len(trace.new_facts), trace=trace
                )
            if result is not None and trace.new_facts:
                result.stages.append(trace)
        return fresh_by_relation

    # The whole schedule is an add-only fixpoint (``absorb_stage`` only
    # ever inserts), so every pass lets the kernels drop already-known
    # heads at the source.
    for component in ctx.schedule:
        positive, _negative, firings = consequences(
            program,
            db,
            adom,
            stats=stats,
            rule_ids=component.rule_ids,
            count_call=True,
            tracer=tracer,
            add_only=True,
        )
        firings_total += firings
        delta = absorb_stage(positive, firings)
        if not component.recursive:
            continue
        while delta:
            frozen = {
                relation: make_delta(facts)
                for relation, facts in delta.items()
            }
            positive, _negative, firings = consequences(
                program,
                db,
                adom,
                delta=frozen,
                stats=stats,
                rule_ids=component.rule_ids,
                count_call=True,
                tracer=tracer,
                add_only=True,
            )
            firings_total += firings
            delta = absorb_stage(positive, firings)
    apply_cover(ctx, db)
    if recorder is not None:
        recorder.settle()
    return firings_total, stage


# -- observability ----------------------------------------------------------


def explain(program: Program, db: Database) -> dict:
    """A static planner report against the current database state.

    Decides every rule's full-pass join order on a throwaway context,
    sizing each literal by its live size (0 for an empty relation:
    unlike :func:`consequences`, explain skips no rule, so every rule
    gets an entry), computes those decisions' index cover, and returns
    a planner report of its own — the shape ``EngineStats.planner``
    carries::

        {"plan_lookups": int, "plan_hits": int, "replans": int,
         "rules": {"<rule index>": {
             "full" | "delta@<occ>":
                 {"order": [...], "estimated_rows": float,
                  "actual_rows": int},  # rows this variant fired (live runs)
             "actual_rows": int,   # firings observed (live runs only)
         }},
         "index_cover": {"<relation>": {"templates": n, "chains": m}},
         "scheduled_components": int | None}

    A live run's report lists only the variants that ran; explain's
    decisions are all first lookups, so its ``plan_hits`` and
    ``replans`` read 0.  Pure with respect to ``db`` (estimates never
    build indexes) and to the program's cached context: a later run
    plans, covers and reports exactly as it would have without this
    call.  ``repro profile`` attaches this to its JSON report.
    """
    ctx = PlanContext(program)
    report = _new_report(ctx)
    for i, lits in enumerate(ctx.positive):
        sizes = tuple([
            len(rel) if (rel := db.relation(lit.relation)) is not None else 0
            for lit in lits
        ])
        _decision(ctx, report, i, None, sizes, 0, db)
    report["index_cover"] = ctx.cover_summary
    return report
