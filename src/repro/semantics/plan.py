"""Compiled rule plans: the production matcher.

Every engine's primitive is the set of instantiations of a rule body
(PAPER §4.1).  :func:`repro.semantics.base.reference_matches` computes
it directly — a recursive backtracking join over valuation dicts — and
stays as the reference oracle.  Production compiles the same join once
per (rule, join order):

* each positive literal becomes a :class:`Step` — a static record of
  its index-key template (constants prefilled, bound-variable slots
  patched in), the chain index it probes (its identity chain unless
  the plan was built with a chain spec for it), the (position → slot)
  pairs it binds, and the within-literal repeated-variable checks;
* equality propagation becomes a fixed sequence of slot assignments
  plus precomputed consistency checks (contradictory constants fold
  into ``RulePlan.never`` at compile time);
* residual negative literals become (relation, tuple-template) probes
  and (in)equalities become slot/constant comparisons;
* head literals become emitter templates, so the planner can produce
  head facts without ever materializing a valuation dict.

Plans ride on their rule (:func:`plan_for`), keyed on the join order
(and the steps' shared chains, if any), so the cheap size-driven
join-order choice still runs per rule per stage and merely *selects*
among cached plans.  A plan lives exactly as long as its rule: no
registry outside the rule holds it.

:mod:`repro.semantics.codegen` turns each plan into specialized Python —
the join as literal nested loops — and every execution method here
dispatches into the plan's kernel table (``codegen_fns``, made on first
use).  Each variant in the table is built on its first call, and
variants that emit the same text share one compiled code object, which
is all that outlives a program: :meth:`PlanCache.clear` empties that
shared table.  Tables are invalidated exactly when their plans are: a
planner replan or a cover change selects or builds a different plan
object, and a plan's steps never change after it is built.
Semi-naive drivers freeze each stage's delta through :func:`make_delta`,
which wraps it in a :class:`DeltaBlock`; ``run_emit`` hands whole
blocks to the ``emit_batch_*`` kernels and falls back to the scalar
variants for small blocks (``CodegenPlan.BATCH_MIN_ROWS``) and shapes
without a batch kernel, and ``run_rows`` batches the full pass only.
A plan whose body has head-free parts (:attr:`RulePlan.counted`)
instead runs its ``emit_factored_*`` kernels at every delta size: they
count each such part once and join only the rest.
The generator flavor (``iter_matches`` and the seeded engines) keeps
the scalar walk: a batch kernel materializes its whole result, which is
exactly what consumers that mutate between yields must not see.

Semi-naive delta restriction reuses the same compiled steps: the plan
is executed once per touched literal index with that step's candidates
drawn from the delta set instead of an index, exactly mirroring the
reference matcher — so one compiled plan covers every restricted
variant of a join order.

Match enumeration order is byte-for-byte the reference matcher's
order under the same join order: index buckets preserve insertion
order, full scans iterate the relation's tuple set, restricted runs
iterate the delta, and adom-enumerated variables are ordered by name.
Engines seeded on match order (choice, nondeterministic) therefore
produce identical runs on either matcher, and traced or not: a traced
walk (:mod:`repro.semantics.codegen_traced`) enumerates as its
untraced twin.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterator

from repro.ast.rules import EqLit, Rule
from repro.relational.instance import Database
from repro.semantics.codegen import CodegenPlan, clear_shapes
from repro.terms import Const, Var

#: The attribute a rule's plans ride on: {join order key → RulePlan}.
_PLANS_ATTR = "_compiled_plans"

#: A step's chain spec: (chain column order, probe depth).
ChainSpec = tuple[tuple[int, ...], int]


class PlanCache:
    """The reset of what compiled plans share across programs."""

    @staticmethod
    def clear() -> None:
        """Empty codegen's shared table of compiled kernel code.

        Plans live on their rules and die with them, so there is no
        plan registry to drop; the shared code table is the one cache
        an evaluation can find warm from an earlier program.  After
        this, every variant compiles its text as in a fresh process.
        Kernels already built keep running their own code.
        """
        clear_shapes()


def active_matcher() -> str:
    """The matcher every run uses: the batch-kernel stack.

    There is one production path, traced runs included, so this is
    always ``"columnar"``.
    """
    return "columnar"


class DeltaBlock:
    """One relation's semi-naive delta as a batch of rows.

    ``facts`` is the frozen delta set (membership tests); ``rows``
    fixes the set's enumeration order, and is what the ``*_batch_*``
    codegen kernels unpack row by row.  A block is a drop-in for the
    frozenset it wraps everywhere a delta flows: iteration yields the
    identical row sequence, so wrapping cannot perturb seeded engines.
    """

    __slots__ = ("facts", "rows")

    def __init__(self, facts: frozenset[tuple]):
        self.facts = facts
        self.rows = tuple(facts)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __contains__(self, t: tuple) -> bool:
        return t in self.facts

    def __repr__(self) -> str:
        return f"DeltaBlock({len(self.rows)} rows)"


def make_delta(facts) -> "frozenset[tuple] | DeltaBlock":
    """Freeze one relation's stage delta for the next semi-naive pass.

    Non-empty deltas become :class:`DeltaBlock`\\ s — the frozen set
    plus its rows, ready for the batch kernels; empty ones stay a plain
    ``frozenset``.  A block iterates in exactly the frozenset's
    enumeration order, so every row-at-a-time consumer (including the
    seeded engines and the scalar fallbacks) sees the same sequence.
    """
    frozen = frozenset(facts)
    return DeltaBlock(frozen) if frozen else frozen


class Step:
    """One compiled positive literal of a join order.

    ``key_positions`` are the tuple positions bound before this step
    runs (constants and already-bound variables, in position order).
    ``key_template``/``key_fills`` build the index key without walking
    terms: constants are prefilled, fills patch bound slots in.
    ``binds`` are the (position → slot) pairs this step binds;
    ``withins`` are (position, earlier position) equality checks for
    variables repeated *within* the literal.  ``exact`` marks a
    fully-bound literal (membership probe, no index).

    A keyed step probes a chain index: ``chain_order`` names the
    trie's column order, ``chain_depth`` how many levels this step's
    key binds, and ``chain_perm`` re-orders the built key (which is in
    position order) into column order.  By default the chain is the
    *identity chain* — ``key_positions`` itself, probed at full depth,
    the same chain the reference matcher probes, so both matchers share
    one index.  A ``chain`` spec ``(order, depth)`` instead points the
    step at a shared chain of the query planner's minimal cover, probed
    by prefix when ``depth`` is shorter than the chain.
    """

    __slots__ = (
        "relation",
        "key_positions",
        "key_template",
        "key_fills",
        "binds",
        "withins",
        "exact",
        "chain_order",
        "chain_depth",
        "chain_perm",
    )

    def __init__(
        self,
        relation: str,
        key_positions: tuple[int, ...],
        key_template: tuple[Hashable, ...],
        key_fills: tuple[tuple[int, int], ...],
        binds: tuple[tuple[int, int], ...],
        withins: tuple[tuple[int, int], ...],
        chain: ChainSpec | None = None,
    ):
        self.relation = relation
        self.key_positions = key_positions
        self.key_template = list(key_template)
        self.key_fills = key_fills
        self.binds = binds
        self.withins = withins
        self.exact = bool(key_positions) and not binds and not withins
        keyed = bool(key_positions) and not self.exact
        order, depth = chain or (key_positions, len(key_positions))
        self.chain_order = order if keyed else None
        self.chain_depth = depth if keyed else 0
        # The built key lists values in position order; the chain wants
        # them in column order.
        self.chain_perm = (
            tuple(key_positions.index(order[d]) for d in range(depth))
            if keyed else ()
        )


class RulePlan:
    """A rule compiled against one join order (see module docstring)."""

    __slots__ = (
        "rule",
        "order",
        "bound",
        "n_slots",
        "steps",
        "never",
        "assigns",
        "pre_checks",
        "unbound_slots",
        "neg_checks",
        "post_checks",
        "out_vars",
        "emitters",
        "counted",
        "codegen_fns",
        "chains",
    )

    def __init__(
        self,
        rule: Rule,
        order: tuple[int, ...],
        bound: tuple[Var, ...] = (),
        chains: tuple[ChainSpec | None, ...] | None = None,
    ):
        self.rule = rule
        self.order = order
        #: Variables pre-bound by the caller (the differential engine's
        #: head-bound support probes).  They claim slots 0..k-1 in
        #: ``bound`` order, which the ``count_full`` kernel fills from
        #: each head tuple; every later occurrence compiles to an index
        #: key fill — the probes are restricted by the head, not
        #: post-filtered.
        self.bound = bound
        #: This plan's :class:`~repro.semantics.codegen.CodegenPlan`,
        #: made on first use; lives and dies with this plan object.
        self.codegen_fns = None
        #: Per-step chain specs (see :class:`Step`), or ``None`` when
        #: every keyed step probes its identity chain.
        self.chains = chains
        positive = rule.positive_body()
        slot_of: dict[Var, int] = {}

        def slot(v: Var) -> int:
            s = slot_of.get(v)
            if s is None:
                s = slot_of[v] = len(slot_of)
            return s

        for v in bound:
            slot(v)

        # -- per-literal steps -------------------------------------------
        steps: list[Step] = []
        for index in order:
            lit = positive[index]
            key_positions: list[int] = []
            key_template: list[Hashable] = []
            key_fills: list[tuple[int, int]] = []
            binds: list[tuple[int, int]] = []
            withins: list[tuple[int, int]] = []
            seen_here: dict[Var, int] = {}  # new vars only
            for position, term in enumerate(lit.terms):
                if isinstance(term, Const):
                    key_positions.append(position)
                    key_template.append(term.value)
                elif term in seen_here:
                    withins.append((position, seen_here[term]))
                elif term in slot_of:
                    key_positions.append(position)
                    key_fills.append((len(key_template), slot_of[term]))
                    key_template.append(None)
                else:
                    seen_here[term] = position
                    binds.append((position, slot(term)))
            steps.append(
                Step(
                    lit.relation,
                    tuple(key_positions),
                    tuple(key_template),
                    tuple(key_fills),
                    tuple(binds),
                    tuple(withins),
                    chains[len(steps)] if chains else None,
                )
            )
        self.steps = tuple(steps)

        # -- equality propagation, compiled statically -------------------
        # The set of variables bound after the join is static, so the
        # propagation fixpoint of base._propagate_equalities runs here,
        # at compile time, producing ordered slot assignments.
        never = False
        assigns: list[tuple[int, int | None, Hashable]] = []
        checks: list[EqLit] = []  # both sides bound: check once at finish
        pending = [eq for eq in rule.equality_body() if eq.positive]
        progress = True
        while progress:
            progress = False
            still: list[EqLit] = []
            for eq in pending:
                left_bound = isinstance(eq.left, Const) or eq.left in slot_of
                right_bound = isinstance(eq.right, Const) or eq.right in slot_of
                if left_bound and right_bound:
                    checks.append(eq)
                elif left_bound:
                    dst = slot(eq.right)
                    if isinstance(eq.left, Const):
                        assigns.append((dst, None, eq.left.value))
                    else:
                        assigns.append((dst, slot_of[eq.left], None))
                    progress = True
                elif right_bound:
                    dst = slot(eq.left)
                    if isinstance(eq.right, Const):
                        assigns.append((dst, None, eq.right.value))
                    else:
                        assigns.append((dst, slot_of[eq.right], None))
                    progress = True
                else:
                    still.append(eq)
            pending = still
        self.assigns = tuple(assigns)

        def check_spec(eq: EqLit) -> tuple:
            left = (
                (None, eq.left.value)
                if isinstance(eq.left, Const)
                else (slot_of[eq.left], None)
            )
            right = (
                (None, eq.right.value)
                if isinstance(eq.right, Const)
                else (slot_of[eq.right], None)
            )
            return (*left, *right, eq.positive)

        # -- adom enumeration for variables the join never binds ---------
        body_vars = rule.body_variables()
        unbound = sorted(
            (v for v in body_vars if v not in slot_of), key=lambda v: v.name
        )
        self.unbound_slots = tuple(slot(v) for v in unbound)
        enumerated = set(unbound)

        # Pre-checks run once per join match, before enumeration (the
        # reference matcher checks them during propagation); post-checks
        # involve enumerated variables and run per adom combination.
        pre_checks: list[tuple] = []
        post_checks: list[tuple] = []
        for eq in itertools.chain(
            checks,
            pending,
            (eq for eq in rule.equality_body() if not eq.positive),
        ):
            if isinstance(eq.left, Const) and isinstance(eq.right, Const):
                if (eq.left.value == eq.right.value) != eq.positive:
                    never = True
                continue  # statically true: no runtime check needed
            touches_enumerated = (
                (isinstance(eq.left, Var) and eq.left in enumerated)
                or (isinstance(eq.right, Var) and eq.right in enumerated)
            )
            (post_checks if touches_enumerated else pre_checks).append(
                check_spec(eq)
            )
        self.pre_checks = tuple(pre_checks)
        self.post_checks = tuple(post_checks)
        self.never = never

        # -- residual negative literals ----------------------------------
        neg_checks: list[tuple[str, list, tuple[tuple[int, int], ...]]] = []
        for lit in rule.negative_body():
            template: list[Hashable] = []
            fills: list[tuple[int, int]] = []
            for position, term in enumerate(lit.terms):
                if isinstance(term, Const):
                    template.append(term.value)
                else:
                    fills.append((position, slot_of[term]))
                    template.append(None)
            neg_checks.append((lit.relation, template, tuple(fills)))
        self.neg_checks = tuple(neg_checks)

        # -- output reconstruction and head emitters ---------------------
        self.n_slots = len(slot_of)
        self.out_vars = tuple(slot_of.items())
        emitters: list[tuple[str, list, tuple[tuple[int, int], ...], bool]] = []
        compilable = True
        for lit in rule.head_literals():
            template = []
            fills = []
            for position, term in enumerate(lit.terms):
                if isinstance(term, Const):
                    template.append(term.value)
                elif term in slot_of:
                    fills.append((position, slot_of[term]))
                    template.append(None)
                else:  # invention variable: no slot to read from
                    compilable = False
                    break
            if not compilable:
                break
            emitters.append((lit.relation, template, tuple(fills), lit.positive))
        #: None when a head variable has no slot (Datalog¬new invention);
        #: consumers fall back to dict valuations + instantiate_head.
        self.emitters = tuple(emitters) if compilable else None
        #: The body's head-free parts (see :meth:`_counted_parts`); the
        #: fused kernels count each once per call instead of joining it.
        self.counted = (
            self._counted_parts() if compilable and not bound else ()
        )

    def _counted_parts(self) -> tuple[frozenset[tuple[str, int]], ...]:
        """The connected components of the body that the fused kernels
        count instead of join.

        The body's items — steps, assigns, pre-checks, adom-enumerated
        slots, negation probes and post-checks, each named ``(kind,
        index)`` — connect through the slots they share.  A component
        that holds no head slot and loops at least once (a step that is
        not a membership probe, or an adom loop) multiplies the matches
        of the rest of the body by its own match count, so it is
        counted once per pass.  Slot-free items (ground literals and
        0-ary relations) filter the whole body and stay in the head
        part.  A body of one component keeps its joined kernels, so
        the result is empty unless there are at least two.
        """
        items: list[tuple[tuple[str, int], list[int], bool]] = []
        for d, step in enumerate(self.steps):
            slots = [s for _, s in step.key_fills] + [s for _, s in step.binds]
            items.append((("step", d), slots, not step.exact))
        for j, (dst, source, _value) in enumerate(self.assigns):
            items.append((("assign", j), [dst, source] if source is not None
                          else [dst], False))
        for kind, checks in (("pre", self.pre_checks),
                             ("post", self.post_checks)):
            for j, (ls, _lc, rs, _rc, _positive) in enumerate(checks):
                slots = [s for s in (ls, rs) if s is not None]
                items.append(((kind, j), slots, False))
        for j, s in enumerate(self.unbound_slots):
            items.append((("adom", j), [s], True))
        for k, (_relation, _template, fills) in enumerate(self.neg_checks):
            items.append((("neg", k), [s for _, s in fills], False))

        root = list(range(self.n_slots))

        def find(s: int) -> int:
            while root[s] != s:
                root[s] = s = root[root[s]]
            return s

        for _item, slots, _loops in items:
            for s in slots[1:]:
                root[find(s)] = find(slots[0])
        parts: dict[int, list] = {}
        for item, slots, loops in items:
            if slots:
                part = parts.setdefault(find(slots[0]), [set(), False])
                part[0].add(item)
                part[1] = part[1] or loops
        if len(parts) < 2:
            return ()
        head = {
            find(s) for _r, _t, fills, _p in self.emitters for _, s in fills
        }
        return tuple(
            frozenset(part_items)
            for r, (part_items, loops) in parts.items()
            if loops and r not in head
        )

    # -- execution ----------------------------------------------------------

    def compiled(self) -> CodegenPlan:
        """This plan's kernel table; each variant builds on first call."""
        fns = self.codegen_fns
        if fns is None:
            fns = self.codegen_fns = CodegenPlan(self)
        return fns

    def iter_slot_matches(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        delta: dict[str, frozenset[tuple]] | None = None,
    ) -> Iterator[list]:
        """All matches, as the (reused) slot list.

        Mirrors ``reference_matches``: without ``delta`` the plan runs
        once; with it, once per step whose relation has delta facts,
        that step's candidates restricted to the delta.
        """
        if self.never:
            return
        fns = self.compiled()
        if delta is None:
            yield from fns.run(db, adom, -1, None)
        else:
            for index, step in enumerate(self.steps):
                restricted = delta.get(step.relation)
                if restricted:
                    yield from fns.run(db, adom, index, restricted)

    def count_heads(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        heads: list[tuple],
    ) -> list[int]:
        """Each head tuple's number of body valuations over ``db``.

        The differential engine's support checks and recounts, one call
        per pass: on a plan whose ``bound`` holds every head variable,
        the ``count_full`` kernel seeds the bound slots from each
        head's values and walks the body with those slots already
        bound, so every occurrence of a bound variable probes an index
        key instead of scanning.  A head that contradicts a head
        constant or a repeated head variable counts 0.  Raises
        ``ValueError`` on a plan without such a head.
        """
        if self.never:
            return [0] * len(heads)
        return self.compiled().run_count(db, adom, heads)

    def run_rows(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        restricted_index: int,
        restricted: frozenset[tuple] | None,
    ) -> "list[tuple] | Iterator[list]":
        """Slot rows of one plan run, batch-kernelled when possible.

        The planner's multi-head/negative-head emit path: its consumer
        never mutates the database while draining, so a full pass comes
        back as one materialized list from the ``walk_batch_full``
        kernel.  Delta passes (which no dialect with such heads runs)
        and shapes without a batch kernel fall back to the generated
        scalar walk.
        """
        fns = self.compiled()
        rows = fns.run_walk_batch(db, adom, restricted_index)
        if rows is not None:
            return rows
        return fns.run(db, adom, restricted_index, restricted)

    def run_emit(
        self,
        db: Database,
        adom: tuple[Hashable, ...],
        restricted_index: int,
        restricted: frozenset[tuple] | None,
        relation: str,
        template: list,
        fills: list[tuple[int, int]],
        out: set,
        add_only: bool,
    ) -> int:
        """One plan run fused with single-positive-head emission.

        The planner's hottest call: rules with one positive head (the
        overwhelmingly common shape) add head tuples to ``out``, the
        set the pass keeps for the head's relation, straight from the
        generated kernel, which bakes the head spec in —
        ``relation``/``template``/``fills`` must be this plan's own
        emitter, and the guard refuses any other.  Dispatch
        prefers the ``emit_batch_*`` kernels (whole-delta list
        comprehensions) and falls back to the scalar fused walk for
        small deltas and shapes without a batch kernel; a body with
        head-free parts always runs its factored walk.  Returns the
        number of matches (firings).

        ``add_only`` tells the kernels the caller is an add-only
        fixpoint loop, for which a head already in the database is a
        no-op: they then leave out every head in the head relation's
        content (semi-naive's difference pushed into the kernel).
        Callers that read the result as "everything derivable" pass
        False.
        """
        fns = self.compiled()
        if (fns._emits is None or relation != fns.head_relation
                or fills != fns.head_fills):
            raise ValueError(
                "run_emit needs the plan's own single positive head"
            )
        return fns.run_emit_batch(
            db, adom, restricted_index, restricted, out, add_only
        )


def plan_for(
    rule: Rule,
    order: tuple[int, ...],
    bound: tuple[Var, ...] = (),
    chains: tuple[ChainSpec | None, ...] | None = None,
) -> RulePlan:
    """The compiled plan for ``rule`` under one join order (cached).

    ``order`` is the chosen permutation as indices into
    ``rule.positive_body()``; each distinct order compiles once per
    rule and is then selected in O(1) by later stages.  ``bound`` names
    head-seeded variables (see :meth:`RulePlan.count_heads`), and
    ``chains`` has one :class:`Step` chain spec per step, ``None`` for
    a step on its identity chain.  Plans with either are cached
    alongside the plain ones under a composite key.

    The cache rides on the rule object itself, as the planner's context
    rides on the program: the lookup is one attribute read (a mapping
    keyed by the rule would hash it structurally on every call), and
    the plans die with the rule.  Structurally equal rules therefore
    build their own plans; what they share is compiled code.
    """
    plans = getattr(rule, _PLANS_ATTR, None)
    if plans is None:
        plans = {}
        object.__setattr__(rule, _PLANS_ATTR, plans)  # Rule is frozen
    chains = chains if chains and any(chains) else None
    key = order if not bound else (order, bound)
    if chains:
        key = (key, chains)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = RulePlan(rule, order, bound, chains)
    return plan


def cached_plans(rule: Rule) -> list[RulePlan]:
    """The plans :func:`plan_for` has built for ``rule`` so far, in the
    order they were built (chain-probing plans included)."""
    return list(getattr(rule, _PLANS_ATTR, {}).values())
