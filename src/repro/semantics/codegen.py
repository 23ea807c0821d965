"""Source-emitting backend: each :class:`~repro.semantics.plan.RulePlan`
compiled to specialized Python.

A generic interpreter over a plan would pay, for every candidate tuple,
a loop over ``Step`` records, ``binds``/``withins`` tuples, and a
backtracking stack that encode the *rule*, not the data.  None of that
varies at runtime, so this module compiles it away entirely: for each
plan it emits a small Python module — one specialized function per
semi-naive variant — and ``exec``\\ s it once, keeping the source string
for debugging (``repro run --dump-codegen DIR`` writes it out).

Per plan the generated module contains:

* ``walk_full`` / ``walk_r{i}`` — the generator walks behind
  ``RulePlan.iter_slot_matches``/``iter_seeded``: the full-pass walk
  and one variant per step ``i`` with that step's candidates drawn from
  the delta.  The join becomes literal nested ``for`` loops; a
  full-depth chain probe is one ``.get`` per trie level over baked
  constants and slot reads (:func:`_trie_get`); repeat checks and
  residual (in)equalities are inline ``if``\\ s with constant indices.
* ``emit_full`` / ``emit_r{i}`` — the fused single-positive-head
  variants behind :meth:`RulePlan.run_emit`.  These drop the slot list
  for flat locals (``v0, v1, …``) and bake the head template into the
  ``add`` call.  Because the fused path never yields, nothing can
  mutate the database mid-walk, so these variants also skip the
  defensive bucket snapshots (``list(bucket)`` / ``list(rel)``) and
  iterate the live buckets.
* ``group_r{i}`` — the delta grouping of the restricted variants with
  the key positions baked in.
* ``emit_batch_full``/``emit_batch_r0`` and
  ``walk_batch_full``/``walk_batch_r0`` — the batch kernels
  (:func:`_emit_batch`): one list comprehension per variant that
  consumes a whole delta block, with each chain root's ``.get`` hoisted
  and full-depth probes inlined as the same trie walks.  Dispatched by
  ``run_emit_batch``/``run_walk_batch``; shapes that don't batch (delta
  at a non-leading occurrence, bound plans, no loopable step) and
  blocks under :attr:`CodegenPlan.BATCH_MIN_ROWS` run the scalar
  variants.

Enumeration-order identity (the contract seeded choice/nondeterministic
engines replay against) is preserved construct by construct: buckets
and chain probes enumerate insertion order, full scans iterate the
relation's tuple set, restricted variants iterate the delta frozenset
(grouped per key in that same order), adom products become nested loops
in ``unbound_slots`` order, and the generator flavor keeps the per-probe
snapshots because its consumers *can* mutate between yields.  Two
intentional micro-divergences, both unobservable: a step whose relation
is missing at walk start returns immediately (the walk could never
yield, so no consumer can create the relation mid-walk), and a chain's
root is fetched once per walk at first probe instead of per probe (the
live root dict is stable within a walk).  A prefix probe (a cover
chain probed above its last level) is a :meth:`Relation.probe_chain`
call, whose fresh list needs no snapshot.

Compiled functions are cached on the plan object itself
(``RulePlan.codegen_fns``): they die with the plan on
:meth:`PlanCache.clear`, planner replans build fresh plans (hence fresh
functions), and :func:`~repro.semantics.plan.plan_with_cover` resets
the slot on its twin so a cover-probing plan never runs the base plan's
identity-chain code.
"""

from __future__ import annotations

import itertools
import linecache
import re
from typing import Hashable, Iterator

__all__ = ["CodegenPlan", "compile_plan", "dump_codegen"]

#: Values emitted as literals in the generated source.  Exact types
#: only: a subclass (IntEnum, str subclasses) may not repr-round-trip,
#: and floats are excluded because ``nan``/``inf`` have no literal —
#: everything else is hoisted into the module namespace by name.
_LITERAL_TYPES = (int, str, bool, type(None))

_SEQ = itertools.count()


class _Source:
    """Accumulates generated lines and the hoisted-constant pool."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.consts: list[tuple[str, Hashable]] = []

    def add(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def lit(self, value: Hashable) -> str:
        """A source expression evaluating to ``value``."""
        if type(value) in _LITERAL_TYPES:
            return repr(value)
        for name, existing in self.consts:
            if type(existing) is type(value) and existing == value:
                return name
        name = f"_K{len(self.consts)}"
        self.consts.append((name, value))
        return name

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _tuple_expr(elements: list[str]) -> str:
    if not elements:
        return "()"
    if len(elements) == 1:
        return f"({elements[0]},)"
    return "(" + ", ".join(elements) + ")"


def _key_exprs(src: _Source, step, slot_ref) -> list[str]:
    """Per-element expressions of the step's index key, position order."""
    exprs = [src.lit(value) for value in step.key_template]
    for template_index, s in step.key_fills:
        exprs[template_index] = slot_ref(s)
    return exprs


def _trie_get(get: str, keys: list[str]) -> str:
    """A full-depth chain probe inlined as one ``.get`` per trie level.

    ``get`` names the chain root's bound ``.get``; ``keys`` are the key
    expressions in column order.  The expression is the bucket, or a
    falsy value on a miss.  Levels are pruned when emptied, so ``or``
    never swallows a live-but-empty node.
    """
    expr = f"{get}({keys[0]})"
    for k in keys[1:]:
        expr = f"({expr} or _E).get({k})"
    return expr


def _full_depth(step) -> bool:
    """Whether ``step`` probes its chain at full depth (inlined)."""
    return (step.chain_order is not None
            and step.chain_depth == len(step.chain_order))


def _template_expr(src: _Source, template, fills, slot_ref) -> str:
    """Tuple display for a (template, fills) pair (head or negation)."""
    exprs = [src.lit(value) for value in template]
    for position, s in fills:
        exprs[position] = slot_ref(s)
    return _tuple_expr(exprs)


def _emit_variant(src: _Source, plan, restricted_index: int,
                  fused: bool) -> str:
    """One specialized walk; returns the emitted function's name."""
    steps = plan.steps
    suffix = "full" if restricted_index < 0 else f"r{restricted_index}"
    name = ("emit_" if fused else "walk_") + suffix
    params = "db, adom, add" if fused else "db, adom, slots"
    if restricted_index >= 0:
        params += ", restricted"
    if fused:
        def slot_ref(s: int) -> str:
            return f"v{s}"
        bail = "return fired"
    else:
        def slot_ref(s: int) -> str:
            return f"slots[{s}]"
        bail = "return"

    src.add(0, f"def {name}({params}):")
    if fused:
        src.add(1, "fired = 0")

    # Prologue: resolve every non-restricted step's relation once.  A
    # missing relation means the walk can never reach full depth, so no
    # consumer runs mid-walk and nothing can create it — bail out.
    for d, step in enumerate(steps):
        if d == restricted_index:
            continue
        src.add(1, f"rel{d} = db.relation({src.lit(step.relation)})")
        src.add(1, f"if rel{d} is None:")
        src.add(2, bail)
        if _full_depth(step):
            src.add(1, f"t{d} = None")
    if fused:
        # The fused walk never yields, so the database is frozen for
        # the whole call: negation relations can be resolved up front.
        for k, (relation, _template, _fills) in enumerate(plan.neg_checks):
            src.add(1, f"nrel{k} = db.relation({src.lit(relation)})")

    indent = 1
    in_loop = False
    for d, step in enumerate(steps):
        key = _key_exprs(src, step, slot_ref)
        if d == restricted_index:
            # ``restricted`` is pre-grouped by group_r{d} when the step
            # has key positions, else the raw delta frozenset.
            if step.key_positions:
                src.add(indent,
                        f"for c{d} in restricted.get({_tuple_expr(key)}, ()):")
            else:
                src.add(indent, f"for c{d} in restricted:")
            in_loop = True
        elif step.exact:
            # Fully bound: a membership probe, not a loop.  ``continue``
            # statements below still behave exactly like the reference
            # matcher's single-candidate lookup exhausting.
            src.add(indent, f"if {_tuple_expr(key)} in rel{d}:")
        elif _full_depth(step):
            # The root is fetched at the walk's first probe, so a walk
            # that never reaches this step never builds the chain.
            ks = [key[i] for i in step.chain_perm]
            src.add(indent, f"if t{d} is None:")
            src.add(indent + 1,
                    f"t{d} = rel{d}.chain_index({step.chain_order!r}).get")
            src.add(indent, f"b{d} = {_trie_get(f't{d}', ks)}")
            src.add(indent, f"if b{d}:")
            indent += 1
            bucket = f"b{d}" if fused else f"list(b{d})"
            src.add(indent, f"for c{d} in {bucket}:")
            in_loop = True
        elif step.chain_order is not None:
            # A prefix probe: probe_chain collects a fresh list.
            chain_key = _tuple_expr([key[i] for i in step.chain_perm])
            src.add(indent,
                    f"for c{d} in rel{d}.probe_chain({step.chain_order!r}, "
                    f"{step.chain_depth}, {chain_key}):")
            in_loop = True
        else:
            scan = f"rel{d}" if fused else f"list(rel{d})"
            src.add(indent, f"for c{d} in {scan}:")
            in_loop = True
        indent += 1
        for p2, p1 in step.withins:
            src.add(indent, f"if c{d}[{p2}] != c{d}[{p1}]:")
            src.add(indent + 1, "continue")
        for position, s in step.binds:
            src.add(indent, f"{slot_ref(s)} = c{d}[{position}]")

    # -- the finish block (assigns, checks, adom, residuals, output) --
    fail = "continue" if in_loop else bail
    for dst, source_slot, value in plan.assigns:
        rhs = slot_ref(source_slot) if source_slot is not None \
            else src.lit(value)
        src.add(indent, f"{slot_ref(dst)} = {rhs}")

    def emit_checks(checks) -> None:
        for ls, lc, rs, rc, positive in checks:
            left = slot_ref(ls) if ls is not None else src.lit(lc)
            right = slot_ref(rs) if rs is not None else src.lit(rc)
            op = "!=" if positive else "=="
            src.add(indent, f"if {left} {op} {right}:")
            src.add(indent + 1, fail)

    emit_checks(plan.pre_checks)
    for j, s in enumerate(plan.unbound_slots):
        if fused:
            src.add(indent, f"for v{s} in adom:")
        else:
            src.add(indent, f"for e{j} in adom:")
        indent += 1
        if not fused:
            src.add(indent, f"slots[{s}] = e{j}")
    if plan.unbound_slots:
        fail = "continue"
    for k, (relation, template, fills) in enumerate(plan.neg_checks):
        probe = _template_expr(src, template, fills, slot_ref)
        if fused:
            src.add(indent, f"if nrel{k} is not None and {probe} in nrel{k}:")
        else:
            src.add(indent,
                    f"if db.has_fact({src.lit(relation)}, {probe}):")
        src.add(indent + 1, fail)
    emit_checks(plan.post_checks)
    if fused:
        relation, template, fills, _positive = plan.emitters[0]
        src.add(indent, "fired += 1")
        src.add(indent, f"add(({src.lit(relation)}, "
                        f"{_template_expr(src, template, fills, slot_ref)}))")
        src.add(1, "return fired")
    else:
        src.add(indent, "yield slots")
    src.add(0, "")
    return name


def _emit_batch(src: _Source, plan, restricted_index: int,
                fused: bool) -> str | None:
    """One batch (whole-delta) kernel; ``None`` if the shape won't batch.

    The batch variants consume an entire delta block in one
    call — rows unpacked straight into named locals, each chain root's
    ``.get`` hoisted out of the loop, full-depth chain probes inlined
    as trie walks (:func:`_trie_get`).  The walk flavor builds its row
    list with a single list comprehension (``LIST_APPEND``-driven, no
    per-row generator resume); the fused flavor runs the same clause
    chain as a nested block loop dedup-ing bare head tuples into a
    local set — self-joins fire the same head many times over, and
    skipping the ``(relation, tuple)`` wrapper allocation per firing
    pays for wrapping the deduped survivors once at the end.

    Batched shapes: ≥ 1 step, unbound plans only (seeded slots have no
    local to live in), and the restricted variant only for the leading
    occurrence (the planner compiles delta-first orders, so that is the
    hot case; other variants fall back to the scalar walk at dispatch).
    Unlike the scalar flavors nothing here snapshots buckets: a batch
    call materializes its whole result before the caller sees any row,
    so no consumer can mutate the relation mid-walk.
    """
    steps = plan.steps
    if not steps or plan.bound or restricted_index > 0:
        return None
    positive = plan.rule.positive_body()
    arities = [len(positive[i].terms) for i in plan.order]
    if restricted_index == 0 and (steps[0].key_fills or arities[0] == 0):
        return None
    suffix = "full" if restricted_index < 0 else f"r{restricted_index}"
    name = ("emit_batch_" if fused else "walk_batch_") + suffix
    params = "db, adom, out" if fused else "db, adom"
    if restricted_index >= 0:
        params += ", rows"
    if fused:
        # ``known`` is the head relation's live tuple set (or ``()``):
        # the dispatch passes it for add-only callers, to push
        # semi-naive's difference into the kernel, and passes ``()``
        # for consumers that need the full consequence set (the
        # differential engine's affected-fact and over-deletion
        # passes).
        params += ", known"
    bail = "return 0" if fused else "return []"

    prologue: list[str] = []
    guards: list[str] = []
    clauses: list[str] = []
    slot_expr: dict[int, str] = {}
    has_for = False
    # For the fused variant's keyed projection cache: the bucket
    # expression and cache key of each keyed probe step, plus which
    # clause (and step) produced the most recent ``for``.
    probe_info: dict[int, tuple[str, str]] = {}
    last_for: tuple[int, int] | None = None

    def cond(expr: str) -> None:
        # A comprehension's first clause must be ``for``; conditions
        # that precede every generator are loop-invariant (only
        # constants are bound yet), so they hoist to prologue guards.
        if has_for:
            clauses.append(f"if {expr}")
        else:
            guards.append(expr)

    def cand_name(d: int, p: int) -> str:
        return f"r{p}" if d == restricted_index else f"c{d}_{p}"

    def targets(d: int) -> str:
        if arities[d] == 0:
            return f"_c{d}"
        names = ", ".join(cand_name(d, p) for p in range(arities[d]))
        return names + ("," if arities[d] == 1 else "")

    def key_expr_of(key: list[str]) -> str:
        return key[0] if len(key) == 1 else _tuple_expr(key)

    for d, step in enumerate(steps):
        key = _key_exprs(src, step, lambda s: slot_expr[s])
        if d == restricted_index:
            clauses.append(f"for {targets(d)} in rows")
            last_for = (len(clauses) - 1, d)
            has_for = True
            # The scalar variant groups the delta by the (constant) key
            # and probes once; filtering the unpacked rows yields the
            # same subsequence in the same order.
            for j, p in enumerate(step.key_positions):
                clauses.append(f"if {cand_name(d, p)} == {key[j]}")
        elif step.exact:
            cond(f"{_tuple_expr(key)} in rel{d}")
        elif step.chain_order is not None:
            ks = [key[i] for i in step.chain_perm]
            if _full_depth(step):
                prologue.append(
                    f"g{d} = rel{d}.chain_index({step.chain_order!r}).get"
                )
                expr = _trie_get(f"g{d}", ks) + " or ()"
            else:
                prologue.append(f"p{d} = rel{d}.probe_chain")
                expr = (f"p{d}({step.chain_order!r}, {step.chain_depth}, "
                        f"{_tuple_expr(ks)})")
            clauses.append(f"for {targets(d)} in {expr}")
            if arities[d]:
                probe_info[d] = (expr, key_expr_of(ks))
            last_for = (len(clauses) - 1, d)
            has_for = True
        else:
            clauses.append(f"for {targets(d)} in rel{d}")
            last_for = (len(clauses) - 1, d)
            has_for = True
        for p2, p1 in step.withins:
            cond(f"{cand_name(d, p2)} == {cand_name(d, p1)}")
        for position, s in step.binds:
            slot_expr[s] = cand_name(d, position)

    # -- finish: assigns substitute, checks become filter clauses ------
    for dst, source_slot, value in plan.assigns:
        slot_expr[dst] = (
            slot_expr[source_slot] if source_slot is not None
            else src.lit(value)
        )

    def batch_checks(checks) -> None:
        for ls, lc, rs, rc, positive_check in checks:
            left = slot_expr[ls] if ls is not None else src.lit(lc)
            right = slot_expr[rs] if rs is not None else src.lit(rc)
            op = "==" if positive_check else "!="
            cond(f"{left} {op} {right}")

    batch_checks(plan.pre_checks)
    for s in plan.unbound_slots:
        clauses.append(f"for v{s} in adom")
        slot_expr[s] = f"v{s}"
        has_for = True
    for k, (relation, template, fills) in enumerate(plan.neg_checks):
        probe = _template_expr(src, template, fills,
                               lambda s: slot_expr[s])
        cond(f"nrel{k} is None or {probe} not in nrel{k}")
    batch_checks(plan.post_checks)
    if not has_for:
        return None  # a comprehension needs at least one for clause

    if fused:
        relation, template, fills, _positive = plan.emitters[0]
        element = _template_expr(
            src, template, fills, lambda s: slot_expr[s]
        )
        relation_lit = src.lit(relation)
    else:
        element = _tuple_expr(
            [slot_expr[s] for s in range(plan.n_slots)]
        )

    src.add(0, f"def {name}({params}):")
    for d, step in enumerate(steps):
        if d == restricted_index:
            continue
        src.add(1, f"rel{d} = db.relation({src.lit(step.relation)})")
        src.add(1, f"if rel{d} is None:")
        src.add(2, bail)
    for k, (relation, _template, _fills) in enumerate(plan.neg_checks):
        src.add(1, f"nrel{k} = db.relation({src.lit(relation)})")
    for line in prologue:
        src.add(1, line)
    for guard in guards:
        src.add(1, f"if not ({guard}):")
        src.add(2, bail)
    if fused:
        # The fused variant dedups the bare head tuples into a local
        # set first — the inner loop never allocates or hashes the
        # ``(relation, tuple)`` wrapper, which on duplicate-heavy
        # self-joins is most of the firings — then subtracts the head
        # relation's current content (semi-naive's difference, pushed
        # into the kernel: one bulk ``difference_update`` instead of a
        # per-fact membership probe downstream) and wraps only the
        # genuinely new survivors for ``out``.
        #
        # When the innermost clause is an unfiltered keyed probe, the
        # whole inner loop vectorizes: the bucket's projection onto
        # the head's last-step attributes is computed once per
        # distinct key and cached for the block, the firing count
        # hoists to ``len(proj)``, and emission becomes one C-level
        # ``set.update`` per outer row into a dedup set grouped by
        # the head's outer attributes — no per-firing bytecode runs.
        d_last = last_for[1] if last_for is not None else -1
        cacheable = (
            last_for is not None
            and last_for[0] == len(clauses) - 1
            and d_last in probe_info
            and d_last != restricted_index
        )
        if cacheable:
            head_exprs = [src.lit(v) for v in template]
            for position, hs in fills:
                head_exprs[position] = slot_expr[hs]
            is_inner = [
                any(
                    re.search(rf"\b{cand_name(d_last, p)}\b", e)
                    for p in range(arities[d_last])
                )
                for e in head_exprs
            ]
            inner_exprs = [
                e for e, inn in zip(head_exprs, is_inner) if inn
            ]
            outer_exprs = [
                e for e, inn in zip(head_exprs, is_inner) if not inn
            ]
            cacheable = bool(inner_exprs)
        src.add(1, "fired = 0")
        if cacheable:
            probe_expr, cache_key = probe_info[d_last]
            proj_elem = (
                inner_exprs[0] if len(inner_exprs) == 1
                else _tuple_expr(inner_exprs)
            )
            # Rebuild the head tuple from the group key (k*) and the
            # deduped inner projection (w*) during the final flatten.
            head_parts, ko, wo = [], 0, 0
            for inn in is_inner:
                if inn:
                    head_parts.append(f"w{wo}")
                    wo += 1
                else:
                    head_parts.append(f"k{ko}")
                    ko += 1
            head_rebuilt = _tuple_expr(head_parts)
            w_names = [f"w{j}" for j in range(wo)]
            w_target = (
                w_names[0] if len(w_names) == 1
                else "(" + ", ".join(w_names) + ")"
            )
            if outer_exprs:
                key_expr = (
                    outer_exprs[0] if len(outer_exprs) == 1
                    else _tuple_expr(outer_exprs)
                )
                k_names = [f"k{i}" for i in range(ko)]
                k_target = (
                    k_names[0] if len(k_names) == 1
                    else "(" + ", ".join(k_names) + ")"
                )
                src.add(1, "seen = {}")
                src.add(1, "sget = seen.get")
            else:
                src.add(1, "seen = set()")
            src.add(1, "cache = {}")
            src.add(1, "cget = cache.get")
            depth = 1
            for clause in clauses[:-1]:
                src.add(depth, clause + ":")
                depth += 1
            src.add(depth, f"proj = cget({cache_key})")
            src.add(depth, "if proj is None:")
            src.add(depth + 1, f"proj = cache[{cache_key}] = [")
            src.add(depth + 2, proj_elem)
            src.add(depth + 2, f"for {targets(d_last)} in {probe_expr}")
            src.add(depth + 1, "]")
            src.add(depth, "if proj:")
            depth += 1
            src.add(depth, "fired += len(proj)")
            if outer_exprs:
                src.add(depth, f"s = sget({key_expr})")
                src.add(depth, "if s is None:")
                src.add(depth + 1, f"s = seen[{key_expr}] = set()")
                src.add(depth, "s.update(proj)")
            else:
                src.add(depth, "seen.update(proj)")
            src.add(1, "if seen:")
            if outer_exprs:
                src.add(2, f"flat = {{{head_rebuilt} for {k_target}, s in "
                            f"seen.items() for {w_target} in s}}")
            else:
                src.add(2, f"flat = {{{head_rebuilt} for {w_target} "
                            "in seen}")
            src.add(2, "if known:")
            src.add(3, "flat.difference_update(known)")
            src.add(2, f"out.update([({relation_lit}, t) for t in flat])")
        else:
            src.add(1, "seen = set()")
            src.add(1, "add = seen.add")
            depth = 1
            for clause in clauses:
                src.add(depth, clause + ":")
                depth += 1
            src.add(depth, "fired += 1")
            src.add(depth, f"add({element})")
            src.add(1, "if seen:")
            src.add(2, "if known:")
            src.add(3, "seen.difference_update(known)")
            src.add(2, f"out.update([({relation_lit}, t) for t in seen])")
        src.add(1, "return fired")
    else:
        # The walk variant's whole product is the row list, so the
        # comprehension's C-level appends are the fastest way to
        # build it (the scalar walk is a per-row generator resume).
        src.add(1, "res = [")
        src.add(2, element)
        for clause in clauses:
            src.add(2, clause)
        src.add(1, "]")
        src.add(1, "return res")
    src.add(0, "")
    return name


def _emit_group(src: _Source, index: int, positions) -> str:
    """The delta grouping of ``_run`` with key positions baked in."""
    name = f"group_r{index}"
    key = _tuple_expr([f"t[{p}]" for p in positions])
    src.add(0, f"def {name}(restricted):")
    src.add(1, "grouped = {}")
    src.add(1, "for t in restricted:")
    src.add(2, f"k = {key}")
    src.add(2, "g = grouped.get(k)")
    src.add(2, "if g is None:")
    src.add(3, "grouped[k] = [t]")
    src.add(2, "else:")
    src.add(3, "g.append(t)")
    src.add(1, "return grouped")
    src.add(0, "")
    return name


class CodegenPlan:
    """One plan's compiled functions plus the source they came from.

    ``run``/``run_emit_batch`` take the arguments ``RulePlan``
    dispatches with (minus the head spec, which is baked — callers
    verify it against ``head_relation``/``head_fills`` before
    dispatching).
    """

    __slots__ = (
        "source",
        "filename",
        "n_slots",
        "head_relation",
        "head_fills",
        "_walks",
        "_emits",
        "_groups",
        "_batch_emits",
        "_batch_walks",
    )

    def run(self, db, adom, restricted_index: int, restricted,
            seed=None) -> Iterator:
        """The generator walk: every match as the (reused) slot list.

        ``seed`` pre-fills the leading (bound) slots — the differential
        engine's head-seeded rederivation probes; the generated walks
        only ever read those slots, so prefilling the list is the whole
        protocol.
        """
        slots = [None] * self.n_slots
        if seed is not None:
            slots[: len(seed)] = seed
        if restricted_index < 0:
            return self._walks[0](db, adom, slots)
        group = self._groups[restricted_index]
        if group is not None:
            restricted = group(restricted)
        return self._walks[restricted_index + 1](
            db, adom, slots, restricted
        )

    def run_emit(self, db, adom, restricted_index: int, restricted,
                 out: set) -> int:
        """The scalar fused walk; returns firings."""
        if restricted_index < 0:
            return self._emits[0](db, adom, out.add)
        group = self._groups[restricted_index]
        if group is not None:
            restricted = group(restricted)
        return self._emits[restricted_index + 1](
            db, adom, out.add, restricted
        )

    @staticmethod
    def _rows(restricted) -> tuple:
        """A delta's rows in its enumeration order (block fast path)."""
        rows = getattr(restricted, "rows", None)
        return rows if rows is not None else tuple(restricted)

    # Delta blocks below this row count run the scalar fused walk: the
    # batch kernels' per-call machinery (projection cache, grouped
    # dedup set, flatten) only amortizes over enough rows, and
    # fixpoints with many tiny stages would otherwise pay it hundreds
    # of times for single-row deltas.  Either path derives the same
    # facts and counts the same firings, so the floor is invisible to
    # everything but the clock.
    BATCH_MIN_ROWS = 8

    def run_emit_batch(self, db, adom, restricted_index: int, restricted,
                       out: set, add_only: bool) -> int:
        """Fused dispatch: batch kernel or scalar fallback.

        Variants without a batch shape (delta at a non-leading
        occurrence, no loopable step, …) and deltas smaller than
        :data:`BATCH_MIN_ROWS` drop to :meth:`run_emit` — same
        firings, same facts.

        ``add_only`` (an add-only fixpoint caller, see
        ``RulePlan.run_emit``) hands the batch kernel the head
        relation's live tuple set to subtract before flattening —
        semi-naive's difference, one bulk op instead of a per-fact
        membership probe downstream.  Otherwise the consequence set
        means "everything derivable", which non-monotone consumers
        (trigger programs' ``negative - positive``, the differential
        engine's affected/over-deletion passes) rely on.
        """
        fn = None
        if restricted_index < 0:
            fn = self._batch_emits[0]
        elif restricted_index == 0:
            fn = self._batch_emits[1]
            if fn is not None and not restricted:
                return 0
            if fn is not None and len(restricted) < self.BATCH_MIN_ROWS:
                fn = None
        if fn is None:
            return self.run_emit(db, adom, restricted_index, restricted, out)
        known: set | tuple = ()
        if add_only:
            hrel = db.relation(self.head_relation)
            if hrel is not None:
                known = hrel.live_set()
        if restricted_index < 0:
            return fn(db, adom, out, known)
        return fn(db, adom, out, self._rows(restricted), known)

    def run_walk_batch(self, db, adom, restricted_index: int,
                       restricted) -> "list[tuple] | None":
        """Batch walk: every match as a materialized slot row, or
        ``None`` when this variant has no batch kernel (the caller then
        falls back to the generator walk)."""
        if restricted_index < 0:
            fn = self._batch_walks[0]
            return fn(db, adom) if fn is not None else None
        if restricted_index == 0:
            fn = self._batch_walks[1]
            if fn is not None:
                if not restricted:
                    return []
                return fn(db, adom, self._rows(restricted))
        return None


def compile_plan(plan) -> CodegenPlan:
    """Emit, compile, and bind the specialized functions for ``plan``."""
    src = _Source()
    rule_text = " ".join(str(plan.rule).split())
    src.add(0, f"# codegen for rule: {rule_text}")
    src.add(0, f"# join order: {plan.order!r}   slots: "
               + " ".join(f"{v.name}={s}" for v, s in plan.out_vars))
    src.add(0, "")
    # Shared empty dict for the inlined trie walks
    # (``(g(k0) or _E).get(k1)``); read-only by construction.
    src.add(0, "_E = {}")
    src.add(0, "")
    variants = [-1, *range(len(plan.steps))]
    walk_names = [_emit_variant(src, plan, r, fused=False)
                  for r in variants]
    emittable = (
        plan.emitters is not None
        and len(plan.emitters) == 1
        and plan.emitters[0][3]
        and not plan.bound
    )
    emit_names = (
        [_emit_variant(src, plan, r, fused=True) for r in variants]
        if emittable
        else None
    )
    batch_walk_names = [_emit_batch(src, plan, r, fused=False)
                        for r in (-1, 0)]
    batch_emit_names = (
        [_emit_batch(src, plan, r, fused=True) for r in (-1, 0)]
        if emittable
        else [None, None]
    )
    group_names: list[str | None] = [
        _emit_group(src, i, step.key_positions) if step.key_positions
        else None
        for i, step in enumerate(plan.steps)
    ]

    source = src.text()
    filename = f"<codegen-{next(_SEQ)}: {rule_text}>"
    namespace: dict = dict(src.consts)
    exec(compile(source, filename, "exec"), namespace)
    # Register with linecache so tracebacks through generated code show
    # the emitted lines.
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )

    cg = CodegenPlan.__new__(CodegenPlan)
    cg.source = source
    cg.filename = filename
    cg.n_slots = plan.n_slots
    cg._walks = [namespace[name] for name in walk_names]
    cg._emits = (
        [namespace[name] for name in emit_names] if emit_names else None
    )
    cg._groups = [
        namespace[name] if name is not None else None
        for name in group_names
    ]
    cg._batch_walks = [
        namespace[name] if name is not None else None
        for name in batch_walk_names
    ]
    cg._batch_emits = [
        namespace[name] if name is not None else None
        for name in batch_emit_names
    ]
    if emittable:
        relation, _template, fills, _positive = plan.emitters[0]
        cg.head_relation = relation
        cg.head_fills = fills
    else:
        cg.head_relation = None
        cg.head_fills = None
    return cg


def _dump_name(rule_index: int, plan) -> str:
    """A plan's dump file stem: rule index, join order, bound variables."""
    order = "_".join(map(str, plan.order)) if plan.order else "empty"
    name = f"rule{rule_index}_order_{order}"
    if plan.bound:
        name += "_bound_" + "_".join(v.name for v in plan.bound)
    return name


def dump_codegen(program, directory: str) -> list[str]:
    """Write the generated source of every plan the program ran.

    One file per plan whose functions were compiled: base plans, the
    planner's chain-cover twins (``RulePlan.cover_twins`` — usually the
    code that actually ran), and the differential engine's bound
    plans, named by rule index, join order, bound variables and cover
    twin number.  Nothing new is compiled unless no plan of the
    program ever ran (a traced run, or no run at all); then each
    rule's cached plans — or its source-order plan — are compiled so
    the dump still shows the code a run generates.  Returns the
    written paths.  Debug tooling for ``repro run --dump-codegen``.
    """
    import os

    from repro.semantics.plan import PlanCache, plan_for

    plans: list[tuple[str, object]] = []
    for i, rule in enumerate(program.rules):
        for plan in (PlanCache._plans.get(rule) or {}).values():
            stem = _dump_name(i, plan)
            plans.append((stem, plan))
            for k, twin in enumerate((plan.cover_twins or {}).values()):
                plans.append((f"{stem}_cover{k}", twin))
    ran = [(stem, plan) for stem, plan in plans if plan.codegen_fns is not None]
    if not ran:
        for i, rule in enumerate(program.rules):
            cached = list((PlanCache._plans.get(rule) or {}).values())
            if not cached:
                cached = [
                    plan_for(rule, tuple(range(len(rule.positive_body()))))
                ]
            for plan in cached:
                if plan.codegen_fns is None:
                    plan.codegen_fns = compile_plan(plan)
                ran.append((_dump_name(i, plan), plan))

    os.makedirs(directory, exist_ok=True)
    paths: list[str] = []
    for stem, plan in ran:
        path = os.path.join(directory, f"{stem}.py")
        with open(path, "w") as handle:
            handle.write(plan.codegen_fns.source)
        paths.append(path)
    return paths
