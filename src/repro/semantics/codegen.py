"""Source-emitting backend: the kernels of each
:class:`~repro.semantics.plan.RulePlan`, compiled to specialized Python.

A generic interpreter over a plan would pay, for every candidate tuple,
a loop over ``Step`` records, ``binds``/``withins`` tuples, and a
backtracking stack that encode the *rule*, not the data.  None of that
varies at runtime, so this module compiles it away: each semi-naive
variant of a plan becomes one specialized Python function, a *kernel*.
The variants of a plan with steps ``0 … n-1``:

* ``walk_full`` / ``walk_r{i}`` — the generator walks behind
  ``RulePlan.iter_slot_matches``: the full-pass walk and one variant
  per step ``i`` with that step's candidates drawn from the delta.
  The join becomes literal nested ``for`` loops; a full-depth chain
  probe is one ``.get`` per trie level over bound constants and slot
  reads (:func:`_trie_get`); repeat checks and residual
  (in)equalities are inline ``if``\\ s with constant indices.
* ``emit_full`` / ``emit_r{i}`` — the fused single-positive-head
  variants behind :meth:`RulePlan.run_emit`.  These drop the slot list
  for flat locals (``v0, v1, …``) and add each head tuple to the head
  relation's set (``add``).  Because the fused path never yields,
  nothing can mutate the database mid-walk, so these variants also skip
  the defensive bucket snapshots (``list(bucket)`` / ``list(rel)``) and
  iterate the live buckets.  Under an add-only caller a head already
  in its relation is not emitted, as the batch kernels subtract it
  (``known``).
* ``emit_factored_full`` / ``emit_factored_r{i}`` — the fused variants
  of a plan whose body falls apart into connected components, at least
  one of which reaches no head slot and loops (``RulePlan.counted``,
  e.g. Example 4.3's ``T(x, y), T(xp, zp), T(zp, yp), ¬T(xp, yp)``).
  Such a part multiplies the rule's matches without changing its heads,
  so the kernel walks the rest of the body once and, at its first
  complete match, counts each head-free part once (under the delta
  restriction when step ``i`` lies in it); a zero count ends the call,
  and otherwise every match adds the product of the counts to
  ``fired``.  Heads and firings equal the joined walk's; the work drops
  from the product of the parts' sizes to their sum, and a pass whose
  head part never matches counts nothing.  A plan that factors runs
  these at every delta size and has no ``emit``/``emit_batch``
  variants; a body of one component keeps them.  Its ``run_rows`` and
  generator walks still join, since their consumers need every
  valuation.
* ``count_full`` — behind :meth:`RulePlan.count_heads`, on a plan
  whose ``bound`` holds every head variable: the fused walk inside one
  loop over a list of head tuples, seeding the bound slots from each
  and appending its number of body valuations (0 for a head that
  contradicts a head constant or repeated variable).
* ``group_r{i}`` — the delta grouping of the restricted variants with
  the key positions baked in.
* ``emit_batch_full``/``emit_batch_r0`` and ``walk_batch_full`` — the
  batch kernels (:func:`_emit_batch`): one comprehension per variant
  that runs a whole pass (``emit_batch_r0`` over a whole delta block),
  with each chain root's ``.get`` hoisted and full-depth probes inlined
  as the same trie walks.
  Dispatched by ``run_emit_batch``/``run_walk_batch``; shapes that don't
  batch (delta at a non-leading occurrence, bound plans, no loopable
  step), blocks under :attr:`CodegenPlan.BATCH_MIN_ROWS` and restricted
  walks run the scalar variants.
* ``emit_grouped_*``/``emit_union_*`` — the grouped loops, bitset and
  set unions, emitted by :mod:`repro.semantics.codegen_grouped` and
  built on the first call a batch kernel hands on (see
  :func:`_emit_batch`).
* ``*_tally_*`` — each scalar variant's traced twin, which also counts
  per-literal candidates and matches (:func:`_emit_part`); run only by
  :mod:`repro.semantics.codegen_traced`.

The kernels that never yield (fused, factored, count and batch) read
each negated relation's live tuple set once per call and probe it with
a plain ``in``; the generator walks, whose consumers may write between
yields, call ``db.has_fact`` per probe.

**Each variant is built on its first call.**  A plan's
:class:`CodegenPlan` is a table of its variants in which every entry
starts as a stub.  A stub's first call builds its variant through
:func:`compile_plan` and puts the built function in its own place, so
later calls dispatch straight to the kernel.  Most plans only ever run
two or three of their variants.

**Each text is compiled once.**  The emitted text names no relation
and no constant: every value is a default argument (``R0=R0``,
``K1_0=K1_0``, …) that :func:`compile_plan` binds when it makes the
function, so inside the kernel each value is a fast local and the text
depends only on the plan's shape.  ``compile()`` runs once per distinct
text.  The code object goes into ``_SHAPES``, a table keyed by the text
and shared by every plan whose variant emits it; isomorphic rules (the
30 gated components of ``bench``'s ``gated_components``) bind their
own relation names to one code object.  Because the text holds no
constant, the table grows with the number of distinct rule shapes a
process has run, not with its programs or their data: a fresh parse of
a program (a repeated magic query, or a benchmark round that parses
its program afresh) finds its code compiled even after the earlier
program is gone.
:meth:`~repro.semantics.plan.PlanCache.clear` empties the table, so
that the next kernel compiles as in a fresh process.  Each compiled
text is registered in :mod:`linecache` under a file name of its own,
so a traceback through a kernel shows the emitted line.  The entry
leaves :mod:`linecache` when its code object dies: once the table is
cleared and no kernel runs the code.

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

A plan's table lives on the plan (``RulePlan.codegen_fns``) and dies
with it.  A plan's steps, the chains they probe included, are fixed
when it is built: a planner replan or cover change selects a different
plan object (hence a different table), so no kernel ever probes a chain
its plan does not name.
"""

from __future__ import annotations

import builtins
import itertools
import linecache
import re
import sys
from types import CodeType, FunctionType
from typing import Hashable, Iterator
from weakref import finalize

__all__ = ["CodegenPlan", "Kernel", "compile_plan", "dump_codegen"]

_SEQ = itertools.count()

#: Compiled kernel code by emitted text, shared by every plan whose
#: variant emits that text; one entry per shape, until
#: :func:`clear_shapes`.
_SHAPES: dict[str, CodeType] = {}

#: The globals of every kernel, also the dump header's: ``_E`` is the
#: inlined trie walks' empty dict (``(g(k0) or _E).get(k1)``),
#: read-only; ``compress`` and ``_B01`` decode the bitset masks.
_GLOBAL_LINES = (
    "from itertools import compress",
    "_E = {}",
    "_B01 = bytes.maketrans(b'01', b'\\0\\1')",
)
_GLOBALS: dict = {"__builtins__": builtins}
exec("\n".join(_GLOBAL_LINES), _GLOBALS)

#: The mean bucket size (rows per distinct key of the probed chain, at
#: the probe depth) from which a fused batch kernel hands its call to
#: the grouped variant (:mod:`~repro.semantics.codegen_grouped`).  Like
#: :attr:`CodegenPlan.BATCH_MIN_ROWS`, it moves only the clock.
GROUP_MIN_BUCKET = 8

#: The values one digit operation of a mask union covers: the bitset
#: variant's budget per row of mean bucket (see
#: :func:`repro.semantics.codegen_grouped.emit_grouped`).
_DIGIT_BITS = sys.int_info.bits_per_digit

_BATCH_KINDS = ("walk_batch", "emit_batch", "emit_grouped", "emit_union")


class _Source:
    """One kernel being emitted: its lines and the values it binds.

    Every relation name and constant enters the kernel through
    :meth:`bind` as a default argument, so the text depends only on the
    plan's shape.  Names are structural (``R{d}`` is step ``d``'s
    relation, ``K{d}_{i}`` element ``i`` of its key, …), so one name
    means one value across all the variants of a plan.
    """

    def __init__(self, name: str, params: str) -> None:
        self.name = name
        self.params = params
        self.lines: list[str] = []
        self.bindings: dict[str, Hashable] = {}

    def add(self, indent: int, text: str) -> None:
        """Append ``text``, each of its lines ``indent`` levels deeper."""
        if "\n" in text:
            for line in text.split("\n"):
                self.add(indent, line)
        else:
            self.lines.append("    " * indent + text)

    def bind(self, name: str, value: Hashable) -> str:
        """``name``, bound to ``value`` when the kernel is made."""
        self.bindings[name] = value
        return name

    def text(self) -> str:
        params = [self.params, *(f"{name}={name}" for name in self.bindings)]
        return (f"def {self.name}({', '.join(params)}):\n"
                + "\n".join(self.lines) + "\n")


def _tuple_expr(elements: list[str]) -> str:
    if not elements:
        return "()"
    if len(elements) == 1:
        return f"({elements[0]},)"
    return "(" + ", ".join(elements) + ")"


def _key_exprs(src: _Source, d: int, step, slot_ref) -> list[str]:
    """Per-element expressions of step ``d``'s index key, position order."""
    fills = dict(step.key_fills)
    return [
        slot_ref(fills[i]) if i in fills else src.bind(f"K{d}_{i}", value)
        for i, value in enumerate(step.key_template)
    ]


def _key_tuple(src: _Source, d: int, step, slot_ref, perm=None) -> str:
    """Step ``d``'s key as one tuple, in ``perm`` order (default:
    position order).  An all-constant key is a single bound tuple, so
    probing it builds nothing.  A step probes in one order only: an
    exact step by position, a prefix probe by its chain's columns."""
    if perm is None:
        perm = range(len(step.key_template))
    if not step.key_fills:
        return src.bind(f"K{d}", tuple(step.key_template[i] for i in perm))
    key = _key_exprs(src, d, step, slot_ref)
    return _tuple_expr([key[i] for i in perm])


def _template_exprs(src: _Source, name: str, template, fills,
                    slot_ref) -> list[str]:
    """Per-position expressions of a head or negation template."""
    filled = dict(fills)
    return [
        slot_ref(filled[p]) if p in filled else src.bind(f"{name}_{p}", value)
        for p, value in enumerate(template)
    ]


def _template_expr(src: _Source, name: str, template, fills,
                   slot_ref) -> str:
    """A head or negation template as one tuple; all-constant, bound."""
    if not fills:
        return src.bind(name, tuple(template))
    return _tuple_expr(_template_exprs(src, name, template, fills, slot_ref))


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


def _emit_variant(plan, restricted_index: int, kind: str) -> _Source:
    """One specialized scalar walk: generator (``walk``), fused
    (``emit``), factored fused (``emit_factored``) or head-seeded
    counting (``count``) flavor, or a traced twin (``*_tally``, which
    also takes ``tally``)."""
    fused = not kind.startswith("walk")
    counting = kind == "count"
    tally = kind.endswith("_tally")
    suffix = "full" if restricted_index < 0 else f"r{restricted_index}"
    params = "db, adom, " + (
        "heads" if counting else "add" if fused else "slots"
    )
    if restricted_index >= 0:
        params += ", restricted"
    if fused and not counting:
        # ``known`` is the head relation's live tuple set for add-only
        # callers and ``()`` otherwise, as for the batch kernels: a
        # head already there is skipped at the source.
        params += ", known"
    if tally:
        params += ", tally"
    src = _Source(f"{kind}_{suffix}", params)
    if fused:
        def slot_ref(s: int) -> str:
            return f"v{s}"
        if counting:
            bail = "return [0] * len(heads)"
        else:
            bail = "return fired"
            src.add(1, "fired = 0")
    else:
        def slot_ref(s: int) -> str:
            return f"slots[{s}]"
        bail = "return"

    # Prologue: resolve every non-restricted step's relation once.  A
    # missing relation means the walk can never reach full depth, so no
    # consumer runs mid-walk and nothing can create it — bail out.
    for d, step in enumerate(plan.steps):
        if d == restricted_index:
            continue
        rel_name = src.bind(f"R{d}", step.relation)
        src.add(1, f"rel{d} = db.relation({rel_name})")
        src.add(1, f"if rel{d} is None:")
        src.add(2, bail)
        if _full_depth(step):
            src.add(1, f"t{d} = None")
        elif counting and step.exact:
            src.add(1, f"m{d} = rel{d}.live_set()")
    if fused:
        # The fused walk never yields, so the database is frozen for
        # the whole call: each negated relation's live tuple set is
        # read once, and probed with a plain ``in``.
        _negated_sets(src, plan)

    # The factored flavor walks the body without its head-free parts.
    # At the first complete match it counts each such part once (a
    # zero count ends the call, before anything fired) and then books
    # the product of the counts per match, so a pass whose other items
    # never match never counts.
    counted = plan.counted if kind.startswith("emit_factored") else ()
    if counted:
        src.add(1, "product = 0")
    skip = frozenset().union(*counted)
    indent = 1
    if counting:
        # A filter outside every loop books the head's zero.
        indent, bail = _seed_heads(src, plan), "append(0)\ncontinue"
    indent = _emit_part(src, plan, restricted_index, fused, slot_ref, bail,
                        lambda item: item not in skip, indent, tally,
                        "m" if counting else "rel")
    if counted:
        src.add(indent, "if not product:")
        for k, part in enumerate(counted):
            src.add(indent + 1, f"count{k} = 0")
            inner = _emit_part(src, plan, restricted_index, fused, slot_ref,
                               bail, part.__contains__, indent + 1, tally)
            src.add(inner, f"count{k} += 1")
        src.add(indent + 1, "product = " + " * ".join(
            f"count{k}" for k in range(len(counted))
        ))
        src.add(indent + 1, "if not product:")
        src.add(indent + 2, bail)
    if counting:
        src.add(indent, "n += 1")
        src.add(2, "append(n)")
        src.add(1, "return counts")
    elif fused:
        _relation, template, fills, _positive = plan.emitters[0]
        head = _template_expr(src, "H", template, fills, slot_ref)
        src.add(indent, "fired += product" if counted else "fired += 1")
        src.add(indent, f"h = {head}")
        src.add(indent, "if h not in known:")
        src.add(indent + 1, "add(h)")
        src.add(1, "return fired")
    else:
        src.add(indent, "yield slots")
    return src


def _seed_heads(src: _Source, plan) -> int:
    """Open the count kernel's loop over its head tuples, which counts
    0 for a head that contradicts a head constant or repeated variable
    and seeds each head variable's (``bound``) slot from its first
    head position; returns the loop body's indent."""
    _relation, template, fills, _positive = plan.emitters[0]
    filled = dict(fills)
    first: dict[int, int] = {}
    targets: list[str] = []
    checks: list[str] = []
    for p, value in enumerate(template):
        s = filled.get(p)
        if s is None:
            checks.append(f"h[{p}] != {src.bind(f'H_{p}', value)}")
            targets.append("_")
        elif s in first:
            checks.append(f"h[{p}] != h[{first[s]}]")
            targets.append("_")
        else:
            first[s] = p
            targets.append(f"v{s}")
    src.add(1, "counts = []")
    src.add(1, "append = counts.append")
    src.add(1, "for h in heads:")
    if checks:
        src.add(2, f"if {' or '.join(checks)}:")
        src.add(3, "append(0)\ncontinue")
    if first:
        src.add(2, f"{', '.join(targets)}{',' * (len(targets) == 1)} = h")
    src.add(2, "n = 0")
    return 2


def _negated_sets(src: _Source, plan) -> None:
    """Bind ``nset{k}`` to each negated relation's live tuple set (``()``
    when the relation is absent), for kernels that never yield."""
    for k, (relation, _template, _fills) in enumerate(plan.neg_checks):
        rel_name = src.bind(f"NR{k}", relation)
        src.add(1, f"nrel{k} = db.relation({rel_name})")
        src.add(1, f"nset{k} = () if nrel{k} is None else nrel{k}.live_set()")


def _emit_part(src: _Source, plan, restricted_index: int, fused: bool,
               slot_ref, bail: str, keep, indent: int, tally: bool,
               members: str = "rel") -> int:
    """The nested loops and filters of the body items ``keep`` admits,
    starting at ``indent``.

    Items are named as in :meth:`RulePlan._counted_parts`.  Steps come
    in join order, then the finish block: assigns, pre-checks, adom
    loops, negation probes, post-checks.  A filter outside every loop
    of the part runs ``bail``.  A fully bound step tests membership in
    ``{members}{d}``.  Returns the indent of the innermost
    block, where a match of the part is complete.  With ``tally``, a
    step over positive body literal ``i`` adds its candidates (rows
    it loops over, 1 per membership hit) to ``tally[2i]`` and the
    ones past its within-literal checks to ``tally[2i + 1]``.
    """
    in_loop = False
    for d, step in enumerate(plan.steps):
        if not keep(("step", d)):
            continue
        rows = None
        if d == restricted_index:
            # ``restricted`` is pre-grouped by group_r{d} when the step
            # has key positions, else the raw delta frozenset.
            rows = "restricted"
            if step.key_positions:
                key = _tuple_expr(_key_exprs(src, d, step, slot_ref))
                rows = f"restricted.get({key}, ())"
        elif step.exact:
            # Fully bound: a membership probe, not a loop.  ``continue``
            # statements below still behave exactly like the reference
            # matcher's single-candidate lookup exhausting.
            key = _key_tuple(src, d, step, slot_ref)
            src.add(indent, f"if {key} in {members}{d}:")
        elif _full_depth(step):
            # The root is fetched at the walk's first probe, so a walk
            # that never reaches this step never builds the chain.
            key = _key_exprs(src, d, step, slot_ref)
            ks = [key[i] for i in step.chain_perm]
            src.add(indent, f"if t{d} is None:")
            src.add(indent + 1,
                    f"t{d} = rel{d}.chain_index({step.chain_order!r}).get")
            src.add(indent, f"b{d} = {_trie_get(f't{d}', ks)}")
            src.add(indent, f"if b{d}:")
            indent += 1
            rows = f"b{d}" if fused else f"list(b{d})"
        elif step.chain_order is not None:
            # A prefix probe: probe_chain collects a fresh list.
            chain_key = _key_tuple(src, d, step, slot_ref, step.chain_perm)
            rows = (f"rel{d}.probe_chain({step.chain_order!r}, "
                    f"{step.chain_depth}, {chain_key})")
        else:
            rows = f"rel{d}" if fused else f"list(rel{d})"
        at = 2 * plan.order[d]
        if rows is not None:
            if tally:
                src.add(indent, f"s{d} = {rows}\ntally[{at}] += len(s{d})")
                if not step.withins:
                    src.add(indent, f"tally[{at + 1}] += len(s{d})")
                rows = f"s{d}"
            src.add(indent, f"for c{d} in {rows}:")
            in_loop = True
        indent += 1
        if tally and rows is None:
            src.add(indent, f"tally[{at}] += 1\ntally[{at + 1}] += 1")
        for p2, p1 in step.withins:
            src.add(indent, f"if c{d}[{p2}] != c{d}[{p1}]:")
            src.add(indent + 1, "continue")
        if tally and step.withins:
            src.add(indent, f"tally[{at + 1}] += 1")
        for position, s in step.binds:
            src.add(indent, f"{slot_ref(s)} = c{d}[{position}]")

    # -- the finish block (assigns, checks, adom, residuals) ----------
    fail = "continue" if in_loop else bail
    for j, (dst, source_slot, value) in enumerate(plan.assigns):
        if not keep(("assign", j)):
            continue
        rhs = slot_ref(source_slot) if source_slot is not None \
            else src.bind(f"A{j}", value)
        src.add(indent, f"{slot_ref(dst)} = {rhs}")

    def emit_checks(checks, prefix: str, kind: str) -> None:
        # At most one side of a check is a constant: the plan folds
        # constant-constant checks away when it is built.
        for j, (ls, lc, rs, rc, positive) in enumerate(checks):
            if not keep((kind, j)):
                continue
            name = f"{prefix}{j}"
            left = slot_ref(ls) if ls is not None else src.bind(name, lc)
            right = slot_ref(rs) if rs is not None else src.bind(name, rc)
            op = "!=" if positive else "=="
            src.add(indent, f"if {left} {op} {right}:")
            src.add(indent + 1, fail)

    emit_checks(plan.pre_checks, "P", "pre")
    for j, s in enumerate(plan.unbound_slots):
        if not keep(("adom", j)):
            continue
        if fused:
            src.add(indent, f"for v{s} in adom:")
        else:
            src.add(indent, f"for e{j} in adom:")
        indent += 1
        if not fused:
            src.add(indent, f"slots[{s}] = e{j}")
        fail = "continue"
    for k, (relation, template, fills) in enumerate(plan.neg_checks):
        if not keep(("neg", k)):
            continue
        probe = _template_expr(src, f"N{k}", template, fills, slot_ref)
        if fused:
            src.add(indent, f"if {probe} in nset{k}:")
        else:
            src.add(indent, f"if db.has_fact({src.bind(f'NR{k}', relation)}, "
                            f"{probe}):")
        src.add(indent + 1, fail)
    emit_checks(plan.post_checks, "Q", "post")
    return indent


def _batches(plan, restricted_index: int) -> bool:
    """Whether the variant has a batch kernel (see :func:`_emit_batch`)."""
    steps = plan.steps
    if not steps or plan.bound or restricted_index > 0:
        return False
    if restricted_index == 0:
        first = plan.rule.positive_body()[plan.order[0]]
        return not steps[0].key_fills and bool(first.terms)
    # A comprehension needs at least one for clause.
    return bool(plan.unbound_slots) or not all(step.exact for step in steps)


def _emit_batch(plan, restricted_index: int, kind: str) -> _Source:
    """One batch (whole-delta) kernel of a shape :func:`_batches` admits.

    The batch variants consume an entire delta block in one
    call — rows unpacked straight into named locals, each chain root's
    ``.get`` hoisted out of the loop, full-depth chain probes inlined
    as trie walks (:func:`_trie_get`).  The walk flavor builds its row
    list with a single list comprehension (``LIST_APPEND``-driven, no
    per-row generator resume); the fused flavor runs the same clause
    chain as a nested block loop dedup-ing head tuples into a local
    set — self-joins fire the same head many times over — and hands
    the survivors to ``out``, the head relation's set of the pass.

    When the innermost clause is a keyed probe whose rows reach the
    head, ``emit_batch_*`` returns ``None`` for a call whose probed
    chain has no counts yet or a mean bucket (``len(rel)`` over its
    distinct keys at the probe depth) of :data:`GROUP_MIN_BUCKET` rows
    or more, and the dispatch reruns it in the grouped variants
    (:mod:`~repro.semantics.codegen_grouped`); under that, grouping
    costs more than it saves (a fan-out of 2, say).  The innermost
    probe is then the last step's.

    Batched shapes: ≥ 1 step, unbound plans only (seeded slots have no
    local to live in), the fused restricted variant only for the leading
    occurrence (the planner compiles delta-first orders, so that is the
    hot case; other variants fall back to the scalar walk at dispatch),
    and the walk flavor only for the full pass.
    Unlike the scalar flavors nothing here snapshots buckets: a batch
    call materializes its whole result before the caller sees any row,
    so no consumer can mutate the relation mid-walk.
    """
    steps = plan.steps
    positive = plan.rule.positive_body()
    arities = [len(positive[i].terms) for i in plan.order]
    suffix = "full" if restricted_index < 0 else f"r{restricted_index}"
    fused = kind != "walk_batch"
    params = "db, adom, out" if fused else "db, adom"
    if restricted_index >= 0:
        params += ", rows"
    if fused:
        # The head relation's live set, or ``()`` (see run_emit_batch).
        params += ", known"
    src = _Source(f"{kind}_{suffix}", params)
    bail = "return 0" if fused else "return []"

    prologue: list[str] = []
    guards: list[str] = []
    clauses: list[str] = []
    slot_expr: dict[int, str] = {}
    ref = slot_expr.__getitem__
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

    for d, step in enumerate(steps):
        if d == restricted_index:
            clauses.append(f"for {targets(d)} in rows")
            last_for = (len(clauses) - 1, d)
            has_for = True
            # The scalar variant groups the delta by the (constant) key
            # and probes once; filtering the unpacked rows yields the
            # same subsequence in the same order.
            key = _key_exprs(src, d, step, ref)
            for j, p in enumerate(step.key_positions):
                clauses.append(f"if {cand_name(d, p)} == {key[j]}")
        elif step.exact:
            cond(f"{_key_tuple(src, d, step, ref)} in rel{d}")
        elif step.chain_order is not None:
            key = _key_exprs(src, d, step, ref)
            ks = [key[i] for i in step.chain_perm]
            if _full_depth(step):
                prologue.append(
                    f"g{d} = rel{d}.chain_index({step.chain_order!r}).get"
                )
                expr = _trie_get(f"g{d}", ks) + " or ()"
            else:
                chain_key = _key_tuple(src, d, step, ref, step.chain_perm)
                prologue.append(f"p{d} = rel{d}.probe_chain")
                expr = (f"p{d}({step.chain_order!r}, {step.chain_depth}, "
                        f"{chain_key})")
            clauses.append(f"for {targets(d)} in {expr}")
            if arities[d]:
                probe_info[d] = (
                    expr, ks[0] if len(ks) == 1 else _tuple_expr(ks)
                )
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
    for j, (dst, source_slot, value) in enumerate(plan.assigns):
        slot_expr[dst] = (
            slot_expr[source_slot] if source_slot is not None
            else src.bind(f"A{j}", value)
        )

    def batch_checks(checks, prefix: str) -> None:
        for j, (ls, lc, rs, rc, positive_check) in enumerate(checks):
            name = f"{prefix}{j}"
            left = slot_expr[ls] if ls is not None else src.bind(name, lc)
            right = slot_expr[rs] if rs is not None else src.bind(name, rc)
            op = "==" if positive_check else "!="
            cond(f"{left} {op} {right}")

    batch_checks(plan.pre_checks, "P")
    for s in plan.unbound_slots:
        clauses.append(f"for v{s} in adom")
        slot_expr[s] = f"v{s}"
        has_for = True
    for k, (_relation, template, fills) in enumerate(plan.neg_checks):
        probe = _template_expr(src, f"N{k}", template, fills, ref)
        cond(f"{probe} not in nset{k}")
    batch_checks(plan.post_checks, "Q")

    for d, step in enumerate(steps):
        if d == restricted_index:
            continue
        rel_name = src.bind(f"R{d}", step.relation)
        src.add(1, f"rel{d} = db.relation({rel_name})")
        src.add(1, f"if rel{d} is None:")
        src.add(2, bail)
    _negated_sets(src, plan)
    for line in prologue:
        src.add(1, line)
    for guard in guards:
        src.add(1, f"if not ({guard}):")
        src.add(2, bail)
    if not fused:
        # The walk variant's whole product is the row list, so the
        # comprehension's C-level appends are the fastest way to
        # build it (the scalar walk is a per-row generator resume).
        src.add(1, "res = [")
        src.add(2, _tuple_expr([slot_expr[s] for s in range(plan.n_slots)]))
        for clause in clauses:
            src.add(2, clause)
        src.add(1, "]")
        src.add(1, "return res")
        return src

    relation, template, fills, _positive = plan.emitters[0]
    d_last = last_for[1] if last_for is not None else -1
    # An all-constant head has no expression over the last step, so it
    # cannot use the cache (and must not bind its positions one by one).
    cacheable = (
        bool(fills)
        and last_for is not None
        and last_for[0] == len(clauses) - 1
        and d_last in probe_info
        and d_last != restricted_index
    )
    if cacheable:
        head_exprs = _template_exprs(src, "H", template, fills, ref)
        is_inner = [
            any(
                re.search(rf"\b{cand_name(d_last, p)}\b", e)
                for p in range(arities[d_last])
            )
            for e in head_exprs
        ]
        cacheable = any(is_inner)
    if kind != "emit_batch" and not cacheable:
        # Only a batch kernel that can hand a call on has these.
        raise KeyError(f"{kind}_{suffix}")
    src.add(1, "fired = 0")
    if kind != "emit_batch":
        # Imported on the first grouped build: most programs never group.
        from repro.semantics.codegen_grouped import emit_grouped

        emit_grouped(src, steps[d_last], d_last, clauses, probe_info[d_last],
                     [cand_name(d_last, p) for p in range(arities[d_last])],
                     head_exprs, is_inner, relation, kind == "emit_grouped")
        return src
    if cacheable:
        # Long buckets, or no counts yet: the call is the grouped
        # variant's (``None`` hands it on).
        _estimate(src, steps[d_last], d_last)
        src.add(1, f"if n is None or len(rel{d_last}) >= "
                   f"{GROUP_MIN_BUCKET} * n:\n    return None")
    element = _template_expr(src, "H", template, fills, ref)
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
    src.add(2, "out.update(seen)")
    src.add(1, "return fired")
    return src


def _estimate(src: _Source, step, d: int) -> None:
    """Bind ``n`` to the probed chain's live distinct-key count at the
    probe depth (``None`` while the chain is not built)."""
    positions = src.bind(
        f"KS{d}", frozenset(step.chain_order[:step.chain_depth])
    )
    src.add(1, f"n = rel{d}.distinct_estimate({positions})")


def _emit_group(plan, index: int) -> _Source:
    """The delta grouping of a restricted walk, key positions baked in."""
    key = _tuple_expr([f"t[{p}]" for p in plan.steps[index].key_positions])
    src = _Source(f"group_r{index}", "restricted")
    src.add(1, "grouped = {}")
    src.add(1, "for t in restricted:")
    src.add(2, f"k = {key}")
    src.add(2, "g = grouped.get(k)")
    src.add(2, "if g is None:")
    src.add(3, "grouped[k] = [t]")
    src.add(2, "else:")
    src.add(3, "g.append(t)")
    src.add(1, "return grouped")
    return src


def _emit(plan, name: str) -> _Source:
    """The source of variant ``name`` (``walk_r1``, ``emit_batch_full``…)."""
    kind, _, variant = name.rpartition("_")
    restricted_index = -1 if variant == "full" else int(variant[1:])
    if kind == "group":
        return _emit_group(plan, restricted_index)
    if kind in _BATCH_KINDS:
        return _emit_batch(plan, restricted_index, kind)
    return _emit_variant(plan, restricted_index, kind)


class Kernel:
    """One built variant of a plan.

    ``source`` is the exact text compiled (shared by every plan of the
    same shape), ``bindings`` the values this plan gives its default
    arguments, and ``function`` what the plan's table calls.
    """

    __slots__ = ("source", "bindings", "function")

    def __init__(self, source: str, bindings: dict[str, Hashable],
                 function) -> None:
        self.source = source
        self.bindings = bindings
        self.function = function


class CodegenPlan:
    """One plan's kernel table, each variant built on its first call.

    ``run``/``run_emit``/``run_emit_batch``/``run_walk_batch``/
    ``run_count`` take the arguments ``RulePlan`` dispatches with (minus
    the head spec, which is bound — callers verify it against
    ``head_relation``/``head_fills`` before dispatching).  A variant the
    plan has no use for (no batch shape, no single positive head, no
    key to group by, a head variable not ``bound``) is ``None`` in its
    table; a plan with head-free parts fills its
    fused table with ``emit_factored_*`` variants and has no batch
    emits.  ``kernels`` holds the variants built so far, in the order
    they first ran.
    """

    __slots__ = (
        "plan",
        "n_slots",
        "head_relation",
        "head_fills",
        "kernels",
        "_entries",
        "_walks",
        "_emits",
        "_groups",
        "_batch_emits",
        "_batch_walks",
        "_grouped",
        "_unions",
        "_counts",
        "tallies",
    )

    def __init__(self, plan) -> None:
        self.plan = plan
        self.n_slots = plan.n_slots
        self.kernels: dict[str, Kernel] = {}
        #: name → (table, index) of each variant the plan has.
        self._entries: dict[str, tuple[list, int]] = {}
        steps = plan.steps
        variants = ["full", *(f"r{i}" for i in range(len(steps)))]
        self._walks = self._table("walk", variants)
        self._groups = self._table("group", [
            f"r{i}" if step.key_positions else None
            for i, step in enumerate(steps)
        ])
        self._batch_walks = self._table(
            "walk_batch", ["full" if _batches(plan, -1) else None]
        )
        emitters = plan.emitters
        if (emitters is not None and len(emitters) == 1 and emitters[0][3]
                and not plan.bound):
            # A body with head-free parts runs its factored variants at
            # every delta size, with no batch emits.  Where those parts
            # are large (Example 4.3's witness) that is the whole gain;
            # where they are one row, or the head part never matches,
            # the scalar head walk can cost up to 15% more than the
            # joined plan's batch kernel on deltas of 256-2048 rows.
            factored = bool(plan.counted)
            self._emits = self._table(
                "emit_factored" if factored else "emit", variants
            )
            batched = [
                variant if not factored and _batches(plan, r) else None
                for variant, r in (("full", -1), ("r0", 0))
            ]
            self._batch_emits = self._table("emit_batch", batched)
            # Built only when a batch kernel hands them a call.
            self._grouped = self._table("emit_grouped", batched)
            self._unions = self._table("emit_union", batched)
            self.head_relation = emitters[0][0]
            self.head_fills = emitters[0][2]
        else:
            self._emits = self._batch_emits = None
            self._grouped = self._unions = None
            self.head_relation = self.head_fills = None
        # The support probes' plans: every head variable ``bound``.
        seeded = (
            emitters is not None and len(emitters) == 1 and emitters[0][3]
            and all(s < len(plan.bound) for _p, s in emitters[0][2])
        )
        self._counts = self._table("count", ["full"]) if seeded else None
        #: The traced twins' tables (:mod:`~repro.semantics.codegen_traced`).
        self.tallies = None

    def _table(self, kind: str, variants: list) -> list:
        table: list = []
        for index, variant in enumerate(variants):
            if variant is None:
                table.append(None)
                continue
            name = f"{kind}_{variant}"
            self._entries[name] = (table, index)
            table.append(self._stub(name))
        return table

    def _stub(self, name: str):
        def first_call(*args):
            return self.kernel(name).function(*args)
        return first_call

    def kernel(self, name: str) -> Kernel:
        """Variant ``name``, built now if it has not run yet.

        Raises ``KeyError`` for a variant this plan does not have.
        """
        kernel = self.kernels.get(name)
        if kernel is None:
            table, index = self._entries[name]
            kernel = self.kernels[name] = compile_plan(self.plan, name)
            table[index] = kernel.function
        return kernel

    def run(self, db, adom, restricted_index: int, restricted) -> Iterator:
        """The generator walk: every match as the (reused) slot list."""
        slots = [None] * self.n_slots
        if restricted_index < 0:
            return self._walks[0](db, adom, slots)
        group = self._groups[restricted_index]
        if group is not None:
            restricted = group(restricted)
        return self._walks[restricted_index + 1](
            db, adom, slots, restricted
        )

    def run_emit(self, db, adom, restricted_index: int, restricted,
                 out: set, known=()) -> int:
        """The scalar fused walk (factored for a plan with head-free
        parts); returns firings.  A head in ``known`` is skipped."""
        emit = self._emits[restricted_index + 1]
        if restricted_index < 0:
            return emit(db, adom, out.add, known)
        group = self._groups[restricted_index]
        if group is not None:
            restricted = group(restricted)
        return emit(db, adom, out.add, restricted, known)

    def run_count(self, db, adom, heads: list) -> list[int]:
        """Each head tuple's number of body valuations (``count_full``)."""
        if self._counts is None:
            raise ValueError("count_heads needs every head variable bound")
        return self._counts[0](db, adom, heads)

    @staticmethod
    def _rows(restricted) -> tuple:
        """A delta's rows in its enumeration order (block fast path)."""
        rows = getattr(restricted, "rows", None)
        return rows if rows is not None else tuple(restricted)

    # Delta blocks below this row count run the scalar fused walk: the
    # batch kernels' per-call machinery (head lookups, negated sets,
    # dedup set, flatten) only amortizes over enough rows, and
    # fixpoints with many tiny stages would otherwise pay it hundreds
    # of times for single-row deltas.  A batch kernel that can group
    # then picks its loop per call (:data:`GROUP_MIN_BUCKET`).  Every
    # choice derives the same facts and counts the same firings, so
    # each is invisible to everything but the clock.
    BATCH_MIN_ROWS = 8

    def run_emit_batch(self, db, adom, restricted_index: int, restricted,
                       out: set, add_only: bool) -> int:
        """Fused dispatch: batch kernel or scalar fallback.

        Variants without a batch shape (delta at a non-leading
        occurrence, no loopable step, …) and deltas smaller than
        :data:`BATCH_MIN_ROWS` drop to :meth:`run_emit` — same
        firings, same facts.  A plan with head-free parts has no batch
        variants, so every pass of it runs its factored variant there.

        ``add_only`` (an add-only fixpoint caller, see
        ``RulePlan.run_emit``) hands the batch kernel the head
        relation's live tuple set to subtract before flattening —
        semi-naive's difference, one bulk op instead of a per-fact
        membership probe downstream — and the scalar fused walk the
        same set, whose heads it skips.  Otherwise the consequence set
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
        known: set | tuple = ()
        if add_only:
            hrel = db.relation(self.head_relation)
            if hrel is not None:
                known = hrel.live_set()
        if fn is None:
            return self.run_emit(db, adom, restricted_index, restricted, out,
                                 known)
        if restricted_index < 0:
            args = (db, adom, out, known)
        else:
            args = (db, adom, out, self._rows(restricted), known)
        fired = fn(*args)
        if fired is None:
            # Long buckets or no counts, unless the probed relation (the
            # last step's) is empty: then nothing fires, and no grouped
            # variant is built for it.  Otherwise the bitset variant, or
            # past its budget the set union (see
            # ``codegen_grouped.emit_grouped``).
            if not db.relation(self.plan.steps[-1].relation):
                return 0
            fired = self._grouped[restricted_index + 1](*args)
            if fired is None:
                fired = self._unions[restricted_index + 1](*args)
        return fired

    def run_walk_batch(self, db, adom,
                       restricted_index: int) -> "list[tuple] | None":
        """Every match of the full pass as a materialized slot row, or
        ``None`` when the variant has no batch kernel (a restricted
        pass, or no loopable step); the caller then falls back to the
        generator walk."""
        fn = self._batch_walks[0]
        if restricted_index >= 0 or fn is None:
            return None
        return fn(db, adom)


def compile_plan(plan, name: str) -> Kernel:
    """Build variant ``name`` of ``plan``'s kernel table.

    ``name`` is one of the plan's variants (``"walk_full"``,
    ``"emit_batch_r0"``, …; see the module docstring).  The variant is
    emitted, its text compiled unless some plan already compiled the
    same text since the last :func:`clear_shapes`, and the code bound
    to this plan's values.
    Every emission and every ``compile()`` of an evaluation happens in
    here, and the returned :class:`Kernel` keeps the emitted text as
    ``.source``, so a caller timing this function times codegen.
    """
    src = _emit(plan, name)
    source = src.text()
    code = _SHAPES.get(source)
    if code is None:
        code = _SHAPES[source] = _compile(source, name)
    values = tuple(src.bindings.values())
    function = FunctionType(code, _GLOBALS, name, values or None)
    return Kernel(source, src.bindings, function)


def _compile(source: str, name: str) -> CodeType:
    """Compile one kernel text, registered in linecache while it lives."""
    filename = f"<codegen-{next(_SEQ)}: {name}>"
    (code,) = [
        const for const in compile(source, filename, "exec").co_consts
        if isinstance(const, CodeType)
    ]
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    finalize(code, linecache.cache.pop, filename, None)
    return code


def clear_shapes() -> None:
    """Empty the shape table, so the next kernel compiles its text anew.

    Kernels already built keep their code, and its :mod:`linecache`
    entry, for as long as they live.
    """
    _SHAPES.clear()


def _dump_name(rule_index: int, plan) -> str:
    """A plan's dump file stem: rule index, join order, bound variables."""
    order = "_".join(map(str, plan.order)) if plan.order else "empty"
    name = f"rule{rule_index}_order_{order}"
    if plan.bound:
        name += "_bound_" + "_".join(v.name for v in plan.bound)
    return name


def _dump_text(plan) -> str:
    """One dump file: a header naming the rule and join order and binding
    every value as a Python assignment, then the exact text of each
    variant the plan built, in the order they first ran."""
    kernels = list(plan.codegen_fns.kernels.values())
    bindings: dict[str, Hashable] = {}
    for kernel in kernels:
        bindings.update(kernel.bindings)
    rule_text = " ".join(str(plan.rule).split())
    header = [
        f"# codegen for rule: {rule_text}",
        f"# join order: {plan.order!r}   slots: "
        + " ".join(f"{v.name}={s}" for v, s in plan.out_vars),
        "",
        *_GLOBAL_LINES,
        *(f"{name} = {value!r}" for name, value in bindings.items()),
        "",
        "",
    ]
    return "\n".join(header) + "\n".join(k.source for k in kernels)


def dump_codegen(program, directory: str) -> list[str]:
    """Write the kernels of every plan the program ran, one file per plan.

    Plans are each rule's cached plans (:func:`~repro.semantics.plan.
    cached_plans`): the planner's, the differential engine's bound
    plans, and the plans whose steps probe shared chains of the
    planner's cover.  A file is named by rule index, join order and
    bound variables; a plan that probes shared chains adds ``_cover{k}``,
    numbered densely per name in the order the plans were built.  A file
    holds each variant the plan built (so ran), behind a header that
    binds every value the variants read: executing the file defines the
    functions that ran, with the same bytecode.  Nothing new is built
    unless no plan of the program ever ran; then each rule's cached
    plans — or its source-order plan — build their ``walk_full`` so the
    dump still shows the code a run generates.  Returns the written
    paths.  Debug tooling for ``repro run --dump-codegen``.
    """
    import os
    from collections import defaultdict

    from repro.semantics.plan import cached_plans, plan_for

    ran = [
        (i, plan)
        for i, rule in enumerate(program.rules)
        for plan in cached_plans(rule)
        if plan.codegen_fns is not None and plan.codegen_fns.kernels
    ]
    if not ran:
        for i, rule in enumerate(program.rules):
            plans = cached_plans(rule) or [
                plan_for(rule, tuple(range(len(rule.positive_body()))))
            ]
            for plan in plans:
                plan.compiled().kernel("walk_full")
                ran.append((i, plan))

    os.makedirs(directory, exist_ok=True)
    covers: defaultdict[str, Iterator[int]] = defaultdict(itertools.count)
    paths: list[str] = []
    for i, plan in ran:
        stem = _dump_name(i, plan)
        if plan.chains:
            stem += f"_cover{next(covers[stem])}"
        path = os.path.join(directory, f"{stem}.py")
        with open(path, "w") as handle:
            handle.write(_dump_text(plan))
        paths.append(path)
    return paths
