"""The traced dispatch: a plan's scalar kernels, counting as they join.

A traced run makes every decision an untraced run makes — join orders,
chain cover, ``add_only``, the planner report — and differs only in the
kernel each plan run calls: the ``*_tally`` twin of the plan's scalar
walk (``walk_tally_*``), fused walk (``emit_tally_*``) or factored walk
(``emit_factored_tally_*``), whose text is the untraced variant's plus
the counting lines (:func:`repro.semantics.codegen._emit_part`).  Each
twin takes a ``tally`` list and adds the candidates of positive body
literal ``i`` to ``tally[2i]`` and its matches to ``tally[2i + 1]``:
a rule span's counts are keyed by body literal, whichever join order
ran.  The batch kernels have no twin, so a traced pass always runs the
scalar one; heads and firings are the same.

The twins sit in their plan's :class:`~repro.semantics.codegen.
CodegenPlan` as tables of their own (``tallies``), registered on the
plan's first traced call and built variant by variant on first call,
like every other variant.  This module is imported only then, so an
untraced run never compiles it.
"""

from __future__ import annotations

from typing import Iterator


def _compiled(plan):
    """The plan's kernel table, with the twins' tables registered."""
    fns = plan.compiled()
    if fns.tallies is None:
        variants = ["full", *(f"r{i}" for i in range(len(plan.steps)))]
        fused = "emit_factored" if plan.counted else "emit"
        fns.tallies = (
            fns._table("walk_tally", variants),
            None if fns._emits is None
            else fns._table(f"{fused}_tally", variants),
        )
    return fns


def _grouped(fns, restricted_index: int, restricted):
    """The delta as the restricted variant reads it (see
    :meth:`CodegenPlan.run`)."""
    group = fns._groups[restricted_index]
    return restricted if group is None else group(restricted)


def walk(plan, db, adom, restricted_index: int, restricted,
         tally: list[int]) -> Iterator[list]:
    """:meth:`CodegenPlan.run`, counted into ``tally``."""
    fns = _compiled(plan)
    walks = fns.tallies[0]
    slots = [None] * fns.n_slots
    if restricted_index < 0:
        return walks[0](db, adom, slots, tally)
    return walks[restricted_index + 1](
        db, adom, slots, _grouped(fns, restricted_index, restricted), tally
    )


def emit(plan, db, adom, restricted_index: int, restricted, out: set,
         add_only: bool, tally: list[int]) -> int:
    """:meth:`CodegenPlan.run_emit_batch`, counted into ``tally``: the
    scalar fused (or factored) walk at every delta size, with the same
    ``known`` heads skipped."""
    fns = _compiled(plan)
    emits = fns.tallies[1]
    known: set | tuple = ()
    if add_only:
        hrel = db.relation(fns.head_relation)
        if hrel is not None:
            known = hrel.live_set()
    if restricted_index < 0:
        return emits[0](db, adom, out.add, known, tally)
    return emits[restricted_index + 1](
        db, adom, out.add, _grouped(fns, restricted_index, restricted),
        known, tally,
    )


def iter_slot_matches(plan, db, adom, delta, tally: list[int]) -> Iterator[list]:
    """:meth:`RulePlan.iter_slot_matches`, counted into ``tally``."""
    if plan.never:
        return
    if delta is None:
        yield from walk(plan, db, adom, -1, None, tally)
    else:
        for index, step in enumerate(plan.steps):
            restricted = delta.get(step.relation)
            if restricted:
                yield from walk(plan, db, adom, index, restricted, tally)
