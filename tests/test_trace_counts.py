"""The traced kernels count what the reference join counts.

A traced run's rule spans carry, per positive body literal, the
candidates its join step considered (bucket, prefix probe, scan or
delta group; 1 on a membership hit) and the matches that passed the
literal's within checks.  Those counts come from the counting twins of
the production kernels (:mod:`repro.semantics.codegen_traced`).  Here
they must equal a count made on the test side with the reference
matcher's own lookup (``_literal_candidates`` / ``_extend_valuation``)
under the same join order: for every rule of the shared differential
generator's programs, every join order, the full pass and each
delta-restricted pass, in both the generator and the fused flavor; and
for ``iter_matches`` under its greedy order.

Two kinds of plan are left out, each a documented divergence: a plan
that reads an absent relation (its kernels return at walk start, so
earlier steps count nothing) and a factored plan (its head-free parts
are counted once per call, which is what runs).
"""

import itertools
import random

import pytest

from repro.obs import RuleSpan, Tracer
from repro.parser import parse_program
from repro.semantics import codegen_traced
from repro.semantics.base import (
    _extend_valuation,
    _literal_candidates,
    _order_positive_indices,
    evaluation_adom,
    iter_matches,
)
from repro.semantics.plan import make_delta, plan_for
from repro.semantics.seminaive import evaluate_datalog_seminaive
from tests.test_differential_engines import random_program_and_database


def reference_counts(rule, order, db, restricted_at=-1, restricted=None):
    """``[candidates, matches]`` per positive body literal, flattened,
    of the reference join under ``order``; the step at
    ``restricted_at`` draws its candidates from ``restricted``."""
    literals = rule.positive_body()
    counts = [0] * (2 * len(literals))
    valuation: dict = {}

    def descend(d: int) -> None:
        if d == len(order):
            return
        i = order[d]
        candidates, free = _literal_candidates(
            literals[i], db, valuation,
            restricted if d == restricted_at else None,
        )
        counts[2 * i] += len(candidates)
        for _ in _extend_valuation(candidates, free, valuation):
            counts[2 * i + 1] += 1
            descend(d + 1)

    descend(0)
    return counts


def traced_counts(plan, db, adom, restricted_at=-1, restricted=None):
    """The counting twins' tallies for one plan run: the generator walk
    and, when the plan has one, the fused walk (which must agree)."""
    walk = [0] * (2 * len(plan.rule.positive_body()))
    for _ in codegen_traced.walk(plan, db, adom, restricted_at, restricted,
                                 walk):
        pass
    if plan.compiled()._emits is not None:
        fused = [0] * len(walk)
        codegen_traced.emit(plan, db, adom, restricted_at, restricted, set(),
                            False, fused)
        assert fused == walk
    return walk


def cases(seed):
    """(program, database) with every idb relation filled by the minimum
    model, so most plans read only present relations."""
    source, db = random_program_and_database(random.Random(seed))
    program = parse_program(source, name=f"counts-{seed}")
    return program, evaluate_datalog_seminaive(program, db).database


def half(rows):
    """A deterministic half of a relation's rows, as a frozen delta."""
    return make_delta(sorted(rows, key=repr)[::2])


def plans_to_check(program, db):
    for rule in program.rules:
        literals = rule.positive_body()
        if any(db.relation(lit.relation) is None for lit in literals):
            continue  # the kernels return at walk start
        for order in itertools.permutations(range(len(literals))):
            plan = plan_for(rule, order)
            if not plan.counted:
                yield plan


@pytest.mark.parametrize("seed", range(200))
def test_plan_counts_equal_the_reference_join(seed):
    program, db = cases(seed)
    adom = evaluation_adom(program, db)
    for plan in plans_to_check(program, db):
        rule, order = plan.rule, plan.order
        assert traced_counts(plan, db, adom) == reference_counts(
            rule, order, db
        ), (str(rule), order)
        for d, step in enumerate(plan.steps):
            delta = half(db.tuples(step.relation))
            if not delta:
                continue
            assert traced_counts(plan, db, adom, d, delta) == (
                reference_counts(rule, order, db, d, delta)
            ), (str(rule), order, d)


@pytest.mark.parametrize("seed", range(200))
def test_iter_matches_counts_equal_the_reference_join(seed):
    program, db = cases(seed)
    adom = evaluation_adom(program, db)
    for rule in program.rules:
        literals = rule.positive_body()
        if any(db.relation(lit.relation) is None for lit in literals):
            continue
        order = tuple(_order_positive_indices(list(literals), db))
        delta = {lit.relation: half(db.tuples(lit.relation))
                 for lit in literals}
        for restrict in (None, delta):
            span = RuleSpan(Tracer(), 0, rule)
            for _ in iter_matches(rule, db, adom, restrict, span=span):
                pass
            expected = [0] * (2 * len(literals))
            if restrict is None:
                expected = reference_counts(rule, order, db)
            else:
                for d, i in enumerate(order):
                    if restrict.get(literals[i].relation):
                        occurrence = reference_counts(
                            rule, order, db, d, restrict[literals[i].relation]
                        )
                        expected = [a + b for a, b in zip(expected, occurrence)]
            assert span.orders == [order]
            assert span.counts == expected, str(rule)
