"""The two loops of a fused batch kernel, and known heads in the
scalar fused and factored kernels.

A fused batch kernel whose innermost clause is a keyed probe reaching
the head holds two loops: the grouped loop, which caches each distinct
key's projection and adds it per outer row with one ``set.update``, and
the plain per-firing loop.  Each call picks one from the probed chain's
live mean bucket size (``len(rel)`` over its distinct keys at the probe
depth): the grouped loop at or above ``codegen.GROUP_MIN_BUCKET`` and
while the chain is not built yet, the plain loop below it.  Either loop
must give the reference matcher's heads and firings.
"""

import random

import pytest

from repro.parser import parse_program
from repro.relational.instance import Database, Relation
from repro.semantics import codegen
from repro.semantics.base import instantiate_head, reference_matches
from repro.semantics.codegen import CodegenPlan
from repro.semantics.inflationary import evaluate_inflationary
from repro.semantics.plan import make_delta, plan_for

RULE = "H(x, z) :- D(x, y), E(y, z)."

#: (relation size, distinct keys at position 0): a mean bucket of 1.5
#: rows and one of 80 rows.
SHORT = (300, 200)
LONG = (320, 4)

#: Step 1 (``E``) probes its identity chain at full depth, or the chain
#: (0, 1) at depth 1: a prefix probe, whose chain no call has built.
PROBES = {"full_depth": None, "prefix": (None, ((0, 1), 1))}


def e_facts(size: int, keys: int, rng: random.Random) -> list[tuple]:
    rows = [(f"k{i % keys}", f"v{i}") for i in range(size)]
    rng.shuffle(rows)
    return rows


def mean_bucket(db: Database) -> float:
    """``E``'s mean bucket at position 0, from its chain statistics."""
    rel = db.relation("E")
    return len(rel) / rel.distinct_estimate(frozenset({0}))


def reference(rule, db, delta):
    """(heads, firings) of one pass by the reference matcher, run on a
    copy so that the chains it builds stay out of ``db``."""
    heads, firings = set(), 0
    for valuation in reference_matches(rule, db.copy(), (), delta):
        firings += 1
        for relation, t, _positive in instantiate_head(rule, valuation):
            heads.add((relation, t))
    return heads, firings


def run(plan, db, restricted_index, delta_rows, add_only):
    out: set = set()
    relation, template, fills, _positive = plan.emitters[0]
    restricted = None if delta_rows is None else make_delta(delta_rows)
    fired = plan.run_emit(db, (), restricted_index, restricted, relation,
                          template, fills, out, add_only)
    return out, fired


@pytest.mark.parametrize("shape", [SHORT, LONG], ids=["short", "long"])
@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("add_only", [False, True])
def test_batch_loops_match_the_reference(shape, probe, add_only):
    rng = random.Random(7)
    size, keys = shape
    (rule,) = parse_program(RULE).rules
    plan = plan_for(rule, (0, 1), chains=PROBES[probe])
    d_rows = [(f"x{i}", f"k{rng.randrange(keys + 2)}") for i in range(40)]
    db = Database({"E": e_facts(size, keys, rng), "D": d_rows[:20]})
    db.ensure_relation("H", 2)
    expected_all, _ = reference(rule, db, None)
    # Known heads, so that add-only callers have something to drop.
    for _relation, t in sorted(expected_all)[::3]:
        db.relation("H").add(t)
    known = {("H", t) for t in db.relation("H")}
    assert db.relation("E").live_indexes() == []
    for rows in (d_rows[:20], d_rows[20:], d_rows):
        assert len(rows) >= CodegenPlan.BATCH_MIN_ROWS
        delta = {"D": frozenset(rows)}
        heads, firings = reference(rule, db, delta)
        out, fired = run(plan, db, 0, rows, add_only)
        assert fired == firings
        assert out == (heads - known if add_only else heads)
    heads, firings = reference(rule, db, None)
    out, fired = run(plan, db, -1, None, add_only)
    assert (out, fired) == (heads - known if add_only else heads, firings)
    assert {"emit_batch_r0", "emit_batch_full"} <= set(
        plan.codegen_fns.kernels
    )
    # The two relations fall on opposite sides of the choice.
    if shape is SHORT:
        assert 1 <= mean_bucket(db) <= 2 < codegen.GROUP_MIN_BUCKET
    else:
        assert mean_bucket(db) >= 64 >= codegen.GROUP_MIN_BUCKET


def test_unbuilt_prefix_chain_takes_the_grouped_loop(monkeypatch):
    """The first call of a prefix probe finds no chain counts; the call
    after it finds them, and a short bucket then takes the plain loop."""
    rng = random.Random(3)
    (rule,) = parse_program(RULE).rules
    plan = plan_for(rule, (0, 1), chains=PROBES["prefix"])
    db = Database({"E": e_facts(*SHORT, rng), "D": [("x", "k0")]})
    estimates = []
    estimate = Relation.distinct_estimate

    def spy(self, positions):
        value = estimate(self, positions)
        estimates.append(value)
        return value

    monkeypatch.setattr(Relation, "distinct_estimate", spy)
    rows = [(f"x{i}", f"k{i}") for i in range(CodegenPlan.BATCH_MIN_ROWS)]
    first, _ = run(plan, db, 0, rows, add_only=False)
    second, _ = run(plan, db, 0, rows, add_only=False)
    assert first == second == reference(rule, db, {"D": frozenset(rows)})[0]
    assert estimates == [None, SHORT[1]]
    assert db.relation("E").live_indexes() == [(0, 1)]


def test_kernel_text_holds_both_loops():
    (rule,) = parse_program(RULE).rules
    plan = plan_for(rule, (0, 1))
    source = plan.compiled().kernel("emit_batch_r0").source
    assert "cache = {}" in source and "fired += 1" in source
    assert f">= {codegen.GROUP_MIN_BUCKET} * n" in source


@pytest.mark.parametrize("add_only", [False, True])
@pytest.mark.parametrize("restricted_index", [0, 1])
def test_scalar_kernels_skip_known_heads_under_add_only(add_only,
                                                        restricted_index):
    """A delta under ``BATCH_MIN_ROWS`` rows, and a delta at step 1 (no
    batch shape), run the scalar ``emit_r{i}`` walks."""
    rng = random.Random(5)
    (rule,) = parse_program(RULE).rules
    plan = plan_for(rule, (0, 1))
    d_rows = [(f"x{i}", f"k{i % 3}") for i in range(6)]
    db = Database({"E": e_facts(30, 3, rng), "D": d_rows})
    db.ensure_relation("H", 2)
    expected_all, _ = reference(rule, db, None)
    for _relation, t in sorted(expected_all)[::2]:
        db.relation("H").add(t)
    known = {("H", t) for t in db.relation("H")}
    if restricted_index == 0:
        rows = d_rows[:CodegenPlan.BATCH_MIN_ROWS - 2]
        delta = {"D": frozenset(rows)}
    else:
        rows = sorted(db.relation("E"))[:5]
        delta = {"E": frozenset(rows)}
    heads, firings = reference(rule, db, delta)
    assert heads & known and heads - known
    out, fired = run(plan, db, restricted_index, rows, add_only)
    assert fired == firings
    assert out == (heads - known if add_only else heads)
    assert set(plan.codegen_fns.kernels) <= {
        f"emit_r{restricted_index}", f"group_r{restricted_index}"
    }


FACTORED = "P(x) :- A(x), B(y, z)."


@pytest.mark.parametrize("add_only", [False, True])
@pytest.mark.parametrize("delta", [None, 3, 12], ids=["full", "small",
                                                      "large"])
def test_factored_kernels_skip_known_heads_under_add_only(add_only, delta):
    (rule,) = parse_program(FACTORED).rules
    plan = plan_for(rule, (0, 1))
    assert plan.counted
    a = [(f"a{i}",) for i in range(20)]
    db = Database({"A": a, "B": [("b", "c"), ("c", "d")], ("P", 1): []})
    for t in a[::2]:
        db.relation("P").add(t)
    known = {("P", t) for t in db.relation("P")}
    if delta is None:
        out, fired = run(plan, db, -1, None, add_only)
        heads, firings = reference(rule, db, None)
    else:
        rows = a[:delta]
        out, fired = run(plan, db, 0, rows, add_only)
        heads, firings = reference(rule, db, {"A": frozenset(rows)})
    assert fired == firings
    assert out == (heads - known if add_only else heads)
    assert set(plan.codegen_fns.kernels) <= {"emit_factored_full",
                                             "emit_factored_r0", "group_r0"}


def test_inflationary_absorbs_only_new_heads_from_factored_rules(
        monkeypatch):
    """Example 4.3's witness rule re-derives every old ``T`` fact each
    stage; under the add-only inflationary loop none reaches absorb."""
    from repro.programs.ctc_inflationary import CTC_INFLATIONARY_SOURCE
    from repro.workloads.graphs import chain, graph_database

    rows = []
    add_batch = Relation.add_batch

    def spy(self, ts):
        fresh = add_batch(self, ts)
        rows.append((len(ts), len(fresh)))
        return fresh

    monkeypatch.setattr(Relation, "add_batch", spy)
    program = parse_program(CTC_INFLATIONARY_SOURCE)
    evaluate_inflationary(program, graph_database(chain(8)))
    assert rows and all(offered == fresh for offered, fresh in rows)
