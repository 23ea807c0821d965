"""The loops of a fused batch kernel, and known heads in the scalar
fused and factored kernels.

A fused batch kernel whose innermost clause is a keyed probe reaching
the head runs the plain per-firing loop while the probed chain's live
mean bucket (``len(rel)`` over its distinct keys at the probe depth) is
under ``codegen.GROUP_MIN_BUCKET``.  At or above it, and while the
chain is not built yet, it hands the call to the grouped variant
``emit_grouped_*``, built on that first call: each distinct key's
projection becomes an int mask over the call's value ids, unioned per
outer group with ``|``.  A call whose distinct projected values pass
``bits_per_digit`` times the mean bucket, or that finds no chain counts,
goes on to ``emit_union_*``, which unions per-group sets.  Every path
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
from repro.semantics.plan import cached_plans, make_delta, plan_for

RULE = "H(x, z) :- D(x, y), E(y, z)."

#: (relation size, distinct keys at position 0, values shared by every
#: key): a mean bucket of 1.5 rows; 80 rows of distinct values (320,
#: within the bitset budget of 30 * 80); 16 rows of the same 16 values;
#: 10 rows of distinct values (1,000, past the budget of 30 * 10).
SHORT = (300, 200)
LONG = (320, 4)
DENSE = (128, 8, True)
DISJOINT = (1000, 100)
SHAPES = {"short": SHORT, "long": LONG, "dense": DENSE, "disjoint": DISJOINT}

#: The variant that returns a call's firings, per shape.
PATHS = {"short": "emit_batch", "long": "emit_grouped",
         "dense": "emit_grouped", "disjoint": "emit_union"}

#: Step 1 (``E``) probes its identity chain at full depth, or the chain
#: (0, 1) at depth 1: a prefix probe, whose chain no call has built.
PROBES = {"full_depth": None, "prefix": (None, ((0, 1), 1))}


def e_facts(size: int, keys: int, rng: random.Random,
            shared: bool = False) -> list[tuple]:
    """``size`` rows over ``keys`` keys; each key holds values of its
    own, or (``shared``) the same ``size // keys`` values."""
    rows = [(f"k{i % keys}", f"v{i // keys if shared else i}")
            for i in range(size)]
    rng.shuffle(rows)
    return rows


def mean_bucket(db: Database) -> float:
    """``E``'s mean bucket at position 0, from its chain statistics."""
    rel = db.relation("E")
    return len(rel) / rel.distinct_estimate(frozenset({0}))


def reference(rule, db, delta):
    """(head tuples, firings) of one pass by the reference matcher, run
    on a copy so that the chains it builds stay out of ``db``."""
    heads, firings = set(), 0
    for valuation in reference_matches(rule, db.copy(), (), delta):
        firings += 1
        for _relation, t, _positive in instantiate_head(rule, valuation):
            heads.add(t)
    return heads, firings


def run(plan, db, restricted_index, delta_rows, add_only):
    """(head tuples, firings) of one ``run_emit`` call: the kernel adds
    bare head tuples to the set the pass keeps for the head relation."""
    out: set = set()
    relation, template, fills, _positive = plan.emitters[0]
    restricted = None if delta_rows is None else make_delta(delta_rows)
    fired = plan.run_emit(db, (), restricted_index, restricted, relation,
                          template, fills, out, add_only)
    return out, fired


@pytest.fixture
def paths(monkeypatch):
    """The batch variant that returned the firings of each call, in
    order (a variant that hands its call on returns ``None``)."""
    taken = []
    build = codegen.compile_plan

    def compile_plan(plan, name):
        kernel = build(plan, name)
        function = kernel.function

        def spy(*args):
            fired = function(*args)
            if fired is not None and name.startswith(
                    ("emit_batch_", "emit_grouped_", "emit_union_")):
                taken.append(name.rsplit("_", 1)[0])
            return fired

        kernel.function = spy
        return kernel

    monkeypatch.setattr(codegen, "compile_plan", compile_plan)
    return taken


def check_passes(rule, plan, db, head, d_rows, add_only):
    """Three delta passes over ``D`` blocks and one full pass against
    the reference, with a third of the heads known beforehand."""
    expected_all, _ = reference(rule, db, None)
    for t in sorted(expected_all)[::3]:
        db.relation(head).add(t)
    known = set(db.relation(head))
    half = len(d_rows) // 2
    for rows in (d_rows[:half], d_rows[half:], d_rows):
        assert len(rows) >= CodegenPlan.BATCH_MIN_ROWS
        heads, firings = reference(rule, db, {"D": frozenset(rows)})
        out, fired = run(plan, db, 0, rows, add_only)
        assert fired == firings
        assert out == (heads - known if add_only else heads)
    heads, firings = reference(rule, db, None)
    out, fired = run(plan, db, -1, None, add_only)
    assert (out, fired) == (heads - known if add_only else heads, firings)


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("add_only", [False, True])
def test_batch_loops_match_the_reference(shape, probe, add_only, paths):
    rng = random.Random(7)
    size, keys, *shared = SHAPES[shape]
    (rule,) = parse_program(RULE).rules
    plan = plan_for(rule, (0, 1), chains=PROBES[probe])
    d_rows = [(f"x{i}", f"k{rng.randrange(keys + 2)}") for i in range(120)]
    db = Database({"E": e_facts(size, keys, rng, *shared),
                   "D": d_rows[:60]})
    db.ensure_relation("H", 2)
    assert db.relation("E").live_indexes() == []
    check_passes(rule, plan, db, "H", d_rows, add_only)
    assert {"emit_batch_r0", "emit_batch_full"} <= set(
        plan.codegen_fns.kernels
    )
    # The first prefix probe finds no chain counts, so the plain kernel
    # hands it on, and the bitset variant builds the chain to size its
    # budget: short buckets pass it (the call meets more values than
    # 30 × 1.5).  Every later call takes its shape's path.
    first = PATHS[shape]
    if probe == "prefix" and shape == "short":
        first = "emit_union"
    assert paths == [first] + [PATHS[shape]] * 3
    if shape == "short":
        assert 1 <= mean_bucket(db) <= 2 < codegen.GROUP_MIN_BUCKET
        if probe == "full_depth":
            assert set(plan.codegen_fns.kernels) == {"emit_batch_r0",
                                                     "emit_batch_full"}
    else:
        assert mean_bucket(db) >= codegen.GROUP_MIN_BUCKET


#: Heads whose inner part is the whole head (no outer position), and
#: a two-column inner projection placed around an outer column.
HEADS = {
    "no_outer": ("H(z) :- D(x, y), E(y, z).", 1),
    "two_inner": ("H(w, x, z) :- D(x, y), E(y, z, w).", 3),
}


@pytest.mark.parametrize("shape", ["dense", "disjoint"])
@pytest.mark.parametrize("head", sorted(HEADS))
@pytest.mark.parametrize("add_only", [False, True])
def test_grouped_heads_match_the_reference(shape, head, add_only, paths):
    rng = random.Random(11)
    size, keys, *shared = SHAPES[shape]
    source, arity = HEADS[head]
    (rule,) = parse_program(source).rules
    plan = plan_for(rule, (0, 1))
    e_rows = e_facts(size, keys, rng, *shared)
    if arity == 3:
        e_rows = [(k, v, f"u{i % 3}") for i, (k, v) in enumerate(e_rows)]
    d_rows = [(f"x{i % 40}", f"k{rng.randrange(keys)}") for i in range(120)]
    db = Database({"E": e_rows, "D": d_rows[:60]})
    db.ensure_relation("H", arity)
    check_passes(rule, plan, db, "H", d_rows, add_only)
    assert paths == [PATHS[shape]] * 4


def test_unbuilt_prefix_chain_takes_the_grouped_loop(monkeypatch, paths):
    """The first call of a prefix probe finds no chain counts in the
    plain kernel, which hands it to the bitset variant; that one builds
    the chain, sizes its budget from the counts and runs the call.  The
    call after it finds them, and a short bucket then takes the plain
    loop."""
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
    assert estimates == [None, SHORT[1], SHORT[1]]
    assert paths == ["emit_grouped", "emit_batch"]
    assert db.relation("E").live_indexes() == [(0, 1)]


def test_only_a_grouping_call_builds_the_grouped_variant():
    rng = random.Random(5)
    (rule,) = parse_program(RULE).rules
    plan = plan_for(rule, (0, 1))
    rows = [(f"x{i}", f"k{i % 4}") for i in range(CodegenPlan.BATCH_MIN_ROWS)]
    db = Database({"E": e_facts(*SHORT, rng), "D": rows})
    run(plan, db, 0, rows, add_only=False)
    kernels = plan.codegen_fns.kernels
    assert set(kernels) == {"emit_batch_r0"}
    plain = kernels["emit_batch_r0"].source
    # The plain loop alone, and the hand-off to the grouped variant.
    assert "fired += 1" in plain and "cache" not in plain
    assert f">= {codegen.GROUP_MIN_BUCKET} * n:\n        return None" in plain
    db = Database({"E": e_facts(*LONG, rng), "D": rows})
    run(plan, db, 0, rows, add_only=False)
    assert set(kernels) == {"emit_batch_r0", "emit_grouped_r0"}
    grouped = kernels["emit_grouped_r0"].source
    assert "cache = {}" in grouped and "fired += 1" not in grouped
    assert f"budget = {codegen._DIGIT_BITS} * len(rel1) // (n or 1)" in grouped


@pytest.mark.parametrize("add_only", [False, True])
def test_an_empty_probed_relation_fires_nothing_in_the_plain_loop(add_only,
                                                                  paths):
    """An empty ``E`` has no distinct keys (``n`` = 0), so the plain
    kernel's hand-off test holds; the dispatch then returns 0 firings
    instead of handing the call on, and no grouped variant is built."""
    (rule,) = parse_program(RULE).rules
    plan = plan_for(rule, (0, 1))
    rows = [(f"x{i}", f"k{i}") for i in range(CodegenPlan.BATCH_MIN_ROWS)]
    db = Database({("E", 2): [], "D": rows})
    db.ensure_relation("H", 2)
    for restricted_index, delta_rows in ((0, rows), (-1, None)):
        out, fired = run(plan, db, restricted_index, delta_rows, add_only)
        assert (out, fired) == (set(), 0)
    assert db.relation("E").distinct_estimate(frozenset({0})) == 0
    assert set(plan.codegen_fns.kernels) == {"emit_batch_r0",
                                             "emit_batch_full"}
    assert paths == []


@pytest.mark.parametrize("source", [
    "H(x) :- D(x, y), E(y, z).",
    "H('c') :- D(x, y), E(y, z).",
], ids=["no_inner", "constant"])
def test_a_batch_kernel_that_cannot_group_has_no_grouped_variants(source):
    """A head that reads nothing of the innermost probe gives the batch
    kernel no hand-off, so its plan has no grouped variants to build."""
    (rule,) = parse_program(source).rules
    table = CodegenPlan(plan_for(rule, (0, 1)))
    assert "return None" not in table.kernel("emit_batch_r0").source
    for name in ("emit_grouped_r0", "emit_union_full"):
        with pytest.raises(KeyError):
            table.kernel(name)
    assert set(table.kernels) == {"emit_batch_r0"}


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
    for t in sorted(expected_all)[::2]:
        db.relation("H").add(t)
    known = set(db.relation("H"))
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
    known = set(db.relation("P"))
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


#: Bitset calls that probe the head relation itself: (rule, join order,
#: chain specs, whether a group's known heads are its probed bucket,
#: delta-literal position holding the join key, the rule with its delta
#: literal reading ``Dl``).  Nonlinear TC's two delta occurrences and
#: the per-graph closure (a two-column group key) have that shape, also
#: through a prefix probe of a chain no call has built; the misaligned
#: closure and a head of another relation do not.
TC = "T(x, z) :- T(x, y), T(y, z)."
PER_GRAPH = "P(g, x, z) :- P(g, x, y), P(g, y, z)."
OWN = {
    "tc_delta0": (TC, (0, 1), None, True, 1,
                  "T(x, z) :- Dl(x, y), T(y, z)."),
    "tc_delta1": (TC, (1, 0), None, True, 0,
                  "T(x, z) :- T(x, y), Dl(y, z)."),
    "graph_delta0": (PER_GRAPH, (0, 1), None, True, 2,
                     "P(g, x, z) :- Dl(g, x, y), P(g, y, z)."),
    "graph_delta1": (PER_GRAPH, (1, 0), None, True, 1,
                     "P(g, x, z) :- P(g, x, y), Dl(g, y, z)."),
    "misaligned": ("T(z, x) :- T(x, y), T(y, z).", (0, 1), None, False, 1,
                   "T(z, x) :- Dl(x, y), T(y, z)."),
    "other_head": ("S(x, z) :- T(x, y), T(y, z).", (0, 1), None, False, 1,
                   "S(x, z) :- Dl(x, y), T(y, z)."),
    "prefix": (TC, (0, 1), (None, ((0, 1), 1)), True, 1,
               "T(x, z) :- Dl(x, y), T(y, z)."),
}


def closure_facts(arity: int, rng: random.Random) -> list[tuple]:
    """Ten successors for each of 60 nodes (arity 2), or for each of 30
    nodes in each of two graphs (arity 3): a mean bucket of 10 rows."""
    graphs = [()] if arity == 2 else [("g0",), ("g1",)]
    nodes = 60 // len(graphs)
    return [
        (*g, f"n{a}", f"n{b}")
        for g in graphs
        for a in range(nodes)
        for b in rng.sample(range(nodes), 10)
    ]


@pytest.mark.parametrize("add_only", [False, True])
@pytest.mark.parametrize("shape", list(OWN))
def test_an_add_only_bitset_call_builds_only_new_heads(shape, add_only,
                                                       paths):
    """Where a group's known heads are its probed bucket, an add-only
    call clears them from the group's mask before decoding: no head
    already in the relation comes out, and heads and firings are the
    reference's.  The delta's join keys are three nodes, so most values
    of a group's bucket are numbered by no probe of the call."""
    source, order, chains, own, key, one_delta = OWN[shape]
    (rule,) = parse_program(source).rules
    plan = plan_for(rule, order, chains=chains)
    probed = plan.steps[-1].relation
    facts = closure_facts(len(rule.head_literals()[0].terms),
                          random.Random(13))
    db = Database({probed: facts})
    head = rule.head_literals()[0].relation
    db.ensure_relation(head, len(facts[0]))
    rows = [t for t in facts if t[key] in ("n0", "n1", "n2")]
    assert len(rows) >= CodegenPlan.BATCH_MIN_ROWS
    # The pass runs one delta occurrence; the reference reads it from
    # a relation of its own.
    (one,) = parse_program(one_delta).rules
    scratch = db.copy()
    scratch.ensure_relation("Dl", len(facts[0])).update(rows)
    heads, firings = reference(one, scratch, None)
    if head != probed:  # a third of the heads known beforehand
        db.relation(head).update(sorted(heads)[::3])
    known = set(db.relation(head))
    assert heads & known and heads - known
    out, fired = run(plan, db, 0, rows, add_only)
    assert paths == ["emit_grouped"]
    assert fired == firings
    if add_only:
        assert out.isdisjoint(known)
        assert out == heads - known
    else:
        assert out == heads
    text = plan.codegen_fns.kernels["emit_grouped_r0"].source
    assert ("iget = ids.get" in text) == own


def test_answers_hold_with_the_subtraction_off(monkeypatch):
    """Nonlinear TC to fixpoint with the grouped variant's shape test
    forced off decodes every head and filters the known ones: same
    model, stages and firings as with the subtraction."""
    from repro.programs.tc import TC_NONLINEAR_SOURCE
    from repro.semantics import codegen_grouped
    from repro.semantics.seminaive import evaluate_datalog_seminaive
    from repro.workloads.graphs import random_gnp

    def evaluate():
        program = parse_program(TC_NONLINEAR_SOURCE)
        result = evaluate_datalog_seminaive(
            program, Database({"G": random_gnp(60, 0.05, 3)})
        )
        sources = [
            kernel.source
            for rule in program.rules
            for plan in cached_plans(rule)
            for name, kernel in plan.codegen_fns.kernels.items()
            if name.startswith("emit_grouped_")
        ]
        return (result.database.canonical(), result.rule_firings,
                [trace.added for trace in result.stages]), sources

    with_subtraction, sources = evaluate()
    assert sources and all("iget = ids.get" in s for s in sources)
    monkeypatch.setattr(codegen_grouped, "own_groups", lambda *args: False)
    without, sources = evaluate()
    assert sources and not any("iget = ids.get" in s for s in sources)
    assert without == with_subtraction
