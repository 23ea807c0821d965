"""Rule bodies with head-free parts: factored kernels against the reference.

A conjunct that shares no variable with the rest of the body and none
with the head (Example 4.3's ``T(xp, zp), T(zp, yp), not T(xp, yp)``)
multiplies the rule's matches without changing its heads.  The fused
kernels count such a part once per pass (``emit_factored_*``) instead of
joining it.  Here every engine that runs them evaluates a seeded corpus
of such rules plainly and through the reference matcher (the
``reference`` fixture, same stage schedule), and the two runs must
agree on the answers, the stage records and the firings.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.codegen import CodegenPlan
from repro.semantics.differential import DiffBatch, DifferentialEngine
from repro.semantics.inflationary import evaluate_inflationary
from repro.semantics.noninflationary import evaluate_noninflationary
from repro.semantics.plan import cached_plans, plan_for
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import evaluate_wellfounded

#: The recursive core every corpus program reads: ``T`` grows by one
#: path length per stage, so its deltas run from tens of rows down to
#: one, on both sides of ``CodegenPlan.BATCH_MIN_ROWS``.
CORE = "T(x, y) :- E(x, y).\nT(x, y) :- E(x, z), T(z, y).\nP(y) :- T(x, y).\n"

#: Rules whose bodies hold a part without a head variable, by shape.
#: ``{R}`` is a binary relation, ``{U}`` and ``{N}`` unary ones and
#: ``{V}`` the head part's relation.  Reading ``T``, ``P`` or ``W``
#: puts a delta occurrence in the head-free part or in the head part
#: under the forward-chaining engines; the two recursive shapes do so
#: under the scheduled ones too, where a rule that is not recursive
#: runs one full pass.
SHAPES = {
    "negated": "H{i}(x) :- {V}(x), {R}(y, z), not B(y, z).",
    "inequality": "H{i}(x) :- {V}(x), {U}(y), D(z), y != z.",
    "assign": "H{i}(x) :- {V}(x), {U}(y), z = y, not {N}(z).",
    "adom": "H{i}(x) :- {V}(x), not {R}(y, y).",
    "two_parts": "H{i}(x) :- {V}(x), {R}(y, z), {U}(w).",
    "ground_head": "H{i}('c0') :- {R}(y, z), {U}(w), not {N}(w).",
    "join_in_part": "H{i}(x) :- {V}(x), {R}(y, z), T(z, w), not B(y, w).",
    "recursive_in_part": "H{i}(x, y) :- B(x, y).\n"
                         "H{i}(x, y) :- E(x, y), H{i}(u, v), not D(v).",
    "recursive_in_head": "H{i}(x, y) :- E(x, y), {U}(w).\n"
                         "H{i}(x, z) :- H{i}(x, y), E(y, z), {R}(u, u).",
}

#: Extra rules per engine: a non-stratifiable ``win`` for the
#: well-founded engine (whose ``W`` the shapes may read), a deletion for
#: the noninflationary one.
EXTRA = {
    "wellfounded": "W(x) :- E(x, y), not W(y).\n",
    "noninflationary": "not D(x) :- D(x), T(y, z), not B(y, z).\n",
}


def _corpus_case(engine: str, seed: int):
    """A seeded program of the core plus 2–4 shaped rules, and an input
    graph: a chain (one-row deltas late) plus random edges (wide ones)."""
    rng = random.Random(seed)
    unary = ["A", "D", "P"] + (["W"] if engine == "wellfounded" else [])
    names = rng.sample(sorted(SHAPES), rng.randint(2, 4))
    rules = []
    for i, name in enumerate(names):
        rules.append(SHAPES[name].format(
            i=i,
            R=rng.choice(["T", "B", "E"]),
            U=rng.choice(unary),
            N=rng.choice(["D"] + unary[3:]),
            V=rng.choice(unary),
        ))
    source = CORE + EXTRA.get(engine, "") + "\n".join(rules)
    constants = [f"c{i}" for i in range(rng.randint(6, 12))]
    edges = set(zip(constants, constants[1:]))
    for _ in range(rng.randint(0, 12)):
        edges.add((rng.choice(constants), rng.choice(constants)))
    db = Database({
        "E": sorted(edges),
        "B": sorted({
            (rng.choice(constants), rng.choice(constants))
            for _ in range(rng.randint(1, 10))
        }),
        "A": [(c,) for c in constants if rng.random() < 0.5] or [("c0",)],
        "D": [(c,) for c in constants if rng.random() < 0.4] or [("c1",)],
    })
    return source, names, db


def _evaluate(engine: str, source: str, db: Database):
    """(answers, stage records, firings, per-stage stats) of one run on
    a fresh parse; the (in)equality shapes need ``validate=False``."""
    program = parse_program(source)
    if engine == "wellfounded":
        model = evaluate_wellfounded(program, db, validate=False)
        answers = (model.true_facts, model.possible_facts)
        stages = None
    else:
        run = {
            "inflationary": evaluate_inflationary,
            "stratified": evaluate_stratified,
            "noninflationary": evaluate_noninflationary,
        }[engine]
        model = run(program, db, validate=False)
        answers = model.database.canonical()
        stages = [
            (sorted(s.new_facts), sorted(s.removed_facts))
            for s in model.stages
        ]
    per_stage = [
        (s.firings, s.added, s.removed) for s in model.stats.stages
    ]
    return answers, stages, model.rule_firings, per_stage


@pytest.fixture
def factored_runs(monkeypatch):
    """Every factored dispatch, as (head relations, delta occurrence in
    a head-free part, delta size class)."""
    seen: set[tuple] = set()
    dispatch = CodegenPlan.run_emit_batch

    def spy(self, db, adom, restricted_index, restricted, out, add_only):
        plan = self.plan
        if plan.counted:
            in_part = any(
                ("step", restricted_index) in part for part in plan.counted
            )
            if restricted_index < 0:
                size = "full"
            elif len(restricted) < CodegenPlan.BATCH_MIN_ROWS:
                size = "small"
            else:
                size = "large"
            seen.add((frozenset(plan.rule.head_relations()), in_part, size))
        return dispatch(self, db, adom, restricted_index, restricted, out,
                        add_only)

    monkeypatch.setattr(CodegenPlan, "run_emit_batch", spy)
    return seen


ENGINES = ["inflationary", "stratified", "wellfounded", "noninflationary"]


class TestCorpus:
    """Production (factored kernels) against the reference matcher."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reference(self, engine, seed, reference):
        source, _names, db = _corpus_case(engine, seed)
        production = _evaluate(engine, source, db)
        with reference():
            assert _evaluate(engine, source, db) == production

    @pytest.mark.parametrize("engine", ENGINES)
    def test_corpus_reaches_every_shape_and_delta(self, engine,
                                                  factored_runs):
        heads = {}
        for seed in range(25):
            source, names, db = _corpus_case(engine, seed)
            factored_runs.clear()
            _evaluate(engine, source, db)
            for relations, in_part, size in factored_runs:
                for relation in relations:
                    match = re.fullmatch(r"H(\d+)", relation)
                    if match:
                        name = names[int(match.group(1))]
                        heads.setdefault(name, set()).add((in_part, size))
        assert set(heads) == set(SHAPES)
        ran = set().union(*heads.values())
        if engine == "noninflationary":
            # Datalog¬¬ stages are full passes.
            assert ran == {(False, "full")}
        else:
            assert {(False, "full"), (True, "small"), (True, "large"),
                    (False, "small"), (False, "large")} <= ran


class TestMaintainedView:
    """The differential engine's DRed and insertion passes run the
    factored kernels too; the view must track a fresh evaluation."""

    SOURCE = (
        "T(x, y) :- E(x, y).\nT(x, y) :- E(x, z), T(z, y).\n"
        "H(x) :- A(x), T(y, z), E(z, w).\nG('k') :- T(y, z), A(w).\n"
    )
    ARITY = {"E": 2, "A": 1}

    def _database(self, facts):
        return Database({
            (name, self.ARITY[name]): sorted(ts) for name, ts in facts.items()
        })

    @pytest.mark.parametrize("seed", range(5))
    def test_view_equals_fresh_evaluation(self, seed, factored_runs):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(8)]
        facts = {
            "E": {(rng.choice(nodes), rng.choice(nodes)) for _ in range(10)},
            "A": {(n,) for n in nodes[:3]},
        }
        engine = DifferentialEngine(
            parse_program(self.SOURCE), self._database(facts)
        )
        for _ in range(20):
            relation = rng.choice("EEA")
            t = tuple(rng.choice(nodes) for _ in range(self.ARITY[relation]))
            if t in facts[relation]:
                facts[relation].discard(t)
                engine.apply(DiffBatch(deletes=((relation, t),)))
            else:
                facts[relation].add(t)
                engine.apply(DiffBatch(inserts=((relation, t),)))
            fresh = evaluate_datalog_seminaive(
                parse_program(self.SOURCE), self._database(facts)
            )
            for answer in ("T", "H", "G"):
                assert engine.answer(answer) == fresh.answer(answer)
        assert factored_runs


class TestSplit:
    """What ``RulePlan.counted`` holds for each shape."""

    @pytest.mark.parametrize("source,parts", [
        ("H(x) :- A(x), E(y, z), not B(y, z).",
         [{("step", 1), ("neg", 0)}]),
        ("H(x) :- A(x), E(y, w), D(z), y != z.",
         [{("step", 1), ("step", 2), ("pre", 0)}]),
        ("H(x) :- A(x), D(y), z = y, not B(z, z).",
         [{("step", 1), ("assign", 0), ("neg", 0)}]),
        ("H(x) :- A(x), not B(y, y).", [{("adom", 0), ("neg", 0)}]),
        ("H(x) :- A(x), E(y, z), D(w).", [{("step", 1)}, {("step", 2)}]),
        ("H('c') :- E(y, z), D(w), not A(w).",
         [{("step", 0)}, {("step", 1), ("neg", 0)}]),
        # One component, even without a head variable: joined as before.
        ("F('a', 'b') :- E(x, y), E(y, z).", []),
        ("T(x, z) :- E(x, y), E(y, z).", []),
        # The second part binds no variable, so nothing of it loops.
        ("H(x) :- A(x), E('a', 'b').", []),
    ])
    def test_head_free_parts(self, source, parts):
        rule = parse_program(source).rules[0]
        plan = plan_for(rule, tuple(range(len(rule.positive_body()))))
        assert sorted(map(sorted, plan.counted)) == sorted(map(sorted, parts))

    def test_factored_variant_runs_and_reads_every_binding(self):
        program = parse_program(
            "H(x) :- A(x), E(y, z), not B(y, z).\n"
            "G('c') :- E(y, z), D(w), not A(w).\n"
        )
        evaluate_inflationary(program, Database({
            "E": [("a", "b"), ("b", "c")],
            "B": [("a", "c")],
            "A": [("a",)],
            "D": [("b",)],
        }))
        kernels = [
            kernel
            for rule in program.rules
            for plan in cached_plans(rule)
            for kernel in plan.codegen_fns.kernels.values()
        ]
        assert {k.function.__name__ for k in kernels} == {"emit_factored_full"}
        for kernel in kernels:
            body = kernel.source.split("\n", 1)[1]
            for name in kernel.bindings:
                assert re.search(rf"\b{name}\b", body), (name, kernel.source)
