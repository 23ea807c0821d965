"""The generated kernels: emitted source, dispatch, cache coherence.

The contract under test: :mod:`repro.semantics.codegen` is the
production matcher — byte-identical match enumeration, identical
answers, firings, and stages versus the reference matcher
(``reference_matches``, which a full tracer runs), under every engine.
The evidence here is layered: shape checks on the emitted source, a
50-program production-vs-reference differential across four
semantics, seeded byte-identical replays of the choice and
nondeterministic engines, the cache coherence rules
(``PlanCache.clear`` and cover twins never run stale functions), and
``--dump-codegen`` writing exactly the code that ran.
"""

import io
import os
import random

import pytest

from repro.cli import main
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.choice import evaluate_with_choice
from repro.semantics.codegen import compile_plan, dump_codegen
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.nondeterministic import run_nondeterministic
from repro.obs import CollectorSink, Tracer
from repro.semantics.base import reference_matches
from repro.semantics.plan import (
    PlanCache,
    active_matcher,
    plan_for,
    plan_with_cover,
)
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import evaluate_wellfounded
from repro.workloads.graphs import chain, graph_database
from tests.test_differential_engines import random_program_and_database

#: The two matchers: production (generated kernels, reported as
#: "columnar") and the reference matcher a full tracer runs.
TIERS = ("columnar", "interpreted")


def _run(engine, tier: str, *args, **kwargs):
    """``engine(*args)`` on one matcher: traced for the reference."""
    if tier == "interpreted":
        kwargs["tracer"] = Tracer([CollectorSink()])
    return engine(*args, **kwargs)


TC_NONLINEAR = "T(x, y) :- G(x, y).\nT(x, y) :- T(x, z), T(z, y).\n"


def _tc_db(n: int = 8) -> Database:
    return graph_database(chain(n))


class TestEmittedSource:
    """The generated module has the promised shape."""

    def _plan(self):
        program = parse_program(TC_NONLINEAR)
        rule = program.rules[1]  # T(x,y) :- T(x,z), T(z,y).
        return plan_for(rule, (0, 1))

    def test_variants_present(self):
        cg = compile_plan(self._plan())
        for name in ("def walk_full(", "def walk_r0(", "def walk_r1(",
                     "def emit_full(", "def emit_r0(", "def emit_r1(",
                     "def group_r1("):
            assert name in cg.source, name

    def test_constants_and_head_baked(self):
        cg = compile_plan(self._plan())
        # The relation name and the head template are literals in the
        # source, not runtime lookups.
        assert "db.relation('T')" in cg.source
        assert "add(('T', " in cg.source
        assert cg.head_relation == "T"

    def test_fused_flavor_skips_snapshots(self):
        cg = compile_plan(self._plan())
        # The generator flavor snapshots each bucket (consumers may
        # mutate the database between yields); the fused flavor never
        # yields, so it iterates buckets live.
        walk = cg.source[cg.source.index("def walk_full"):
                         cg.source.index("def walk_r0")]
        emit = cg.source[cg.source.index("def emit_full"):
                         cg.source.index("def emit_r0")]
        assert "list(" in walk
        assert "list(" not in emit

    def test_source_compiles_to_working_walk(self):
        plan = self._plan()
        cg = compile_plan(plan)
        db = _tc_db(4)
        db.ensure_relation("T", 2).update(db.tuples("G"))
        rows = {tuple(slots) for slots in cg.run(db, (), -1, None)}
        reference = {
            tuple(valuation[var] for var, _slot in plan.out_vars)
            for valuation in reference_matches(plan.rule, db, ())
        }
        assert rows == reference

    def test_dump_codegen_writes_sources(self, tmp_path):
        program = parse_program(TC_NONLINEAR)
        evaluate_datalog_seminaive(program, _tc_db(4))
        paths = dump_codegen(program, str(tmp_path))
        assert paths, "no generated sources written"
        for path in paths:
            text = open(path).read()
            assert "# codegen for rule:" in text
            assert "def walk_full(" in text


class TestTierDispatch:
    """Which matcher runs, the stats surface, and the traced-run route."""

    def test_columnar_is_the_default(self):
        assert active_matcher() == "columnar"
        result = evaluate_datalog_seminaive(
            parse_program(TC_NONLINEAR), _tc_db()
        )
        assert result.stats.matcher == "columnar"

    @pytest.mark.parametrize("tier", TIERS)
    def test_stats_report_the_tier(self, tier):
        program = parse_program(TC_NONLINEAR)
        result = _run(evaluate_datalog_seminaive, tier, program, _tc_db())
        assert result.stats.matcher == tier

    def test_tiers_agree_on_answers(self):
        program = parse_program(TC_NONLINEAR)
        outcomes = set()
        for tier in TIERS:
            result = _run(evaluate_datalog_seminaive, tier, program, _tc_db())
            outcomes.add((
                result.answer("T"),
                result.stats.rule_firings,
                result.stats.stage_count,
            ))
        assert len(outcomes) == 1

    def test_traced_run_drops_to_interpreted(self):
        # Join-probe counts must stay exact, so a traced run matches
        # through the reference matcher, not the generated kernels.
        program = parse_program(TC_NONLINEAR)
        result = evaluate_datalog_seminaive(
            program, _tc_db(), tracer=Tracer([CollectorSink()])
        )
        assert result.stats.matcher == "interpreted"


class TestCacheCoherence:
    """Stale codegen'd functions must never run."""

    def test_plan_cache_clear_drops_codegen_functions(self):
        program = parse_program(TC_NONLINEAR)
        rule = program.rules[1]
        plan = plan_for(rule, (0, 1))
        db = _tc_db(4)
        db.ensure_relation("T", 2).update(db.tuples("G"))
        list(plan.iter_slot_matches(db, ()))
        assert plan.codegen_fns is not None
        PlanCache.clear()
        fresh = plan_for(rule, (0, 1))
        assert fresh is not plan
        assert fresh.codegen_fns is None

    def test_cover_twin_never_runs_flat_index_code(self):
        program = parse_program(TC_NONLINEAR)
        rule = program.rules[1]
        plan = plan_for(rule, (0, 1))
        db = _tc_db(4)
        db.ensure_relation("T", 2).update(db.tuples("G"))
        list(plan.iter_slot_matches(db, ()))
        assert plan.codegen_fns is not None
        step = plan.steps[1]
        assert step.key_positions and not step.exact
        assign = {
            (step.relation, frozenset(step.key_positions)): ((0, 1), 1)
        }
        twin = plan_with_cover(plan, assign)
        assert twin is not plan
        # The slot copy must not carry the base plan's functions: they
        # probe the identity chain (0,), the twin the cover's (0, 1).
        assert twin.codegen_fns is None
        twin_cg = compile_plan(twin)
        assert "probe_chain((0, 1), 1, " in twin_cg.source
        assert "chain_index((0,))" not in twin_cg.source
        assert "chain_index((0,))" in plan.codegen_fns.source
        assert "probe_chain(" not in plan.codegen_fns.source


class TestThreeWayDifferential:
    """50 random programs: production and reference agree under every
    semantics."""

    @pytest.mark.parametrize("seed", range(50))
    def test_tiers_agree(self, seed):
        rng = random.Random(seed)
        text, db = random_program_and_database(rng)
        program = parse_program(text)
        engines = {
            "naive": evaluate_datalog_naive,
            "seminaive": evaluate_datalog_seminaive,
            "stratified": evaluate_stratified,
        }
        for name, engine in engines.items():
            outcomes = {}
            for tier in TIERS:
                result = _run(engine, tier, program, db.copy())
                outcomes[tier] = (
                    {r: result.answer(r) for r in program.idb},
                    result.stats.rule_firings,
                    result.stats.stage_count,
                )
            for tier in TIERS[1:]:
                assert outcomes["columnar"] == outcomes[tier], (
                    name, tier, seed)
        # A positive program's well-founded model is its minimum model;
        # the alternating fixpoint still exercises the residual probes.
        wf = {}
        for tier in TIERS:
            model = _run(evaluate_wellfounded, tier, program, db.copy())
            wf[tier] = (model.true_facts, model.unknown_facts(),
                        model.stats.rule_firings)
        for tier in TIERS[1:]:
            assert wf["columnar"] == wf[tier], (tier, seed)


SPANNING_TREE = """
root(x) :- node(x), choice((), (x)).
intree(x) :- root(x).
tree(x, y) :- intree(x), G(x, y), not intree(y), choice((y), (x)).
intree(y) :- tree(x, y).
"""


class TestSeededReplay:
    """Seeded engines replay byte-identically on either matcher.

    The choice and nondeterministic engines consume matches through a
    seeded RNG, so any divergence in *enumeration order* — not just in
    the match set — changes their output.  Identical committed choices
    and identical step sequences between production and the reference
    matcher (a traced run) are therefore the strongest order-identity
    evidence available.
    """

    def _tree_db(self) -> Database:
        rng = random.Random(11)
        nodes = [f"n{i}" for i in range(8)]
        db = Database()
        for node in nodes:
            db.add_fact("node", (node,))
        for _ in range(14):
            a, b = rng.sample(nodes, 2)
            db.add_fact("G", (a, b))
        return db

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_choice_replays_identically(self, seed):
        program = parse_program(SPANNING_TREE)
        outcomes = {}
        for tier in TIERS:
            result = _run(
                evaluate_with_choice, tier, program, self._tree_db(),
                seed=seed,
            )
            outcomes[tier] = (
                result.answer("tree"),
                result.answer("root"),
                result.choices,
            )
        for tier in TIERS[1:]:
            assert outcomes["columnar"] == outcomes[tier], (tier, seed)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_nondeterministic_replays_identically(self, seed):
        program = parse_program(
            "pick(x) :- S(x), not done. done :- S(x)."
        )
        db = Database({"S": [("a",), ("b",), ("c",), ("d",)]})
        outcomes = {}
        for tier in TIERS:
            run = _run(run_nondeterministic, tier, program, db.copy(),
                       seed=seed)
            outcomes[tier] = (
                [(s.rule_index, s.inserted, s.deleted) for s in run.steps],
                run.aborted,
                run.answer("pick"),
            )
        for tier in TIERS[1:]:
            assert outcomes["columnar"] == outcomes[tier], (tier, seed)


class TestCliMatcherFlag:
    """``repro run`` prints the same answers on either matcher, and
    ``--dump-codegen`` writes the code that ran."""

    @pytest.fixture
    def tc_files(self, tmp_path):
        program = tmp_path / "tc.dl"
        program.write_text(TC_NONLINEAR)
        data = tmp_path / "graph.dl"
        data.write_text("G('a', 'b').\nG('b', 'c').\nG('c', 'd').\n")
        return str(program), str(data)

    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_run_and_traced_run_print_the_same_answers(self, tc_files, tmp_path):
        # ``--trace-out`` runs the reference matcher under a tracer.
        program, data = tc_files
        outputs = set()
        for extra in ([], ["--trace-out", str(tmp_path / "t.jsonl")]):
            code, output = self._run(
                ["run", program, "--data", data,
                 "--semantics", "seminaive", *extra]
            )
            assert code == 0
            outputs.add(output)
        assert len(outputs) == 1  # byte-identical printed relations

    def test_run_dump_codegen(self, tc_files, tmp_path):
        program, data = tc_files
        dump = tmp_path / "generated"
        code, _output = self._run(
            ["run", program, "--data", data, "--semantics", "seminaive",
             "--dump-codegen", str(dump)]
        )
        assert code == 0
        written = sorted(p.name for p in dump.iterdir())
        assert written
        assert all(name.endswith(".py") for name in written)
        text = (dump / written[0]).read_text()
        assert "# codegen for rule:" in text


class TestDumpCodegen:
    """``dump_codegen`` writes the plans that ran, cover twins included."""

    def _ran_sources(self, program):
        sources = set()
        for rule in program.rules:
            for plan in PlanCache._plans.get(rule, {}).values():
                for candidate in (plan, *(plan.cover_twins or {}).values()):
                    if candidate.codegen_fns is not None:
                        sources.add(candidate.codegen_fns.source)
        return sources

    def test_dumps_exactly_the_code_that_ran(self, tmp_path):
        PlanCache.clear()
        program = parse_program(TC_NONLINEAR)
        evaluate_datalog_seminaive(program, graph_database(chain(20)))
        ran = self._ran_sources(program)
        paths = dump_codegen(program, str(tmp_path))
        dumped = [open(path).read() for path in paths]
        # Nothing compiled on demand: every file is code that ran, and
        # every plan that ran is in a file of its own.
        assert self._ran_sources(program) == ran
        assert set(dumped) == ran
        assert len(dumped) == len(set(paths)) == len(ran)
        # Every keyed probe walks a chain trie, base plans included;
        # the recursive rule ran on chain-cover twins.
        assert all(".index(" not in text for text in dumped)
        recursive = [
            text for path, text in zip(paths, dumped)
            if os.path.basename(path).startswith("rule1_")
        ]
        assert recursive
        assert all("chain" in text for text in recursive)

    def test_never_ran_program_compiles_on_demand(self, tmp_path):
        PlanCache.clear()
        program = parse_program(TC_NONLINEAR)
        paths = dump_codegen(program, str(tmp_path))
        assert len(paths) == len(program.rules)
        for path in paths:
            assert "def walk_full(" in open(path).read()
