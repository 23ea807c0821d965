"""The generated kernels: emitted source, dispatch, cache coherence.

The contract under test: :mod:`repro.semantics.codegen` is the
production matcher — byte-identical match enumeration, identical
answers, firings, and stages versus the reference matcher
(``reference_matches``, through the ``reference`` fixture), under every
engine.
The evidence here is layered: shape checks on the emitted source, a
50-program production-vs-reference differential across four
semantics, seeded byte-identical replays of the choice and
nondeterministic engines, the cache coherence rules
(``PlanCache.clear`` and shared-chain plans never run stale functions), the
lifetime rules (plans die with their rules; compiled code is kept once
per shape, never per program, until ``PlanCache.clear``), and
``--dump-codegen`` writing exactly the code that ran.
"""

import gc
import io
import linecache
import os
import random
import re
import traceback
import weakref
from collections.abc import Mapping, MutableSet
from pathlib import Path
from types import FunctionType

import pytest

from repro.cli import main
from repro.parser import parse_program
from repro.programs.component_chain import (
    component_chain_database,
    component_chain_source,
    reference_component_chain,
)
from repro.programs.tc import tc_program
from repro.relational.instance import Database
from repro.semantics import codegen, planner
from repro.semantics.choice import evaluate_with_choice
from repro.semantics.codegen import CodegenPlan, dump_codegen
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.nondeterministic import run_nondeterministic
from repro.obs import CollectorSink, Tracer
from repro.semantics.base import iter_universal_matches, reference_matches
from repro.semantics.plan import (
    PlanCache,
    RulePlan,
    active_matcher,
    cached_plans,
    plan_for,
)
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import evaluate_wellfounded
from repro.terms import Var
from repro.workloads.graphs import chain, graph_database
from tests.test_differential_engines import random_program_and_database
from tests.test_planner import SHARED_CHAIN, shared_chain_database

#: The two matchers: production (generated kernels, reported as
#: "columnar") and the reference matcher (the ``reference`` fixture's
#: oracle, reported as "interpreted").
TIERS = ("columnar", "interpreted")


def _run(reference, engine, tier: str, *args, **kwargs):
    """``engine(*args)`` on one matcher."""
    if tier == "interpreted":
        with reference():
            return engine(*args, **kwargs)
    return engine(*args, **kwargs)


TC_NONLINEAR = "T(x, y) :- G(x, y).\nT(x, y) :- T(x, z), T(z, y).\n"


def _tc_db(n: int = 8) -> Database:
    return graph_database(chain(n))


class TestEmittedSource:
    """The generated kernels have the promised shape."""

    def _plan(self):
        program = parse_program(TC_NONLINEAR)
        rule = program.rules[1]  # T(x,y) :- T(x,z), T(z,y).
        return plan_for(rule, (0, 1))

    def test_variants_present(self):
        cg = self._plan().compiled()
        assert cg.kernels == {}  # nothing is built before it runs
        for name in ("walk_full", "walk_r0", "walk_r1",
                     "emit_full", "emit_r0", "emit_r1", "group_r1"):
            assert f"def {name}(" in cg.kernel(name).source, name
        # A built variant replaced its stub: dispatch calls it directly.
        assert cg._walks[0] is cg.kernels["walk_full"].function

    def test_constants_and_head_baked(self):
        cg = self._plan().compiled()
        kernel = cg.kernel("emit_full")
        # The relation names are bound into the kernel as default
        # arguments (fast locals), not looked up at runtime, and the
        # head is built from them; the text itself names no relation.
        # The head's relation is not bound at all: the kernel adds bare
        # head tuples to the set the pass keeps for that relation.
        assert "db.relation(R0)" in kernel.source
        assert "h = (v0, v2)" in kernel.source
        assert "add(h)" in kernel.source
        assert "'T'" not in kernel.source
        assert kernel.bindings == {"R0": "T", "R1": "T"}
        assert kernel.function.__defaults__ == ("T", "T")
        assert cg.head_relation == "T"

    def test_fused_flavor_skips_snapshots(self):
        cg = self._plan().compiled()
        # The generator flavor snapshots each bucket (consumers may
        # mutate the database between yields); the fused flavor never
        # yields, so it iterates buckets live.
        assert "list(" in cg.kernel("walk_full").source
        assert "list(" not in cg.kernel("emit_full").source

    def test_every_bound_value_is_read(self):
        # A kernel binds only the values its text reads: an all-constant
        # head is one bound tuple, not also one value per position.
        program = parse_program(
            TC_NONLINEAR + "F('a', 'b') :- T(x, y), T(y, z).\n"
        )
        evaluate_datalog_seminaive(program, _tc_db(12))
        kernels = [
            kernel
            for rule in program.rules
            for plan in cached_plans(rule)
            if plan.codegen_fns is not None
            for kernel in plan.codegen_fns.kernels.values()
        ]
        assert any(
            kernel.function.__name__.startswith("emit_batch_")
            and kernel.bindings.get("H") == ("a", "b")
            for kernel in kernels
        )
        for kernel in kernels:
            body = kernel.source.split("\n", 1)[1]
            for name in kernel.bindings:
                assert re.search(rf"\b{name}\b", body), (name, kernel.source)

    def test_source_compiles_to_working_walk(self):
        plan = self._plan()
        cg = CodegenPlan(plan)
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
            text = Path(path).read_text()
            assert "# codegen for rule:" in text
            # The header binds the values.
            assert re.search(r"^R\d+ = '[GT]'$", text, re.M), text
            assert "def emit_" in text  # semi-naive runs fused kernels


class TestTierDispatch:
    """Which matcher runs, the stats surface, and the traced-run route."""

    def test_columnar_is_the_default(self):
        assert active_matcher() == "columnar"
        result = evaluate_datalog_seminaive(
            parse_program(TC_NONLINEAR), _tc_db()
        )
        assert result.stats.matcher == "columnar"

    @pytest.mark.parametrize("tier", TIERS)
    def test_stats_report_the_tier(self, tier, reference):
        program = parse_program(TC_NONLINEAR)
        result = _run(reference, evaluate_datalog_seminaive, tier, program,
                      _tc_db())
        assert result.stats.matcher == tier

    def test_tiers_agree_on_answers(self, reference):
        program = parse_program(TC_NONLINEAR)
        outcomes = set()
        for tier in TIERS:
            result = _run(reference, evaluate_datalog_seminaive, tier,
                          program, _tc_db())
            outcomes.add((
                result.answer("T"),
                result.stats.rule_firings,
                result.stats.stage_count,
            ))
        assert len(outcomes) == 1

    def test_traced_run_stays_columnar(self):
        # A traced run runs the production plans through their counting
        # twins, never the reference matcher.
        program = parse_program(TC_NONLINEAR)
        result = evaluate_datalog_seminaive(
            program, _tc_db(), tracer=Tracer([CollectorSink()])
        )
        assert result.stats.matcher == "columnar"
        built = {
            name
            for rule in program.rules
            for plan in cached_plans(rule)
            if plan.codegen_fns is not None
            for name in plan.codegen_fns.kernels
        }
        assert built and all("_tally_" in name for name in built), built


class TestCacheCoherence:
    """Stale codegen'd functions must never run."""

    def test_plan_cache_clear_drops_codegen_functions(self):
        db = _tc_db(4)
        db.ensure_relation("T", 2).update(db.tuples("G"))

        def ran():
            plan = plan_for(parse_program(TC_NONLINEAR).rules[1], (0, 1))
            list(plan.iter_slot_matches(db, ()))
            return plan, plan.codegen_fns.kernels["walk_full"].function

        plan, walk = ran()
        # An equal rule from a fresh parse shares the compiled code ...
        assert ran()[1].__code__ is walk.__code__
        PlanCache.clear()
        # ... until the cache is cleared: then the text compiles anew,
        # while the live plan keeps running its own function.
        assert ran()[1].__code__ is not walk.__code__
        assert plan.codegen_fns.kernels["walk_full"].function is walk

    def test_plan_cache_clear_drops_traced_kernels(self):
        # The counting twins share the shape table with every other
        # variant, so the same reset drops them.
        PlanCache.clear()
        evaluate_datalog_seminaive(
            parse_program(TC_NONLINEAR), _tc_db(),
            tracer=Tracer([CollectorSink()]),
        )
        assert any("tally" in text for text in codegen._SHAPES)
        PlanCache.clear()
        assert not codegen._SHAPES

    def test_shared_chain_plan_never_runs_identity_chain_code(self):
        program = parse_program(TC_NONLINEAR)
        rule = program.rules[1]
        plan = plan_for(rule, (0, 1))
        db = _tc_db(4)
        db.ensure_relation("T", 2).update(db.tuples("G"))
        list(plan.iter_slot_matches(db, ()))
        assert plan.codegen_fns is not None
        step = plan.steps[1]
        assert step.key_positions and not step.exact
        shared = plan_for(rule, (0, 1), chains=(None, ((0, 1), 1)))
        assert shared is not plan
        assert shared is plan_for(rule, (0, 1), chains=(None, ((0, 1), 1)))
        assert shared in cached_plans(rule)
        # A plan built with chain specs has a kernel table of its own:
        # the base plan's kernels probe the identity chain (0,), the
        # shared-chain plan's the cover's (0, 1).
        assert shared.codegen_fns is None
        shared_source = shared.compiled().kernel("walk_full").source
        assert "probe_chain((0, 1), 1, " in shared_source
        assert "chain_index((0,))" not in shared_source
        base_source = plan.codegen_fns.kernels["walk_full"].source
        assert "chain_index((0,))" in base_source
        assert "probe_chain(" not in base_source


class TestThreeWayDifferential:
    """50 random programs: production and reference agree under every
    semantics."""

    @pytest.mark.parametrize("seed", range(50))
    def test_tiers_agree(self, seed, reference):
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
                result = _run(reference, engine, tier, program, db.copy())
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
            model = _run(reference, evaluate_wellfounded, tier, program,
                         db.copy())
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
    matcher are therefore the strongest order-identity evidence
    available.
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
    def test_choice_replays_identically(self, seed, reference):
        program = parse_program(SPANNING_TREE)
        outcomes = {}
        for tier in TIERS:
            result = _run(
                reference, evaluate_with_choice, tier, program,
                self._tree_db(), seed=seed,
            )
            outcomes[tier] = (
                result.answer("tree"),
                result.answer("root"),
                result.choices,
            )
        for tier in TIERS[1:]:
            assert outcomes["columnar"] == outcomes[tier], (tier, seed)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_nondeterministic_replays_identically(self, seed, reference):
        program = parse_program(
            "pick(x) :- S(x), not done. done :- S(x)."
        )
        db = Database({"S": [("a",), ("b",), ("c",), ("d",)]})
        outcomes = {}
        for tier in TIERS:
            run = _run(reference, run_nondeterministic, tier, program,
                       db.copy(), seed=seed)
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
        # ``--trace-out`` runs the counting kernels under a tracer.
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
    """``dump_codegen`` writes the plans that ran, shared-chain plans
    included."""

    def _ran(self, program):
        """Per plan that ran: its kernels as (name, bytecode, values)."""
        ran = []
        for rule in program.rules:
            for plan in cached_plans(rule):
                if plan.codegen_fns is not None:
                    ran.append(sorted(
                        (name, kernel.function.__code__.co_code,
                         kernel.function.__defaults__)
                        for name, kernel in plan.codegen_fns.kernels.items()
                    ))
        return sorted(ran)

    def _dump(self, program, directory) -> list[str]:
        """Dump ``program`` and check the files are exactly what ran."""
        ran = self._ran(program)
        paths = dump_codegen(program, str(directory))
        # Nothing built on demand: every file is code that ran, and
        # every plan that ran is in a file of its own.
        assert self._ran(program) == ran
        assert len(paths) == len(set(paths)) == len(ran)
        dumped = []
        for path in paths:
            text = Path(path).read_text()
            # Self-contained: executing the file defines each function
            # the plan ran, with its bytecode and its bound values.
            namespace: dict = {}
            exec(compile(text, path, "exec"), namespace)
            defined = sorted(
                (name, value.__code__.co_code, value.__defaults__)
                for name, value in namespace.items()
                if isinstance(value, FunctionType)
            )
            dumped.append(defined)
            for name, _code, _values in defined:
                assert f"def {name}(" in text
        assert sorted(dumped) == ran
        return paths

    def test_dumps_exactly_the_code_that_ran(self, tmp_path):
        PlanCache.clear()
        program = parse_program(TC_NONLINEAR)
        evaluate_datalog_seminaive(program, graph_database(chain(20)))
        paths = self._dump(program, tmp_path)
        # Every keyed probe walks a chain trie.
        texts = [Path(path).read_text() for path in paths]
        assert all(".index(" not in text for text in texts)
        recursive = [
            text for path, text in zip(paths, texts)
            if os.path.basename(path).startswith("rule1_")
        ]
        assert recursive
        assert all("chain" in text for text in recursive)

    def test_identity_cover_plans_keep_their_names(self, tmp_path):
        program = tc_program()
        evaluate_datalog_seminaive(program, graph_database(chain(20)))
        names = sorted(
            os.path.basename(path) for path in self._dump(program, tmp_path)
        )
        assert names == ["rule0_order_0.py", "rule1_order_1_0.py"]

    def test_shared_chain_plans_are_numbered_per_name(self, tmp_path):
        # The first run probes W's identity chain for rule 0; rule 1's
        # template then shares the chain (0, 1), which rule 0's second
        # run probes by prefix through a plan of its own.
        program = parse_program(SHARED_CHAIN)
        for _ in range(2):
            evaluate_datalog_seminaive(program, shared_chain_database())
        paths = self._dump(program, tmp_path)
        names = sorted(os.path.basename(path) for path in paths)
        assert names == [
            "rule0_order_0_1.py",
            "rule0_order_0_1_cover0.py",
            "rule1_order_0_1.py",
        ]
        shared = (tmp_path / "rule0_order_0_1_cover0.py").read_text()
        assert "p1((0, 1), 1, " in shared

    def test_wellfounded_dump_shows_the_rules_that_ran(self, tmp_path):
        # The alternating fixpoint runs a rewritten program; the rules
        # it leaves unchanged stay the program's own rule objects, so
        # their plans are what the dump shows, not on-demand builds.
        program = parse_program(
            TC_NONLINEAR + "W(x) :- G(x, y), not W(y).\n"
        )
        evaluate_wellfounded(program, _tc_db(4))
        paths = dump_codegen(program, str(tmp_path))
        assert sorted({os.path.basename(p)[:5] for p in paths}) == [
            "rule0", "rule1",
        ]
        assert all("def walk_full(" not in Path(p).read_text() for p in paths)

    def test_never_ran_program_compiles_on_demand(self, tmp_path):
        PlanCache.clear()
        program = parse_program(TC_NONLINEAR)
        paths = dump_codegen(program, str(tmp_path))
        assert len(paths) == len(program.rules)
        for path in paths:
            assert "def walk_full(" in Path(path).read_text()


class TestKernelLifetime:
    """Plans die with their rules; compiled code is kept per shape.

    What two evaluations in one process may share is compiled kernel
    code only — a pure function of the emitted text, which names no
    relation and no constant, so it does not grow with programs or
    data — and ``PlanCache.clear()`` drops even that, so the bench
    worker's cold start pays codegen as a fresh process would.
    """

    def test_universal_rule_keeps_its_plans_across_steps(self, monkeypatch):
        rule = parse_program("R(x) :- forall y: S(x), not Q(x, y).").rules[0]
        db = Database({"S": [("a",), ("b",)], "Q": [("a", "a")]})
        built = []
        original = codegen.compile_plan

        def counted(plan, name):
            built.append(name)
            return original(plan, name)

        monkeypatch.setattr(codegen, "compile_plan", counted)

        def step():
            return [dict(v) for v in iter_universal_matches(rule, db, adom)]

        adom = ("a", "b")
        first = step()
        assert first == [{Var("x"): "b"}]
        assert built  # the first step plans and builds its kernels
        built.clear()
        assert step() == first
        assert built == []  # the next step reuses them

    def test_traceback_shows_the_emitted_line(self):
        class Exploding:
            def __iter__(self):
                raise RuntimeError("boom")

        class Broken:
            """A database whose every relation fails to iterate."""

            def relation(self, name):
                return Exploding()

        PlanCache.clear()  # a shape of this test's own
        plan = plan_for(parse_program("H(x) :- G(x).").rules[0], (0,))
        with pytest.raises(RuntimeError) as raised:
            list(plan.iter_slot_matches(Broken(), ()))
        frames = [
            frame
            for frame in traceback.extract_tb(raised.value.__traceback__)
            if frame.filename.startswith("<codegen")
        ]
        assert [frame.line for frame in frames] == ["for c0 in list(rel0):"]
        filename = frames[0].filename
        assert filename in linecache.cache
        # The text is registered once per shape: it stays while the
        # shape table keeps the code, and leaves when the code dies.
        del raised, frames, plan
        gc.collect()
        assert filename in linecache.cache
        PlanCache.clear()
        gc.collect()
        assert filename not in linecache.cache

    def test_cold_reset_compiles_like_a_fresh_process(self, monkeypatch):
        # ``bench/worker.py``'s cold(): if any cache survived these
        # three resets, the next evaluation would compile less.
        compiled = []
        original = codegen._compile

        def counted(source, name):
            compiled.append(name)
            return original(source, name)

        monkeypatch.setattr(codegen, "_compile", counted)
        text = component_chain_source(4, 6)

        def cold_evaluation():
            PlanCache.clear()
            planner.clear_contexts()
            linecache.clearcache()
            before = len(compiled)
            program = parse_program(text)
            evaluate_datalog_seminaive(
                program, component_chain_database(4, 6)
            )
            return program, len(compiled) - before

        first_program, first = cold_evaluation()
        _second_program, second = cold_evaluation()
        assert first > 0
        assert second == first

    def test_fresh_parse_reuses_compiled_code(self, monkeypatch):
        # A program parsed again after the first parse is gone (a
        # benchmark round that parses afresh) plans and emits anew, but
        # finds every text compiled.
        compiled = []
        original = codegen._compile

        def counted(source, name):
            compiled.append(name)
            return original(source, name)

        monkeypatch.setattr(codegen, "_compile", counted)
        text = component_chain_source(4, 6)
        PlanCache.clear()
        program = parse_program(text)
        evaluate_datalog_seminaive(program, component_chain_database(4, 6))
        assert compiled
        rule = weakref.ref(program.rules[0])
        del program
        gc.collect()
        assert rule() is None
        compiled.clear()
        evaluate_datalog_seminaive(
            parse_program(text), component_chain_database(4, 6)
        )
        assert compiled == []

    def test_dropped_programs_leave_no_plans_and_code_per_shape(self):
        PlanCache.clear()
        gc.collect()
        plans_before = _live_plans()
        sources_before = _codegen_sources()
        rules = []
        shapes = []
        for seed in range(10):
            # Same shape, different gate constants per program.
            def relabel(value, seed=seed):
                return f"s{seed}_{value}"

            text = re.sub(
                r"'([^']*)'",
                lambda m: f"'{relabel(m.group(1))}'",
                component_chain_source(3, 5),
            )
            base = component_chain_database(3, 5)
            db = Database({
                name: [tuple(map(relabel, t)) for t in base.tuples(name)]
                for name in base.relation_names()
            })
            program = parse_program(text)
            result = evaluate_datalog_seminaive(program, db)
            for name, expected in reference_component_chain(3, 5).items():
                assert result.answer(name) == {
                    tuple(map(relabel, t)) for t in expected
                }
            rules.extend(weakref.ref(rule) for rule in program.rules)
            shapes.append((len(codegen._SHAPES),
                           len(_codegen_sources() - sources_before)))
        assert _live_plans() > plans_before
        # The first program compiled every shape; the other nine, with
        # their own constants, compiled nothing and registered nothing.
        assert shapes[0][0] > 0 and shapes == [shapes[0]] * 10
        del program, result, db
        gc.collect()
        # A live plan keeps its rule alive: with every rule gone, so is
        # every plan.  The code stays, once per shape, until cleared.
        assert all(rule() is None for rule in rules)
        assert _live_plans() == plans_before
        assert len(codegen._SHAPES) == shapes[0][0]
        PlanCache.clear()
        gc.collect()
        assert not codegen._SHAPES
        assert _codegen_sources() <= sources_before

    def test_plan_module_keeps_no_plan_registry(self):
        from repro.semantics import plan as plan_module

        containers = (Mapping, MutableSet, list)
        registries = [
            name
            for name, value in [*vars(plan_module).items(),
                                *vars(PlanCache).items()]
            if not name.startswith("__") and isinstance(value, containers)
        ]
        assert registries == []


def _live_plans() -> int:
    return sum(isinstance(obj, RulePlan) for obj in gc.get_objects())


def _codegen_sources() -> set:
    return {name for name in linecache.cache if name.startswith("<codegen")}
