"""The maintained view's initial materialization and its counts.

A ``DifferentialEngine`` builds its view component by component, each
through the planner's scheduled fixpoint, and stores no count: the
derivation counts of its nonrecursive components (``engine.counts``,
``CountingView.count``) come from the support probes' ``count_full``
kernels when read.  They are the view's derivation-count provenance,
so they must equal a count taken with the reference matcher, for every
head shape the kernel has to check: a constant in the head, a
repeated head variable, two rules sharing a head relation, a body of
ground literals only, and a rule with no body at all.
"""

import random
from collections import Counter

import pytest

from repro.errors import SchemaError
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics import planner
from repro.semantics.base import instantiate_head, reference_matches
from repro.semantics.counting import CountingView
from repro.semantics.differential import DifferentialEngine
from repro.semantics.seminaive import evaluate_datalog_seminaive

#: Nonrecursive rule shapes; ``{i}`` makes each instance's head unique.
SHAPES = {
    "head_constant": ["C{i}(x, 'c') :- A(x, y), B(y)."],
    "repeated_head_variable": ["V{i}(y, x, y) :- A(x, y), A(y, z)."],
    "two_rules_one_head": [
        "U{i}(x) :- A(x, y), B(y).",
        "U{i}(z) :- A(x, z), A(z, x).",
    ],
    "ground_body": ["W{i}('k') :- A('a', 'b'), B('b')."],
}

#: A layer reading the shapes' heads, so nonrecursive components stack.
UPPER = "L{i}(x) :- C{i}(x, c), U{i}(x)."

CONSTANTS = ["a", "b", "c", "d", "e", "f"]


def corpus_case(seed: int) -> tuple[str, dict[str, list[tuple]]]:
    """A nonrecursive program holding every shape, and its base."""
    rng = random.Random(seed)
    lines: list[str] = []
    for i in range(rng.randint(1, 2)):
        for name in sorted(SHAPES):
            lines.extend(rule.format(i=i) for rule in SHAPES[name])
        lines.append(UPPER.format(i=i))
    rng.shuffle(lines)
    a = {
        (rng.choice(CONSTANTS), rng.choice(CONSTANTS))
        for _ in range(rng.randint(10, 30))
    }
    if rng.random() < 0.7:
        a.add(("a", "b"))
    b = {(rng.choice(CONSTANTS),) for _ in range(rng.randint(1, 5))}
    if rng.random() < 0.7:
        b.add(("b",))
    return "\n".join(lines), {"A": sorted(a), "B": sorted(b)}


def reference_counts(program, base: Database) -> Counter:
    """Derivation counts of every idb fact over the minimum model, each
    valuation found by the reference matcher."""
    model = evaluate_datalog_seminaive(program, base).database
    counts: Counter = Counter()
    for rule in program.rules:
        for valuation in reference_matches(rule, model, ()):
            for relation, t, _positive in instantiate_head(rule, valuation):
                counts[(relation, t)] += 1
    return counts


class TestCountedMaterialization:
    @pytest.mark.parametrize("seed", range(20))
    def test_counts_match_the_reference(self, seed):
        source, facts = corpus_case(seed)
        program = parse_program(source)
        engine = DifferentialEngine(program, Database(facts))
        expected = reference_counts(program, Database(facts))
        assert engine.counts == expected
        assert CountingView(parse_program(source), Database(facts)).counts \
            == expected
        assert engine.consistent_with_scratch()

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_stay_exact_under_updates(self, seed):
        source, facts = corpus_case(seed)
        program = parse_program(source)
        engine = DifferentialEngine(program, Database(facts))
        rng = random.Random(seed)
        for _ in range(6):
            fact = ("A", (rng.choice(CONSTANTS), rng.choice(CONSTANTS)))
            if rng.random() < 0.5:
                engine.insert([fact])
            else:
                engine.delete([fact])
            base = engine.database.restrict(["A", "B"])
            assert engine.counts == reference_counts(program, base)
            assert engine.consistent_with_scratch()

    def test_every_shape_counts_and_both_walks_run(self):
        source, facts = corpus_case(0)
        facts["A"].append(("a", "b"))
        facts["B"].append(("b",))
        program = parse_program(source)
        engine = DifferentialEngine(program, Database(facts))
        assert engine.counts[("W0", ("k",))] == 1
        a, b = set(facts["A"]), set(facts["B"])
        assert engine.counts[("U0", ("a",))] == (
            sum(1 for x, y in a if x == "a" and (y,) in b)
            + sum(1 for x, z in a if z == "a" and (z, x) in a)
        )
        assert all(t[0] == t[2] for rel, t in engine.counts if rel == "V0")
        assert all(t[1] == "c" for rel, t in engine.counts if rel == "C0")

    def test_mixed_program_counts_above_a_recursive_component(self):
        source = (
            "T(x, y) :- A(x, y).\nT(x, z) :- T(x, y), A(y, z).\n"
            "P(x, 'c') :- T(x, y), T(y, x).\nQ('k') :- A('a', 'b').\n"
        )
        facts = {"A": [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]}
        program = parse_program(source)
        engine = DifferentialEngine(program, Database(facts))
        expected = reference_counts(program, Database(facts))
        assert engine.counts == Counter({
            fact: n for fact, n in expected.items() if fact[0] in ("P", "Q")
        })
        assert engine.consistent_with_scratch()

    @pytest.mark.parametrize("seed", range(5))
    def test_count_per_tuple_matches_the_reference(self, seed):
        source, facts = corpus_case(seed)
        source += "\nP('d').\nP(x) :- A(x, y).\n"
        facts["A"] = [t for t in facts["A"] if t[0] != "d"] + [("d", "e")]
        program = parse_program(source)
        view = CountingView(program, Database(facts))
        assert view.count("P", ("d",)) == 2  # the bodiless rule and A(d, e)
        rng = random.Random(seed)
        for _ in range(6):
            fact = ("A", (rng.choice(CONSTANTS), rng.choice(CONSTANTS)))
            if rng.random() < 0.5:
                view.insert([fact])
            else:
                view.delete([fact])
            expected = reference_counts(
                program, view.database.restrict(["A", "B"])
            )
            assert view.count("P", ("d",)) == expected[("P", ("d",))]
            for relation, t in expected:
                assert view.count(relation, t) == expected[(relation, t)]
            assert view.count("P", ("zz",)) == 0  # outside the view
            assert view.count("A", ("d", "e")) == 0  # a base relation
        with pytest.raises(SchemaError):
            view.count("P", ("d", "e"))  # P has arity 1


def watch_base(dags: int, nodes: int, seed: int) -> dict[str, list[tuple]]:
    """Forward DAGs of out-degree 2, as the update benchmark's view."""
    rng = random.Random(seed)
    edges = set()
    for d in range(dags):
        for i in range(nodes - 1):
            for _ in range(2):
                j = rng.randint(i + 1, min(i + 4, nodes - 1))
                edges.add((f"d{d}n{i}", f"d{d}n{j}"))
    return {"G": sorted(edges)}


WATCH = """
T(x, y) :- G(x, y).
T(x, y) :- G(x, z), T(z, y).
H(x, z) :- G(x, y), G(y, z).
"""


def test_watch_view_builds_in_one_scheduled_fixpoint(monkeypatch):
    """The whole view is one scheduled fixpoint over the engine's own
    copy of the program: the caller's rules in the caller's order."""
    programs = []
    original = planner.scheduled_fixpoint

    def counted(program, *args, **kwargs):
        programs.append(program)
        return original(program, *args, **kwargs)

    program = parse_program(WATCH)
    monkeypatch.setattr(planner, "scheduled_fixpoint", counted)
    engine = DifferentialEngine(program, Database(watch_base(3, 20, seed=1)))
    monkeypatch.undo()
    (planned,) = programs
    assert planned is not program and planned.rules == program.rules
    assert len(planner.plan_context(planned).schedule) == 2  # H, then T
    assert engine.consistent_with_scratch()


def test_watch_view_builds_without_add_fact(monkeypatch):
    """Both components absorb in bulk: no per-fact ``add_fact`` call."""
    calls = []
    add_fact = Database.add_fact

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_fact(self, *args, **kwargs)

    facts = watch_base(3, 20, seed=1)
    monkeypatch.setattr(Database, "add_fact", counted)
    engine = DifferentialEngine(parse_program(WATCH), Database(facts))
    assert calls == []
    monkeypatch.undo()
    assert len(engine.answer("T")) > len(facts["G"])
    assert engine.consistent_with_scratch()
