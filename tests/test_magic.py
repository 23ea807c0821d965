"""The magic-set transform: structure, semantics preservation, demand.

The headline guarantee is differential: on 50 random positive programs
with random bound queries, the transformed program answers byte-
identically to full semi-naive evaluation (and to the tabling top-down
engine).  Structural tests pin the Beeri–Ramakrishnan shape; the
adornment sweep runs the binding-time analysis over every bundled
example program.
"""

import random
from pathlib import Path

import pytest

from repro.analysis.dataflow import adorn, adornment_for
from repro.errors import EvaluationError
from repro.parser import parse_program
from repro.programs.tc import tc_left_program, tc_program
from repro.semantics.magic import magic_transform, query_magic
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.topdown import query_topdown
from repro.workloads.graphs import chain, graph_database, random_gnp

from tests.test_differential_engines import (
    CONSTANTS,
    random_program_and_database,
)

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "datalog").glob(
        "*.dl"
    )
)


def bottom_up_answers(program, db, relation, pattern):
    full = evaluate_datalog_seminaive(program, db).answer(relation)
    return frozenset(
        t
        for t in full
        if all(p is None or p == v for p, v in zip(pattern, t))
    )


class TestTransformStructure:
    def test_source_bound_left_linear(self):
        transformed = magic_transform(tc_left_program(), "T", ("n0", None))
        assert transformed.answer_relation == "T_bf"
        assert transformed.seeds == [("magic_T_bf", ("n0",))]
        assert transformed.adorned_names == {("T", "bf"): "T_bf"}
        assert transformed.magic_names == {("T", "bf"): "magic_T_bf"}
        # Left-linear recursion passes its binding through unchanged,
        # so the only demand rule is the guard-only tautology — which
        # is dropped, leaving just the two adorned rules.
        assert sorted(transformed.program.idb) == ["T_bf"]
        # ... which leaves the magic predicate purely extensional: the
        # query seed is its only fact.
        assert "magic_T_bf" in transformed.program.edb
        assert len(transformed.program.rules) == 2

    def test_right_linear_emits_demand_rule(self):
        transformed = magic_transform(tc_program(), "T", ("n0", None))
        demand = [
            rule
            for rule in transformed.program.rules
            if rule.head_literals()[0].relation == "magic_T_bf"
        ]
        # magic_T_bf(z) :- magic_T_bf(x), G(x, z): demand walks the edge.
        assert len(demand) == 1
        body_relations = [lit.relation for lit in demand[0].body]
        assert body_relations == ["magic_T_bf", "G"]

    def test_all_free_query_has_no_magic_predicate(self):
        transformed = magic_transform(tc_left_program(), "T", (None, None))
        assert transformed.seeds == []
        assert transformed.magic_names == {}
        assert transformed.answer_relation == "T_ff"

    def test_fresh_names_avoid_collisions(self):
        program = parse_program(
            "T(x, y) :- G(x, y).\n"
            "T(x, y) :- T(x, z), G(z, y).\n"
            "T_bf(x) :- G(x, x).\n"
        )
        transformed = magic_transform(program, "T", ("a", None))
        assert transformed.adorned_names[("T", "bf")] != "T_bf"

    def test_edb_relation_rejected(self):
        with pytest.raises(EvaluationError):
            magic_transform(tc_program(), "G", ("a", None))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            magic_transform(tc_program(), "T", ("a",))

    def test_negation_rejected(self):
        program = parse_program("A(x) :- E(x), not B(x).\nB(x) :- F(x).\n")
        with pytest.raises(EvaluationError):
            magic_transform(program, "A", ("a",))


class TestQueryMagic:
    @pytest.mark.parametrize(
        "program", [tc_program(), tc_left_program()], ids=["right", "left"]
    )
    @pytest.mark.parametrize(
        "pattern", [(None, None), ("n0", None), (None, "n3"), ("n0", "n3")]
    )
    def test_matches_bottom_up_on_chain(self, program, pattern):
        db = graph_database(chain(5))
        result = query_magic(program, db, "T", pattern)
        assert result.answers == bottom_up_answers(program, db, "T", pattern)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_bound_source(self, seed):
        edges = random_gnp(7, 0.25, seed=seed)
        db = graph_database(edges)
        nodes = sorted({v for e in edges for v in e}) or ["n0"]
        pattern = (nodes[0], None)
        result = query_magic(tc_program(), db, "T", pattern)
        assert result.answers == bottom_up_answers(
            tc_program(), db, "T", pattern
        )

    def test_edb_query_answers_directly(self):
        db = graph_database(chain(3))
        result = query_magic(tc_program(), db, "G", ("n0", None))
        assert result.answers == frozenset({("n0", "n1")})

    def test_demand_cone_is_linear_on_a_chain(self):
        # The magic-set ablation's fact gate in miniature: a
        # source-bound query over left-linear TC on a chain derives the
        # reachable facts plus seeds, not the quadratic closure.
        n = 24
        program = tc_left_program()
        db = graph_database(chain(n))
        magic = query_magic(program, db, "T", ("n0", None))
        full = evaluate_datalog_seminaive(program, db)
        full_facts = sum(len(full.answer(r)) for r in sorted(program.idb))
        assert magic.facts_computed() <= 2 * n
        assert full_facts >= 5 * magic.facts_computed()

    def test_strategy_magic_via_topdown(self):
        db = graph_database(chain(5))
        via_topdown = query_topdown(
            tc_left_program(), db, "T", ("n0", None), strategy="magic"
        )
        direct = query_magic(tc_left_program(), db, "T", ("n0", None))
        assert via_topdown.answers == direct.answers


def random_bound_pattern(rng, program, relation):
    """Bind each position with probability 1/2 to a plausible constant."""
    return tuple(
        rng.choice(CONSTANTS) if rng.random() < 0.5 else None
        for _ in range(program.arity(relation))
    )


@pytest.mark.parametrize("seed", range(50))
def test_magic_preserves_query_semantics(seed):
    """The PR's differential gate: on a random positive program and a
    random (possibly partially bound) query, the magic rewrite answers
    exactly what full evaluation plus filtering answers — and what the
    tabling top-down engine answers."""
    rng = random.Random(seed)
    source, db = random_program_and_database(rng)
    program = parse_program(source, name=f"random-magic-{seed}")
    relation = rng.choice(sorted(program.idb))
    pattern = random_bound_pattern(rng, program, relation)

    expected = bottom_up_answers(program, db, relation, pattern)
    magic = query_magic(program, db, relation, pattern)
    assert magic.answers == expected, (source, relation, pattern)

    tabled = query_topdown(program, db, relation, pattern)
    assert tabled.answers == expected, (source, relation, pattern)


class TestAdornmentSweep:
    """Binding-time analysis over every bundled example program.

    The magic transform itself is positive-Datalog only, but adorn()
    must produce a well-formed demand cone for all 20 examples across
    every dialect rung — adornment strings match arities, demanded
    relations are idb, the cone contains the query.
    """

    def test_examples_are_bundled(self):
        assert len(EXAMPLES) == 20

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_adorns_every_idb_relation(self, path):
        program = parse_program(path.read_text(), name=path.stem)
        for relation in sorted(program.idb):
            arity = program.arity(relation)
            for pattern in [
                (None,) * arity,
                ("a",) * arity if arity else (),
            ]:
                binding = adorn(program, relation, pattern)
                assert relation in binding.cone_relations()
                assert binding.demanded.get(relation), (
                    f"{relation} must demand its own query adornment"
                )
                assert adornment_for(pattern) in binding.demanded[relation]
                for rel, adornments in binding.demanded.items():
                    assert rel in program.idb
                    for adornment in adornments:
                        assert len(adornment) == program.arity(rel)
                        assert set(adornment) <= {"b", "f"}
                for rel in binding.edb_reached:
                    assert rel in program.edb
                cone = binding.cone_rule_indices(program)
                assert cone <= frozenset(range(len(program.rules)))
