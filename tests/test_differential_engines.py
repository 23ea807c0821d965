"""Differential testing: the three minimum-model engines must agree.

Naive, semi-naive and stratified evaluation all compute the minimum
model of a positive Datalog program (Theorem 3.1 / §3.2 — stratified
semantics degenerates to the minimum model when there is no negation).
Any divergence between them is a bug in one of the engines, so we
hammer them with seeded-random programs: random arities, constants,
repeated variables, recursion through the IDB, and bodyless ground
rules, over random EDB instances.
"""

import random

import pytest

from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics.naive import evaluate_datalog_naive
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified

CONSTANTS = ["a", "b", "c", "d"]
VARIABLES = ["x", "y", "z", "w"]


def random_program_and_database(rng: random.Random) -> tuple[str, Database]:
    """One random positive Datalog program + EDB instance.

    Guaranteed safe by construction: head variables are drawn from the
    body's variables, and a rule with an empty body gets a ground head.
    """
    edb = {f"R{i}": rng.randint(1, 3) for i in range(rng.randint(1, 3))}
    idb = {f"P{i}": rng.randint(1, 3) for i in range(rng.randint(1, 2))}
    schema = {**edb, **idb}

    lines = []
    for _ in range(rng.randint(2, 5)):
        body_atoms = []
        body_vars: list[str] = []
        for _ in range(rng.randint(0, 3)):
            relation = rng.choice(sorted(schema))
            terms = []
            for _ in range(schema[relation]):
                if rng.random() < 0.6:
                    # Repeated variables are likely and intended: the
                    # same name may appear several times in one rule.
                    variable = rng.choice(VARIABLES)
                    terms.append(variable)
                    body_vars.append(variable)
                else:
                    terms.append(f"'{rng.choice(CONSTANTS)}'")
            body_atoms.append(f"{relation}({', '.join(terms)})")
        head_relation = rng.choice(sorted(idb))
        head_terms = [
            rng.choice(body_vars)
            if body_vars and rng.random() < 0.7
            else f"'{rng.choice(CONSTANTS)}'"
            for _ in range(idb[head_relation])
        ]
        head = f"{head_relation}({', '.join(head_terms)})"
        if body_atoms:
            lines.append(f"{head} :- {', '.join(body_atoms)}.")
        else:
            lines.append(f"{head}.")

    facts = {
        (relation, arity): {
            tuple(rng.choice(CONSTANTS) for _ in range(arity))
            for _ in range(rng.randint(0, 4))
        }
        for relation, arity in edb.items()
    }
    return "\n".join(lines), Database(facts)


@pytest.mark.parametrize("seed", range(50))
def test_engines_agree_on_minimum_model(seed):
    rng = random.Random(seed)
    source, db = random_program_and_database(rng)
    program = parse_program(source, name=f"random-{seed}")

    naive = evaluate_datalog_naive(program, db)
    seminaive = evaluate_datalog_seminaive(program, db)
    stratified = evaluate_stratified(program, db)

    for relation in sorted(program.idb):
        expected = naive.answer(relation)
        assert seminaive.answer(relation) == expected, source
        assert stratified.answer(relation) == expected, source
    assert naive.database.canonical() == seminaive.database.canonical(), source
    assert naive.database.canonical() == stratified.database.canonical(), source


@pytest.mark.parametrize("seed", range(50))
def test_compiled_and_interpreted_matchers_agree(seed, reference):
    """The compiled kernels are a pure optimization: on every random
    program, each engine must produce byte-identical results — database,
    per-stage additions, stage counts, rule firings — whether it runs
    production (compiled) or, through the ``reference`` fixture, the
    reference (interpreted) matcher."""
    rng = random.Random(seed)
    source, db = random_program_and_database(rng)
    program = parse_program(source, name=f"random-{seed}")
    engines = {
        "naive": evaluate_datalog_naive,
        "seminaive": evaluate_datalog_seminaive,
        "stratified": evaluate_stratified,
    }

    for name, engine in engines.items():
        compiled = engine(program, db)
        with reference():
            interpreted = engine(program, db)
        assert interpreted.stats.matcher == "interpreted"
        context = f"{name}: {source}"
        assert (
            compiled.database.canonical() == interpreted.database.canonical()
        ), context
        assert compiled.stage_count == interpreted.stage_count, context
        assert compiled.rule_firings == interpreted.rule_firings, context
        for c_stage, i_stage in zip(compiled.stages, interpreted.stages):
            assert sorted(c_stage.new_facts, key=repr) == sorted(
                i_stage.new_facts, key=repr
            ), context


@pytest.mark.parametrize("seed", [3, 17, 41])
def test_random_programs_are_nontrivial(seed):
    """Sanity: the generator does produce derivations, not just noise."""
    rng = random.Random(seed)
    source, db = random_program_and_database(rng)
    program = parse_program(source, name=f"random-{seed}")
    result = evaluate_datalog_seminaive(program, db)
    assert any(result.answer(rel) for rel in program.idb)
