"""The ``count_full`` kernel counts what the reference matcher derives.

A support probe is a rule's plan with every head variable bound, and
its ``count_full`` kernel returns, for each tuple of a list of heads,
the number of body valuations deriving it.  Here that count must equal
one made on the test side: the valuations of the reference matcher
(:func:`repro.semantics.base.reference_matches`) whose instantiated
head equals the tuple.  Every fact of each model is checked, and so are
tuples outside it: each fact with one value swapped, and tuples drawn
from the model's values, which contradict head constants and repeated
head variables.
"""

import random
from collections import Counter

import pytest

from repro.parser import parse_program
from repro.programs.win import win_program
from repro.relational.instance import Database
from repro.semantics.base import (
    evaluation_adom,
    instantiate_head,
    reference_matches,
)
from repro.semantics.differential import support_probes
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import _transform, evaluate_wellfounded
from repro.workloads.games import game_database, random_game
from tests.test_differential_engines import random_program_and_database


def reference_counts(rule, db, adom) -> Counter:
    """Each head tuple's number of the reference matcher's valuations."""
    return Counter(
        instantiate_head(rule, valuation)[0][1]
        for valuation in reference_matches(rule, db, adom)
    )


def candidates(rule, db, rng) -> list[tuple]:
    """Every fact of the rule's head relation, each with one value
    swapped, and tuples drawn from the instance's values."""
    (head,) = rule.head_literals()
    arity = len(head.atom.terms)
    facts = sorted(db.tuples(head.relation), key=repr)
    values = sorted(db.active_domain(), key=repr) + ["absent"]
    out = list(facts)
    for t in facts:
        if arity:
            at = rng.randrange(arity)
            out.append(t[:at] + (rng.choice(values),) + t[at + 1:])
    out.extend(
        tuple(rng.choice(values) for _ in range(arity)) for _ in range(8)
    )
    return out


def probe_of(rule, db):
    """The rule's support probe, ordered by ``db``."""
    ((probe,),) = support_probes([rule], db).values()
    return probe


def check(rule, db, adom, heads) -> None:
    probe = probe_of(rule, db)
    expected = reference_counts(rule, db, adom)
    assert probe.count_heads(db, adom, heads) == [
        expected[t] for t in heads
    ], str(rule)
    assert "count_full" in probe.compiled().kernels


@pytest.mark.parametrize("seed", range(100))
def test_counts_equal_the_reference_on_generated_programs(seed):
    rng = random.Random(seed)
    source, base = random_program_and_database(rng)
    program = parse_program(source, name=f"count-{seed}")
    db = evaluate_datalog_seminaive(program, base).database
    adom = evaluation_adom(program, db)
    for rule in program.rules:
        check(rule, db, adom, candidates(rule, db, rng))


GRAPH = Database({
    "E": [("a", "b"), ("b", "b"), ("b", "c"), ("c", "a"), ("c", "c")],
    "V": [("a",), ("b",), ("c",), ("d",)],
})


@pytest.mark.parametrize("source", [
    "P('k', x) :- E(x, y).",
    "P(x, 'k', y) :- E(x, z), E(z, y).",
    "P(x, x) :- E(x, y), E(y, x).",
    "P(y, x, y) :- E(x, y), V(x).",
    "P('k') :- E(x, x).",
    "P :- E(x, y), E(y, x).",
    "P(x) :- V(x), not E(x, z).",
    "P(x, y) :- V(x), V(y), x != y, not E(x, w), not E(w, y).",
], ids=["head-constant", "inner-constant", "repeated", "repeated-outer",
        "ground", "nullary", "adom", "adom-twice"])
def test_counts_equal_the_reference_on_head_shapes(source):
    program = parse_program(source)
    (rule,) = program.rules
    db = evaluate_stratified(program, GRAPH, validate=False).database
    adom = evaluation_adom(program, db)
    check(rule, db, adom, candidates(rule, db, random.Random(7)))


def test_adom_variables_make_the_kernel_loop():
    program = parse_program("P(x) :- V(x), not E(x, z).")
    (rule,) = program.rules
    db = GRAPH.copy()
    adom = evaluation_adom(program, db)
    probe = probe_of(rule, db)
    assert probe.unbound_slots  # z ranges over the active domain
    # a: E(a, b) only, so z ranges over a, c and d; d has no E at all.
    assert probe.count_heads(db, adom, [("a",), ("d",), ("e",)]) == [3, 4, 0]
    assert "for v" in probe.compiled().kernel("count_full").source


def test_the_transformed_win_rule_reads_the_assumption_live():
    # The odd side's win rule negates win__wf_assumed, which is the even
    # side's win relation object: the kernel reads its live set per call.
    program = win_program()
    (rule,) = _transform(program).rules
    game = game_database(random_game(30, 0.1, seed=3))
    model = evaluate_wellfounded(program, game)
    odd = game.copy()
    possible = odd.ensure_relation("win", 1)
    possible.update(t for relation, t in model.possible_facts)
    even = Database({("win", 1): [t for _r, t in model.true_facts]})
    odd.attach("win__wf_assumed", even.relation("win"))
    adom = evaluation_adom(program, odd)
    positions = sorted({(v,) for t in odd.tuples("moves") for v in t})
    probe = probe_of(rule, odd)
    kernel = probe.compiled().kernel("count_full")
    assert "live_set()" in kernel.source and "has_fact" not in kernel.source
    for step in range(3):
        expected = reference_counts(rule, odd, adom)
        assert probe.count_heads(odd, adom, positions) == [
            expected[t] for t in positions
        ], step
        # The assumption set grows between calls, as an even step's
        # model does; the next count must see it.
        missing = [t for t in positions if t not in even.relation("win")]
        even.relation("win").add_batch(missing[: len(missing) // 2 + 1])
    assert any(t in possible for t in positions)
