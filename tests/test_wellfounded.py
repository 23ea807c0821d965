"""Tests for the well-founded semantics (§3.3) and stable models."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.ast.analysis import is_stratifiable
from repro.parser import parse_program
from repro.relational.instance import Database
from repro.semantics import planner
from repro.semantics.base import evaluation_adom
from repro.semantics.stratified import evaluate_stratified
from repro.semantics.wellfounded import (
    _assumed_name,
    _transform,
    alternating_sequence,
    evaluate_wellfounded,
)
from repro.semantics.stable import (
    is_stable_model,
    stable_models,
    wellfounded_true_in_all_stable,
)
from repro.programs.win import paper_win_instance, win_program
from repro.workloads.games import game_database, random_game, solve_game_reference
from repro.workloads.graphs import chain

#: ``S`` probes ``R`` by key while ``R``, ``S`` and ``W`` are also read
#: negatively, so a work database's ``R`` is the other one's
#: assumption relation.
KEYED_SOURCE = (
    "R(x,y) :- G(x,y), not R(y,x).\n"
    "S(x,z) :- G(x,y), R(y,z).\n"
    "W(x) :- G(x,y), not S(y,x), not W(y).\n"
)
KEYED_EDGES = (
    [(f"n{i}", f"n{(7 * i + 3) % 10}") for i in range(10)]
    + [(f"n{i}", f"n{(i + 1) % 10}") for i in range(10)]
    + [("n1", "n0"), ("n2", "n1")]
)

#: Stratifiable programs, on which well-founded = stratified.
STRATIFIABLE = [
    (
        "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). CT(x,y) :- not T(x,y).",
        Database({"G": [("a", "b"), ("b", "c")]}),
    ),
    (
        "R(x) :- S(x), not E(x).",
        Database({"S": [("a",), ("b",)], "E": [("b",)]}),
    ),
    # The input already holds the idb fact T(b,c): it is true, so
    # ¬T(b,c) is false and CT leaves (b,c) out.
    (
        "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y). "
        "CT(x,y) :- V(x), V(y), not T(x,y).",
        Database({
            "G": [("a", "b")],
            "V": [("a",), ("b",), ("c",)],
            "T": [("b", "c")],
        }),
    ),
]


class TestPaperExample32:
    """The exact instance of Example 3.2."""

    def test_true_facts(self):
        model = evaluate_wellfounded(win_program(), paper_win_instance())
        assert model.answer("win") == frozenset({("d",), ("f",)})

    def test_unknown_facts(self):
        model = evaluate_wellfounded(win_program(), paper_win_instance())
        assert model.unknowns("win") == frozenset({("a",), ("b",), ("c",)})

    def test_false_facts(self):
        model = evaluate_wellfounded(win_program(), paper_win_instance())
        assert model.truth_value("win", ("e",)) == "false"
        assert model.truth_value("win", ("g",)) == "false"

    def test_not_total(self):
        model = evaluate_wellfounded(win_program(), paper_win_instance())
        assert not model.is_total()

    def test_true_database_contains_edb(self):
        model = evaluate_wellfounded(win_program(), paper_win_instance())
        db = model.true_database()
        assert db.has_fact("moves", ("a", "b"))
        assert db.has_fact("win", ("d",))
        assert not db.has_fact("win", ("a",))


class TestGameReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_games_match_backward_induction(self, seed):
        moves = random_game(7, 0.25, seed=seed)
        if not moves:
            pytest.skip("empty game")
        model = evaluate_wellfounded(win_program(), game_database(moves))
        winning, losing, drawn = solve_game_reference(moves)
        assert {t[0] for t in model.answer("win")} == winning
        assert {t[0] for t in model.unknowns("win")} == drawn
        for state in losing:
            assert model.truth_value("win", (state,)) == "false"


class TestWinningStrategy:
    def test_paper_strategy(self):
        """Example 3.2: 'winning strategies from states d (move to e)
        and f (move to g)'."""
        from repro.programs.win import winning_strategy
        from repro.workloads.games import paper_game

        assert winning_strategy(paper_game()) == {"d": "e", "f": "g"}

    @pytest.mark.parametrize("seed", range(4))
    def test_strategy_moves_into_losing_states(self, seed):
        from repro.programs.win import winning_strategy
        from repro.workloads.games import random_game, solve_game_reference

        moves = random_game(7, 0.25, seed=seed)
        if not moves:
            pytest.skip("empty game")
        strategy = winning_strategy(moves)
        winning, losing, _ = solve_game_reference(moves)
        assert set(strategy) == winning
        for src, dst in strategy.items():
            assert (src, dst) in set(moves)
            assert dst in losing


class TestAlternatingFixpoint:
    def test_even_sequence_increases(self):
        seq = alternating_sequence(win_program(), paper_win_instance())
        values = [next(seq) for _ in range(7)]
        evens = values[0::2]
        for a, b in zip(evens, evens[1:]):
            assert a <= b

    def test_odd_sequence_decreases(self):
        seq = alternating_sequence(win_program(), paper_win_instance())
        values = [next(seq) for _ in range(8)]
        odds = values[1::2]
        for a, b in zip(odds, odds[1:]):
            assert a >= b

    def test_even_below_odd(self):
        model = evaluate_wellfounded(win_program(), paper_win_instance())
        assert model.true_facts <= model.possible_facts


class TestAgreementWithStratified:
    """On stratifiable programs, well-founded = stratified and is total."""

    @pytest.mark.parametrize("source,input_db", STRATIFIABLE)
    def test_coincide_and_total(self, source, input_db):
        program = parse_program(source)
        wf = evaluate_wellfounded(program, input_db)
        strat = evaluate_stratified(program, input_db)
        assert wf.is_total()
        for relation in program.idb:
            assert wf.answer(relation) == strat.answer(relation)


def _reference_sequence(program, db):
    """Yield (Iₖ, firings of the step that made it), each step computed
    afresh: a new copy of the input, the assumption set loaded fact by
    fact, then the scheduled least fixpoint."""
    transformed = _transform(program)
    adom = evaluation_adom(program, db)
    current = frozenset((r, t) for r in program.idb for t in db.tuples(r))
    firings = 0
    while True:
        yield current, firings
        work = db.copy()
        for relation in transformed.idb:
            work.ensure_relation(relation, transformed.arity(relation))
        for relation, t in current:
            work.add_fact(_assumed_name(relation), t)
        firings, _ = planner.scheduled_fixpoint(transformed, work, adom)
        current = frozenset(
            (r, t) for r in transformed.idb for t in work.tuples(r)
        )


def _reference_model(program, db):
    """(true, possible, rounds, per-step (firings, added)), stopping when
    both subsequences repeat, compared as sets."""
    sequence = _reference_sequence(program, db)
    given, _ = next(sequence)
    steps = []

    def step():
        iterate, firings = next(sequence)
        steps.append((firings, len(iterate) - len(given)))
        return iterate

    even, odd = given, step()
    rounds = 0
    while True:
        rounds += 1
        next_even, next_odd = step(), step()
        if next_even == even and next_odd == odd:
            return even, odd, rounds, steps
        even, odd = next_even, next_odd


REFERENCE_CASES = [
    pytest.param(win_program(), paper_win_instance(), id="paper"),
    *(
        pytest.param(
            win_program(),
            game_database(random_game(12, 0.2, seed=seed)),
            id=f"random-{seed}",
        )
        for seed in range(20)
    ),
    pytest.param(
        win_program(),
        game_database(chain(30) + random_game(12, 0.2, seed=5)),
        id="chain-plus-random",
    ),
    pytest.param(
        parse_program(KEYED_SOURCE), Database({"G": KEYED_EDGES}), id="keyed"
    ),
    *(
        pytest.param(parse_program(source), db, id=f"stratifiable-{i}")
        for i, (source, db) in enumerate(STRATIFIABLE)
    ),
]


class TestAgainstPerStepReference:
    """The two-database alternation against S(J) computed afresh."""

    @pytest.mark.parametrize("program,db", REFERENCE_CASES)
    def test_same_model_rounds_and_stages(self, program, db):
        model = evaluate_wellfounded(program, db)
        true, possible, rounds, steps = _reference_model(program, db)
        assert model.true_facts == true
        assert model.possible_facts == possible
        assert model.alternation_rounds == rounds
        stages = model.stats.stages
        assert [s.added for s in stages] == [added for _, added in steps]
        # Each side's first step computes its least model afresh, as the
        # reference does every step; a later step costs the change, so
        # it never fires more than recomputing would.
        firings = [s.firings for s in stages]
        assert firings[:2] == [f for f, _ in steps[:2]]
        assert all(ours <= f for ours, (f, _) in zip(firings[2:], steps[2:]))
        assert model.rule_firings == sum(firings)

    @pytest.mark.parametrize("program,db", REFERENCE_CASES)
    def test_same_iterates(self, program, db):
        ours = alternating_sequence(program, db)
        reference = _reference_sequence(program, db)
        for _ in range(8):
            assert next(ours) == next(reference)[0]

    def test_two_copies_and_no_reloads(self, monkeypatch):
        calls = {"copy": 0, "add_fact": 0}
        for name in calls:
            original = getattr(Database, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Database, name, counted)
        model = evaluate_wellfounded(win_program(), game_database(chain(30)))
        assert model.alternation_rounds == 16
        assert calls == {"copy": 2, "add_fact": 0}


def _assert_matches_reference(program, db):
    """The model, its rounds, per-step sizes and first 8 iterates all
    equal the per-step reference's; returns the model."""
    model = evaluate_wellfounded(program, db)
    true, possible, rounds, steps = _reference_model(program, db)
    assert model.true_facts == true
    assert model.possible_facts == possible
    assert model.alternation_rounds == rounds
    assert [s.added for s in model.stats.stages] == [a for _, a in steps]
    ours = alternating_sequence(program, db)
    reference = _reference_sequence(program, db)
    for _ in range(8):
        assert next(ours) == next(reference)[0]
    return model


class TestIncrementalSteps:
    """One program per case an incremental step can easily get wrong."""

    def test_two_negated_tuples_enter_in_one_step(self):
        # B(a) and B(b) enter the assumption set together.  A(a) must be
        # over-deleted although its other negated literal now fails too.
        program = parse_program(
            "A(x) :- E(x, y), not B(x), not B(y). B(x) :- V(x)."
        )
        db = Database({"E": [("a", "b")], "V": [("a",), ("b",)]})
        model = _assert_matches_reference(program, db)
        assert model.truth_value("A", ("a",)) == "false"
        assert model.is_total()

    def test_variable_bound_only_under_negation(self):
        # Rederiving R(a, b) needs an x with R(a, x) assumed false:
        # support checks must range x over the active domain.
        program = parse_program("R(y, z) :- E(y, z), not R(y, x).")
        db = Database({"E": [("a", "b")]})
        model = _assert_matches_reference(program, db)
        assert model.truth_value("R", ("a", "b")) == "true"

    def test_given_fact_whose_only_derivation_dies(self):
        # P(a) loses its derivation when Q(a) enters the assumption set,
        # but the input gives it, so it stays.
        program = parse_program(
            "P(x) :- V(x), not Q(x). Q(x) :- V(x), not R(x). R(x) :- W(x)."
        )
        db = Database({"V": [("a",)], ("W", 1): [], "P": [("a",)]})
        model = _assert_matches_reference(program, db)
        assert model.truth_value("P", ("a",)) == "true"
        assert model.truth_value("Q", ("a",)) == "true"

    @pytest.mark.parametrize("n,firings", [(30, 58), (100, 198)])
    def test_chain_game_fires_linearly(self, monkeypatch, n, firings):
        # 2n - 2 firings; recomputing every step fires quadratically
        # (495 at n = 30, 5,150 at n = 100).
        calls = []
        original = planner.scheduled_fixpoint

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(planner, "scheduled_fixpoint", counted)
        model = evaluate_wellfounded(win_program(), game_database(chain(n)))
        assert model.rule_firings == firings
        assert len(calls) == 2  # each side's first step

    def test_planner_report_is_the_programs(self):
        # The seed passes run rewritten programs of their own; the run's
        # report stays the transformed program's, numbered like the
        # program, where win's only rule runs full passes alone.
        model = evaluate_wellfounded(win_program(), game_database(chain(30)))
        rules = model.stats.planner["rules"]
        assert list(rules) == ["0"]
        assert [key for key in rules["0"] if key != "actual_rows"] == ["full"]

    def test_seed_pass_spans_name_the_programs_rule(self):
        # A seed pass runs variants of win's rule, which is rule 1 here:
        # its spans open with that index, not the variant's own (0).
        from repro.obs import CollectorSink, Tracer

        sink = CollectorSink()
        program = parse_program(
            "reach(x, y) :- moves(x, y).\n"
            "win(x) :- moves(x, y), not win(y).\n"
        )
        evaluate_wellfounded(
            program, game_database(chain(8)), tracer=Tracer([sink])
        )
        seeded = [
            event for event in sink.rule_events()
            if event.rule == "win(x) :- moves(x, y), win__wf_flip(y)."
        ]
        assert len(seeded) == 7
        assert {event.rule_index for event in seeded} == {1}
        assert {event.span for event in seeded} == {program.rules[1].span}

    def test_replays_under_any_hash_seed(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        path = os.pathsep.join(
            [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
        )
        script = "from tests.test_wellfounded import _replay; print(_replay())"
        outputs = set()
        for seed in ("0", "1"):
            completed = subprocess.run(
                [sys.executable, "-c", script],
                cwd=root,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            outputs.add(completed.stdout)
        assert len(outputs) == 1


def _replay() -> str:
    """Models and stage records of every reference case, as text."""
    lines = []
    for case in REFERENCE_CASES:
        model = evaluate_wellfounded(*case.values)
        lines.append(repr((
            case.id,
            sorted(map(repr, model.true_facts)),
            sorted(map(repr, model.possible_facts)),
            model.alternation_rounds,
            [
                (s.firings, s.added, s.index_builds, s.index_updates,
                 s.index_drops)
                for s in model.stats.stages
            ],
        )))
    return "\n".join(lines)


#: The corpus's relations and their arities: idb P, Q, R; edb E, V.
CORPUS_ARITY = {"P": 1, "Q": 2, "R": 2, "E": 2, "V": 1}


def _corpus_rule(rng: random.Random) -> str:
    """One rule: 1-3 positive literals and 0-2 negated ones, half of
    which negate the head relation (``win``'s shape, which alternates
    deeply on a chain).  A negated literal may use ``w``, which no
    positive literal binds, and so may the head then."""

    def atom(relation, pool):
        terms = [rng.choice(pool) for _ in range(CORPUS_ARITY[relation])]
        return f"{relation}({', '.join(terms)})"

    head_relation = rng.choice("PQR")
    positives = [
        atom(rng.choice("EEVPQR"), "xyz") for _ in range(rng.randint(1, 3))
    ]
    bound = sorted({v for lit in positives for v in "xyz" if v in lit})
    negatives = []
    for _ in range(rng.randint(0, 2)):
        relation = head_relation if rng.random() < 0.5 else rng.choice("PQRE")
        pool = bound + ["w"] if rng.random() < 0.3 else bound
        negatives.append("not " + atom(relation, pool))
    head_pool = bound
    if any("w" in lit for lit in negatives) and rng.random() < 0.3:
        head_pool = bound + ["w"]
    head = atom(head_relation, head_pool)
    return f"{head} :- {', '.join(positives + negatives)}."


def _corpus_case(seed: int):
    """A seeded non-stratifiable program and an input for it.

    Some programs start with a variant of ``win`` over E, and some
    inputs add a chain to E: together they drive the alternation
    through many rounds.  Some inputs give idb facts.
    """
    rng = random.Random(seed)
    while True:
        rules = [_corpus_rule(rng) for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.4:
            rules[0] = "P(x) :- E(x, y), not P(y)" + rng.choice(
                [".", ", V(y).", ", not Q(x, y).", ", not R(y, w)."]
            )
        program = parse_program(" ".join(rules))
        if not is_stratifiable(program):
            break
    constants = [f"c{i}" for i in range(rng.randint(3, 6))]
    edges = {
        (rng.choice(constants), rng.choice(constants))
        for _ in range(rng.randint(2, 8))
    }
    if rng.random() < 0.5:
        path = [f"n{i}" for i in range(rng.randint(6, 20))] + constants[:1]
        edges.update(zip(path, path[1:]))
    nodes = sorted({v for edge in edges for v in edge})
    facts = {
        ("E", 2): sorted(edges),
        ("V", 1): [(v,) for v in nodes if rng.random() < 0.6],
    }
    if rng.random() < 0.3:
        for relation in "PQR":
            facts[(relation, CORPUS_ARITY[relation])] = [
                tuple(rng.choice(nodes) for _ in range(CORPUS_ARITY[relation]))
                for _ in range(rng.randint(0, 2))
            ]
    return program, Database(facts)


class TestWellFoundedCorpus:
    """Seeded non-stratifiable programs against the per-step reference."""

    @pytest.mark.parametrize("seed", range(200))
    def test_matches_reference(self, seed):
        _assert_matches_reference(*_corpus_case(seed))


class TestStableModels:
    def test_win_stable_models_on_paper_instance(self):
        """The draw cycle a→b→c→a forces multiple stable models... or none.

        For the odd 3-cycle with the d-branch, candidate models must
        alternate around the cycle; with an odd cycle no consistent
        assignment exists, so the unknowns are not resolvable: the
        program has NO stable model containing the bracketing — in
        fact no stable model at all (odd negative loops kill them).
        """
        models = stable_models(win_program(), paper_win_instance())
        assert models == []

    def test_even_cycle_has_two_stable_models(self):
        # a ⇄ b: win(a) xor win(b); two stable models.
        db = game_database([("a", "b"), ("b", "a")])
        models = stable_models(win_program(), db)
        assert len(models) == 2
        answers = {frozenset(t for rel, t in m if rel == "win") for m in models}
        assert answers == {frozenset({("a",)}), frozenset({("b",)})}

    def test_stratified_program_unique_stable_model(self):
        program = parse_program("R(x) :- S(x), not E(x).")
        db = Database({"S": [("a",), ("b",)], "E": [("b",)]})
        models = stable_models(program, db)
        assert len(models) == 1
        assert models[0] == frozenset({("R", ("a",))})

    def test_is_stable_model_rejects_nonminimal(self):
        program = parse_program("R(x) :- S(x).")
        db = Database({"S": [("a",)]})
        assert is_stable_model(program, db, frozenset({("R", ("a",))}))
        assert not is_stable_model(program, db, frozenset())

    def test_wf_true_bracketing(self):
        db = game_database([("a", "b"), ("b", "a"), ("b", "c")])
        assert wellfounded_true_in_all_stable(win_program(), db)

    def test_input_idb_fact_holds_in_every_stable_model(self):
        # R(z) is given and underivable: well-founded makes it true, so
        # the bracketing keeps it and the stable model must derive it.
        program = parse_program("R(x) :- S(x), not E(x).")
        db = Database({"S": [("a",), ("b",)], "E": [("b",)], "R": [("z",)]})
        models = stable_models(program, db)
        assert models == [frozenset({("R", ("a",)), ("R", ("z",))})]
        assert wellfounded_true_in_all_stable(program, db)

    def test_no_move_game(self):
        # moves(a, b), b has no moves: win(a) true, win(b) false; total.
        db = game_database([("a", "b")])
        model = evaluate_wellfounded(win_program(), db)
        assert model.is_total()
        assert model.answer("win") == frozenset({("a",)})
        models = stable_models(win_program(), db)
        assert models == [frozenset({("win", ("a",))})]
