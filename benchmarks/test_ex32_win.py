"""EX3.2 — the win game under well-founded semantics.

Regenerates the paper's instance (win(d), win(f) true; e, g false;
a, b, c unknown) and scales to random game graphs, checking every
answer against backward induction.  On a chain game the alternation
runs about n/2 rounds, and its cost grows with the facts the rounds
change, not with the model each round holds."""

import pytest

from repro.semantics.wellfounded import evaluate_wellfounded
from repro.programs.win import paper_win_instance, win_program
from repro.workloads.games import game_database, random_game, solve_game_reference
from repro.workloads.graphs import chain


def test_paper_instance(benchmark):
    model = benchmark(evaluate_wellfounded, win_program(), paper_win_instance())
    assert model.answer("win") == frozenset({("d",), ("f",)})
    assert model.unknowns("win") == frozenset({("a",), ("b",), ("c",)})


@pytest.mark.parametrize("n", [10, 20, 30])
def test_random_games(benchmark, n):
    moves = random_game(n, 3.0 / n, seed=n)
    db = game_database(moves)
    model = benchmark(evaluate_wellfounded, win_program(), db)
    winning, _losing, drawn = solve_game_reference(moves)
    assert {t[0] for t in model.answer("win")} == winning
    assert {t[0] for t in model.unknowns("win")} == drawn


def test_alternation_rounds_bounded(benchmark):
    """Shape check: alternation converges in few rounds even as the
    game grows (each round is two steps; after each side's first, a
    step grows or shrinks the previous model by the other side's
    change)."""

    def measure():
        rounds = []
        for n in (8, 16, 24):
            moves = random_game(n, 3.0 / n, seed=7 * n)
            model = evaluate_wellfounded(win_program(), game_database(moves))
            rounds.append(model.alternation_rounds)
        return rounds

    rounds = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert all(r <= 30 for r in rounds)


def test_chain_game_firings_grow_linearly(benchmark):
    """Shape check: on a chain each round moves about one fact per side
    and each step costs that change, so doubling the chain at most
    about doubles the rule firings.  Recomputing every step's model
    from the input would about quadruple them."""

    def measure():
        firings = []
        for n in (100, 200):
            model = evaluate_wellfounded(win_program(), game_database(chain(n)))
            firings.append(model.rule_firings)
        return firings

    small, large = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert large / small < 2.5
