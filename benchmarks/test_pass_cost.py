"""ABL — what one well-founded step costs.

The alternating fixpoint (§3.3) on Example 3.2's ``win`` changes about
one fact per step on a chain game.  After each side's first step, a
step runs one seed pass over the other side's change: ``win`` reads
``win`` only under negation, so the pass after it, over the facts the
seed pass changed, would visit no rule and is never made.  What a step
costs beyond its kernel is then the planner's per-pass path (a cached
pass plan and decision) and the step's bookkeeping.

Two game shapes, ``win`` evaluated from a fresh parse each time:

* chain — ``chain(n)``: about n/2 rounds of one-fact steps, so the
  per-step cost shows;
* dense — ``random_game(n, 3 / n)``: few rounds whose steps touch much
  of the model.

Shape asserted: every answer equals backward induction
(``solve_game_reference``), and on a chain every step makes at most one
consequence pass, the closing steps that have no change to consume
none (a count, not a time).  Printed: µs per step on the chain and
the median ms per evaluation of the dense game, whose figures
EXPERIMENTS.md (PASS) compares across changes.

Set ``REPRO_BENCH_SIZES`` (comma-separated) to override the size
sweep, e.g. ``REPRO_BENCH_SIZES=8,12`` for a CI smoke run."""

import os
import statistics
import time

import pytest

from repro.parser import parse_program
from repro.programs.win import WIN_SOURCE
from repro.semantics.wellfounded import evaluate_wellfounded
from repro.workloads.games import game_database, random_game, solve_game_reference
from repro.workloads.graphs import chain

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "30,60,120").split(",")
    if s.strip()
]

ROUNDS = 15

SHAPES = {
    "chain": chain,
    "dense": lambda n: random_game(n, 3 / n),
}


def _evaluate(moves):
    """The model and the median wall-clock of ``ROUNDS`` evaluations,
    each of a fresh parse over a fresh database."""
    took, model = [], None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        program = parse_program(WIN_SOURCE, name="win")
        model = evaluate_wellfounded(program, game_database(moves))
        took.append(time.perf_counter() - start)
    return model, statistics.median(took)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_step_cost(shape, n):
    moves = SHAPES[shape](n)
    model, seconds = _evaluate(moves)

    winning, _losing, drawn = solve_game_reference(moves)
    assert {t[0] for t in model.answer("win")} == winning
    assert {t[0] for t in model.unknowns("win")} == drawn

    steps = model.stats.stage_count
    passes = model.stats.consequence_calls
    if shape == "chain":
        assert steps - 2 <= passes <= steps, (steps, passes)
        print(f"\nchain({n}): {steps} steps, {passes} passes, "
              f"{seconds / steps * 1e6:.1f} µs per step")
    else:
        assert passes <= steps, (steps, passes)
        print(f"\nrandom_game({n}, 3/{n}): {steps} steps, {passes} passes, "
              f"{seconds * 1e3:.2f} ms per evaluation")
