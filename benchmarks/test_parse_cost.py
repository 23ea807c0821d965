"""FRONT — what parsing a program costs.

Every dialect comes in through one surface syntax, so a ``repro run``
starts with ``parse_program``.  On the many-rule ``gated_components``
shape, ``component_chain_source(k)``, the parse is most of set-up: 2k
rules of gated linear TC, each a handful of literals with variables and
string constants.

Shape asserted: the parse yields 2k rules, and their ``repr`` re-parses
to equal rules (a count and an equality, not a time).  Printed: the
median µs per rule and per token over ``ROUNDS`` parses, whose figures
EXPERIMENTS.md (FRONT) compares across changes.

Set ``REPRO_BENCH_SIZES`` (comma-separated) to override the size
sweep, e.g. ``REPRO_BENCH_SIZES=8,12`` for a CI smoke run."""

import os
import statistics
import time

import pytest

from repro.parser import parse_program, tokenize
from repro.programs.component_chain import component_chain_source

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "15,30,60").split(",")
    if s.strip()
]

ROUNDS = 15


@pytest.mark.parametrize("k", SIZES)
def test_parse_cost(k):
    source = component_chain_source(k)
    took, program = [], None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        program = parse_program(source)
        took.append(time.perf_counter() - start)
    seconds = statistics.median(took)

    assert len(program.rules) == 2 * k
    text = "\n".join(repr(rule) for rule in program.rules)
    assert parse_program(text).rules == program.rules

    tokens = len(tokenize(source))
    print(f"\ncomponent_chain_source({k}): {len(program.rules)} rules, "
          f"{tokens} tokens, {seconds / len(program.rules) * 1e6:.1f} µs "
          f"per rule, {seconds / tokens * 1e6:.2f} µs per token")
