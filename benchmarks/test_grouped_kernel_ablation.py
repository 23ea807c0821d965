"""ABL — the batch kernels' grouped variant against the plain loop.

A fused batch kernel whose innermost clause is a keyed probe reaching
the head hands each call over long buckets (``codegen.GROUP_MIN_BUCKET``
rows per key and up) to its grouped variant.  That variant builds each
distinct key's projection once, as an int mask over value ids local to
the call, unions it into each outer group with ``|`` and decodes the
set bits once at the end; past a budget of ``bits_per_digit`` times the
chain's mean bucket in distinct values it runs per-group set unions
instead.  The ablation forces grouping off by raising
``GROUP_MIN_BUCKET`` past every bucket, so that every call runs the
plain per-firing loop, on the four shapes the variant was swept on:

* dense — nonlinear TC on ``random_gnp(n, 3 / n)``: few distinct values
  over long buckets, the bitset path (``tc_closure``'s shape at
  n = 150);
* disjoint — ``H(x, z) :- D(x, y), E(y, z)`` where each key of ``E``
  holds 10 values of its own, four ``D`` rows per key: past the budget,
  the set union;
* dedup — the same rule, with a few ``x`` over many keys whose 20
  values come from one shared pool: strong dedup inside each group;
* few_keys — the same rule over 10 keys of ``E``, each holding
  ``20 n`` values of its own, two ``D`` rows per key: within the
  budget, so the bitset path builds masks as wide as the call's whole
  value set.

Shape asserted: answers and firings are identical with and without
grouping at every size, and from ``GATE_FLOOR`` up the dense shape runs
at least ``SPEEDUP``× faster as shipped, and the few-keys shape peaks
at no more than ``MEMORY``× the plain loop's traced memory.  Below that
floor (CI smoke sizes) neither is asserted: the first run also traces
the kernels' compilation.

The dense shape's grouped calls probe the head relation itself, keyed
by the head's group position, so an add-only call clears each group's
known heads from its mask before decoding.  A second test counts the
head tuples the grouped calls build against the new ones among them
(not yet in ``T`` when the call ran), as shipped and with that
subtraction off (the emitter's shape test patched to refuse every
shape): from ``GATE_FLOOR`` up, as shipped, the two are equal.

Set ``REPRO_BENCH_SIZES`` (comma-separated) to override the size
sweep, e.g. ``REPRO_BENCH_SIZES=8,12`` for a CI smoke run."""

import gc
import os
import random
import time
import tracemalloc

import pytest

from repro.parser import parse_program
from repro.programs.tc import TC_NONLINEAR_SOURCE
from repro.relational.instance import Database
from repro.semantics import codegen, codegen_grouped
from repro.semantics.seminaive import evaluate_datalog_seminaive
from repro.workloads.graphs import random_gnp

SIZES = [
    int(s)
    for s in os.environ.get("REPRO_BENCH_SIZES", "60,150").split(",")
    if s.strip()
]

#: The gates apply from this size up; below it a pass is a few
#: milliseconds and the ratios are noise.
GATE_FLOOR = 100

#: The dense shape as shipped against the plain loop: at n = 150 the
#: plain loop is about 11× slower, so 2× leaves room for a noisy host.
SPEEDUP = 2

#: The few-keys shape's traced peak, as shipped over the plain loop's:
#: both hold the same heads, and at n = 150 the two peaks are equal
#: (one-hot masks per value read 4.2×).
MEMORY = 1.5

ROUNDS = 3

JOIN = "H(x, z) :- D(x, y), E(y, z)."


def dense(n: int):
    return TC_NONLINEAR_SOURCE, {"G": random_gnp(n, 3 / n, 1)}


def disjoint(n: int):
    keys = 33 * n
    d = [(f"x{i}", f"k{i % keys}") for i in range(4 * keys)]
    e = [(f"k{k}", f"v{k}_{j}") for k in range(keys) for j in range(10)]
    return JOIN, {"D": d, "E": e}


def dedup(n: int):
    rng = random.Random(n)
    keys, pool = 7 * n, 13 * n
    d = [
        (f"x{i}", f"k{k}")
        for i in range(max(2, n // 3))
        for k in rng.sample(range(keys), 8 * n // 3)
    ]
    e = [
        (f"k{k}", f"v{v}")
        for k in range(keys)
        for v in rng.sample(range(pool), 20)
    ]
    return JOIN, {"D": d, "E": e}


def few_keys(n: int):
    per = 20 * n
    d = [(f"x{i}", f"k{i % 10}") for i in range(20)]
    e = [(f"k{k}", f"v{k}_{j}") for k in range(10) for j in range(per)]
    return JOIN, {"D": d, "E": e}


SHAPES = {"dense": dense, "disjoint": disjoint, "dedup": dedup,
          "few_keys": few_keys}


def _evaluate(source, facts, rounds, traced=False):
    """The result, the best wall-clock of ``rounds`` cold evaluations of
    a fresh parse (GC paused while timed) and, when ``traced``, the
    last one's peak traced memory."""
    program = parse_program(source)
    best, result, peak = float("inf"), None, None
    for _ in range(rounds):
        db = Database(facts)
        gc.collect()
        gc.disable()
        if traced:
            tracemalloc.start()
        try:
            start = time.perf_counter()
            result = evaluate_datalog_seminaive(program, db)
            best = min(best, time.perf_counter() - start)
        finally:
            if traced:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            gc.enable()
    return result, best, peak


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_grouped_variant_against_the_plain_loop(shape, n, monkeypatch):
    source, facts = SHAPES[shape](n)
    timed = shape == "dense" and n >= GATE_FLOOR
    traced = shape == "few_keys" and n >= GATE_FLOOR
    rounds = ROUNDS if timed else 1
    shipped, shipped_s, shipped_peak = _evaluate(source, facts, rounds,
                                                 traced)
    # No mean bucket reaches this, so every call keeps the plain loop.
    monkeypatch.setattr(codegen, "GROUP_MIN_BUCKET", 10**9)
    plain, plain_s, plain_peak = _evaluate(source, facts, rounds, traced)

    # Parity: grouping moves only the clock.
    assert shipped.database == plain.database
    assert shipped.stats.rule_firings == plain.stats.rule_firings
    if timed:
        assert plain_s >= SPEEDUP * shipped_s, (
            f"{shape}({n}): as shipped {shipped_s:.3f}s, plain loop "
            f"{plain_s:.3f}s — under the {SPEEDUP}× bar"
        )
    if traced:
        assert shipped_peak <= MEMORY * plain_peak, (
            f"{shape}({n}): as shipped {shipped_peak / 1e6:.1f} MB, plain "
            f"loop {plain_peak / 1e6:.1f} MB — over the {MEMORY}× bar"
        )


class _Known(set):
    """A grouped call's ``known``, counting the heads tested against it."""

    tested = 0

    def __contains__(self, t):
        _Known.tested += 1
        return super().__contains__(t)


class _Out(set):
    """A grouped call's ``out``, counting the heads handed to it."""

    handed = 0

    def update(self, heads):
        heads = list(heads)
        _Out.handed += len(heads)
        super().update(heads)


def _head_counts(source, facts):
    """One untimed evaluation: its model, and the head tuples its
    grouped calls built and handed on (the new ones)."""
    counts = {"built": 0, "new": 0}
    build = codegen.compile_plan

    def compile_plan(plan, name):
        kernel = build(plan, name)
        if name.startswith("emit_grouped_"):
            function = kernel.function

            def counted(db, adom, out, *rest):
                *rows, known = rest
                _Known.tested = _Out.handed = 0
                sink = _Out()
                fired = function(db, adom, sink, *rows,
                                 _Known(known) if known else known)
                if fired is not None:
                    # A call that decodes every head tests each against
                    # ``known`` (when it holds any); one that clears
                    # the known heads first hands on all it builds.
                    counts["built"] += _Known.tested or _Out.handed
                    counts["new"] += _Out.handed
                    out.update(sink)
                return fired

            kernel.function = counted
        return kernel

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codegen, "compile_plan", compile_plan)
        result = evaluate_datalog_seminaive(parse_program(source),
                                            Database(facts))
    return result.database, counts


@pytest.mark.parametrize("n", SIZES)
def test_the_dense_shape_builds_only_new_heads(n, monkeypatch, capsys):
    source, facts = dense(n)
    shipped, built = _head_counts(source, facts)
    # The emitter's shape test refuses every shape: each group's mask
    # is decoded whole, and the known heads are dropped afterwards.
    monkeypatch.setattr(codegen_grouped, "own_groups", lambda *args: False)
    off, off_built = _head_counts(source, facts)
    with capsys.disabled():
        print(f"\ndense({n}): {len(shipped.tuples('T'))} T facts; grouped "
              f"calls build {built['built']} head tuples, {built['new']} "
              f"new; subtraction off {off_built['built']}, "
              f"{off_built['new']} new")
    assert shipped == off
    assert built["new"] == off_built["new"]
    if n >= GATE_FLOOR:
        assert built["built"] == built["new"] > 0
        assert off_built["built"] > off_built["new"]
