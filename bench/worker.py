"""Measure one workload in this process and print its result as JSON.

``python -m bench`` runs this once per workload and run, each in its own
subprocess, so no plan cache, planner context or peak memory carries
over from one workload to the next::

    python -m bench.worker --workload tc_closure --seed 1 --seconds 16

With ``--trace 0`` the result carries the end-to-end metrics: times
rescaled to the reference machine speed by a calibration loop run
between the operations (:mod:`bench.pace`), with the raw times beside
them.  With ``--trace 1`` it carries the per-layer metrics, in raw
seconds: the first half of the time budget (of the update stream, for
``tc_watch``) runs untraced and the second half traced, and the ratio
of their median rescaled operation times is ``bench.trace_overhead``.

Nothing here warms the planner from a stats store: every evaluation
starts from the caches :func:`cold` cleared.
"""

from __future__ import annotations

import argparse
import gc
import json
import linecache
import resource
import statistics
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

import repro.ast.analysis as analysis
import repro.parser as parser
from repro.relational.instance import Database
from repro.semantics import planner
from repro.semantics.differential import DifferentialEngine
from repro.semantics.plan import PlanCache, active_matcher

from bench.pace import Pace
from bench.stats import percentile, summary
from bench.trace import Trace
from bench.workloads import WORKLOADS, BatchCase

#: Operations measured at the least, even past the time budget.
MIN_OPS = 3
#: Cold constructions of the maintained view; the last one is updated.
WATCH_SETUPS = 9
#: tc_watch calibrates after every this many updates, with this many
#: rounds: about 5 ms per 100 ms of updates.
CALIBRATE_EVERY = 5
WATCH_ROUNDS = 7
#: tc_watch checks its views against the oracle every this many updates
#: (a multiple of CALIBRATE_EVERY, so no check delays a calibration).
CHECK_EVERY = 50

#: ``base.*`` metric → the EngineStats total it reports per evaluation.
ENGINE_COUNTERS = {
    "stages": "stage_count",
    "rule_firings": "rule_firings",
    "index_updates": "index_updates",
    "index_builds": "index_builds",
}
#: ``differential.*`` metric → the ``stats.differential`` counter it
#: reports per traced update.
DIFFERENTIAL_COUNTERS = {
    "facts_touched_per_update": "facts_touched",
    "overdeleted": "overdeleted",
    "rederived": "rederived",
    "recounted": "recounted",
    "support_checks": "support_checks",
}


def cold() -> None:
    """Drop the caches an earlier evaluation left, as a new process would.

    Codegen registers every compiled source in :mod:`linecache` under a
    fresh name, so without the reset each sample would grow the process
    and peak memory would depend on how many samples fit the budget.
    """
    PlanCache.clear()
    planner.clear_contexts()
    linecache.clearcache()
    gc.collect()


def peak_rss_mb() -> float:
    """High-water resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Run:
    """Operations attempted and failed, and what the engines reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.matchers: set[str] = set()
        #: EngineStats totals of traced evaluations.
        self.engine = Counter()
        #: ``stats.differential`` movement over traced updates.
        self.differential = Counter()
        self.view_size = 0

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        print(f"bench: {ops} operation(s) failed: {why}", file=sys.stderr)


def evaluate(case: BatchCase, trace: Trace | None = None):
    """One cold evaluation, from program text to the read answer.

    Returns (set-up seconds, total seconds, result, answer); set-up is
    parsing, dialect inference and loading the EDB.
    """
    cold()
    if trace is not None:
        trace.phase("setup")
    start = perf_counter()
    program = parser.parse_program(case.source)
    analysis.infer_dialect(program)
    db = Database(case.facts)
    loaded = perf_counter()
    if trace is not None:
        trace.phase("op")
    result = case.engine(program, db)
    answer = case.read(result)
    return loaded - start, perf_counter() - start, result, answer


class Timings:
    """Raw and rescaled seconds of operations and set-ups."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.ops: list[float] = []
        self.setups: list[float] = []
        self.op_brackets: list[int] = []
        self.setup_brackets: list[int] = []

    def op(self, seconds: float, bracket: int) -> None:
        self.ops.append(seconds)
        self.op_brackets.append(bracket)

    def setup(self, seconds: float, bracket: int) -> None:
        self.setups.append(seconds)
        self.setup_brackets.append(bracket)

    def rescaled_ops(self) -> list[float]:
        return list(map(self.pace.rescale, self.ops, self.op_brackets))

    def rescaled_setups(self) -> list[float]:
        return list(map(self.pace.rescale, self.setups, self.setup_brackets))


def batch_samples(case, reference, seconds, run, timings, trace=None,
                  minimum=MIN_OPS):
    """Cold evaluations, each followed by a calibration, while another
    fits in ``seconds``; adds their times to ``timings``."""
    pace = timings.pace
    attempts = 0
    took = 0.0
    deadline = perf_counter() + seconds
    pace.calibrate()
    while attempts < minimum or perf_counter() + took <= deadline:
        started = perf_counter()
        attempts += 1
        run.attempted += 1
        bracket = pace.mark()
        try:
            setup, total, result, answer = evaluate(case, trace)
        except Exception:
            run.fail(1, traceback.format_exc())
            continue
        finally:
            pace.calibrate()
            took = perf_counter() - started
        if answer != reference:
            run.fail(1, "answer differs from the reference")
        timings.setup(setup, bracket)
        timings.op(total, bracket)
        stats = result.stats
        run.matchers.add(stats.matcher)
        if trace is not None:
            run.engine.update(
                {name: getattr(stats, attr)
                 for name, attr in ENGINE_COUNTERS.items()}
            )


def run_batch(case, small, seconds, traced):
    run = Run()
    reference = case.reference()
    evaluate(small)  # lazy imports and first-call costs, untimed
    if not traced:
        timings = Timings(Pace())
        batch_samples(case, reference, seconds, run, timings)
        return run, end_to_end(timings)
    plain, traced = Timings(Pace()), Timings(Pace())
    batch_samples(case, reference, seconds / 2, run, plain, minimum=1)
    trace = Trace()
    with trace.installed():
        batch_samples(case, reference, seconds / 2, run, traced, trace,
                      minimum=1)
    return run, layers(trace, run, len(traced.ops), plain, traced)


def check_views(engine, case, edges, run, ops) -> None:
    expected = case.reference(edges)
    for relation in case.views:
        if engine.answer(relation) != expected[relation]:
            run.fail(ops, f"view {relation} differs from the reference")
            return


def construct(case):
    """Parse, load and materialize the view; returns (seconds, engine)."""
    cold()
    start = perf_counter()
    engine = DifferentialEngine(
        parser.parse_program(case.source), Database(case.facts)
    )
    return perf_counter() - start, engine


def stream_updates(engine, case, updates, edges, count, run, timings):
    """Closed loop, one client: the next of ``count`` updates once the
    last returned, with a calibration after every CALIBRATE_EVERY."""
    pace = timings.pace
    pace.calibrate()
    window = 0
    for i in range(1, count + 1):
        batch = next(updates)
        run.attempted += 1
        window += 1
        bracket = pace.mark()
        start = perf_counter()
        try:
            engine.apply(batch)
        except Exception:
            run.fail(1, traceback.format_exc())
        else:
            timings.op(perf_counter() - start, bracket)
        edges.difference_update(t for _, t in batch.deletes)
        edges.update(t for _, t in batch.inserts)
        if i % CALIBRATE_EVERY == 0 or i == count:
            pace.calibrate()
        if window == CHECK_EVERY or i == count:
            check_views(engine, case, edges, run, window)
            window = 0


def run_stream(case, small, traced):
    """The fixed update stream; unlike the batch workloads it takes no
    time budget, so its tail always has the same number of samples."""
    run = Run()
    _, warm = construct(small)  # lazy imports and first-call costs
    warm_updates = small.updates()
    for _ in range(small.length):
        warm.apply(next(warm_updates))
    trace = Trace() if traced else None
    timings = Timings(Pace(WATCH_ROUNDS))
    pace = timings.pace
    pace.calibrate()
    with trace.installed() if traced else nullcontext():
        for _ in range(WATCH_SETUPS):
            if traced:
                trace.phase("setup")
            engine = None  # so peak memory holds one view, not two
            bracket = pace.mark()
            took, engine = construct(case)
            pace.calibrate()
            timings.setup(took, bracket)
    run.matchers.add(engine.stats.matcher)
    edges = set(case.facts["G"])
    updates = case.updates()
    if trace is None:
        stream_updates(engine, case, updates, edges, case.length, run,
                       timings)
        metrics = end_to_end(timings)
        tail = percentile(timings.rescaled_ops(), 99) * 1000
        metrics["update_p99_ms"] = (tail, "ms", {})
        return run, metrics
    half = case.length // 2
    plain = Timings(Pace(WATCH_ROUNDS))
    stream_updates(engine, case, updates, edges, half, run, plain)
    before = dict(engine.stats.differential)
    trace.phase("op")
    traced = Timings(Pace(WATCH_ROUNDS))
    with trace.installed():
        stream_updates(engine, case, updates, edges, case.length - half, run,
                       traced)
    after = engine.stats.differential
    for counter in DIFFERENTIAL_COUNTERS.values():
        run.differential[counter] = after[counter] - before[counter]
    run.view_size = after["view_size"]
    return run, layers(trace, run, WATCH_SETUPS, plain, traced)


def layers(trace, run, setups, plain, traced):
    """Every per-layer metric as (value, unit), per set-up or per op.

    ``base.*`` come from the traced evaluations' EngineStats and
    ``differential.*`` from the maintained view's counters; each is zero
    on the workloads that do not run that engine.
    """
    ops = max(len(traced.ops), 1)
    out = trace.metrics(setups, len(traced.ops))
    for name in ENGINE_COUNTERS:
        out[f"base.{name}"] = (run.engine[name] / ops, "count")
    for name, counter in DIFFERENTIAL_COUNTERS.items():
        out[f"differential.{name}"] = (run.differential[counter] / ops,
                                       "count")
    out["differential.view_size"] = (run.view_size, "count")
    out["bench.trace_overhead"] = (
        statistics.median(traced.rescaled_ops())
        / statistics.median(plain.rescaled_ops()),
        "ratio",
    )
    return out


def end_to_end(timings):
    """The end-to-end metrics, each as (value, unit, sample summary).

    The summaries of the rescaled times also carry the raw median and,
    for latency, the run's median slowdown against the reference speed.
    """
    ms = [s * 1000 for s in timings.rescaled_ops()]
    setups = timings.rescaled_setups()
    return {
        "latency_p50_ms": (statistics.median(ms), "ms", {
            **summary(ms),
            "raw_median": statistics.median(timings.ops) * 1000,
            "slowdown": timings.pace.slowdown(),
        }),
        "setup_s": (statistics.median(setups), "s", {
            **summary(setups),
            "raw_median": statistics.median(timings.setups),
        }),
        "peak_rss_mb": (peak_rss_mb(), "MB", {}),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload and return its result document."""
    default = active_matcher()
    build = WORKLOADS[workload]
    case, small = build(seed), build(seed, "small")
    if isinstance(case, BatchCase):
        run, metrics = run_batch(case, small, seconds, traced)
    else:
        run, metrics = run_stream(case, small, traced)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "matchers": sorted(run.matchers),
        "default_matcher": default,
        "metrics": {
            name: {"value": entry[0], "unit": entry[1]}
            for name, entry in metrics.items()
        },
        "samples": {
            name: entry[2] for name, entry in metrics.items()
            if len(entry) > 2 and entry[2]
        },
    }


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(prog="python -m bench.worker")
    cli.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    cli.add_argument("--seed", type=int, default=1)
    cli.add_argument("--seconds", type=float, required=True)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = cli.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
