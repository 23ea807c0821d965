"""Every workload generator, at small scale, against its oracle."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench import worker
from bench.pace import Pace
from bench.workloads import WORKLOADS, BatchCase, StreamCase

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
BATCH = [name for name in WORKLOADS if name != "tc_watch"]


def test_the_spec_lists_exactly_these_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", BATCH)
def test_batch_answer_matches_the_oracle(name):
    case = WORKLOADS[name](seed=3, scale="small")
    assert isinstance(case, BatchCase)
    _setup, _total, _result, answer = worker.evaluate(case)
    assert answer == case.reference()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_seed_relabels_without_resizing(name):
    one = WORKLOADS[name](seed=1, scale="small")
    again = WORKLOADS[name](seed=1, scale="small")
    other = WORKLOADS[name](seed=2, scale="small")
    assert one.facts == again.facts
    assert one.facts != other.facts
    assert {r: len(ts) for r, ts in one.facts.items()} == {
        r: len(ts) for r, ts in other.facts.items()
    }


def test_win_game_has_true_and_drawn_positions():
    case = WORKLOADS["win_game"](seed=1, scale="small")
    winning, drawn = case.reference()
    assert winning and drawn


def test_watch_views_track_the_oracle_through_updates():
    case = WORKLOADS["tc_watch"](seed=5, scale="small")
    assert isinstance(case, StreamCase)
    _, engine = worker.construct(case)
    edges = set(case.facts["G"])
    run = worker.Run()
    worker.check_views(engine, case, edges, run, 1)
    updates = case.updates()
    for _ in range(60):
        batch = next(updates)
        (assert_one,) = batch.inserts or batch.deletes
        engine.apply(batch)
        edges.difference_update(t for _, t in batch.deletes)
        edges.update(t for _, t in batch.inserts)
    worker.check_views(engine, case, edges, run, 60)
    assert run.failed == 0
    assert len(edges) == len(case.facts["G"])


def test_a_wrong_answer_counts_as_failed():
    case = WORKLOADS["ctc_inflationary"](seed=1, scale="small")
    run = worker.Run()
    timings = worker.Timings(Pace())
    worker.batch_samples(case, frozenset(), 0.0, run, timings, minimum=2)
    assert (run.attempted, run.failed) == (2, 2)
    # Every operation sits between two calibrations.
    assert len(timings.pace.samples) == len(timings.ops) + 1 == 3


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_each_mode_measures_every_listed_metric(name, traced):
    small = WORKLOADS[name](seed=1, scale="small")
    if isinstance(small, BatchCase):
        run, metrics = worker.run_batch(small, small, 0.05, traced)
    else:
        run, metrics = worker.run_stream(small, small, traced)
        assert run.attempted == small.length
        if not traced:
            assert metrics["update_p99_ms"][0] >= metrics["latency_p50_ms"][0]
    listed = SPEC["per_layer" if traced else "end_to_end"]
    for metric in listed:
        value, unit = metrics[metric["name"]][:2]
        assert unit == metric["unit"], metric["name"]
        if not traced:
            assert value > 0, metric["name"]
    assert run.failed == 0 and run.attempted >= 1
