"""The percentile helpers and the regression gate, on synthetic results."""

from __future__ import annotations

import json
import statistics

import pytest

from bench.__main__ import main
from bench.compare import compare, exit_status, fail_rate, mismatch
from bench.pace import REFERENCE_ROUND_S, Pace
from bench.stats import percentile, quartiles, spread, summary, tail_percentile

METRICS = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def test_percentile_interpolates_inside_the_sampled_range():
    values = list(range(1, 101))
    assert percentile(values, 50) == statistics.median(values)
    assert percentile(values, 99) == pytest.approx(99.01)
    assert percentile([3.0, 1.0, 2.0], 99) <= 3.0
    assert percentile([7.0], 99) == 7.0


def test_quartiles_match_the_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert spread(values) == pytest.approx((q3 - q1) / 3.5)
    assert quartiles([2.0]) == (2.0, 2.0)
    assert summary(values)["n"] == 6


def test_pace_rescales_by_the_calibrations_around_an_operation():
    pace = Pace()
    pace.samples = [REFERENCE_ROUND_S, 3 * REFERENCE_ROUND_S,
                    2 * REFERENCE_ROUND_S]
    # Twice the reference time per round on average: half the raw time.
    assert pace.rescale(0.4, 0) == pytest.approx(0.2)
    assert pace.rescale(0.5, 1) == pytest.approx(0.2)
    assert pace.slowdown() == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        Pace().mark()


def test_a_calibration_reports_seconds_per_round():
    per_round = Pace(rounds=2)
    per_round.calibrate()
    (seconds,) = per_round.samples
    assert 0 < seconds < 0.1


def test_the_tail_keeps_ten_samples_beyond_it():
    assert tail_percentile(1500) == 99
    assert tail_percentile(70) == 85
    assert tail_percentile(20) is None
    assert "p90" in summary(range(100)) and "p99" not in summary(range(100))


def _runs(latencies, setup=0.5, failed=0, attempted=10):
    return [
        {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "latency_p50_ms": {"value": v, "unit": "ms"},
                "setup_s": {"value": setup, "unit": "s"},
                "ops_per_s": {"value": 1000 / v, "unit": "1/s"},
            },
        }
        for v in latencies
    ]


def _document(runs, seconds=18, trace=0):
    return {"seconds": seconds, "trace": trace, "runs": runs}


def _status(rows, metric):
    (row,) = [r for r in rows if r.metric == metric]
    return row.status


def test_same_runs_pass_the_gate():
    base = {"w": _runs([100, 101, 99, 100, 102])}
    rows = compare(base, base, METRICS)
    assert {r.status for r in rows} == {"ok"}
    assert exit_status(rows) == 0


def test_a_worsened_metric_fails_the_gate():
    base = {"w": _runs([100, 101, 99, 100, 102])}
    new = {"w": _runs([120, 121, 119, 120, 122])}
    rows = compare(base, new, METRICS)
    assert _status(rows, "latency_p50_ms") == "REGRESSION"
    assert _status(rows, "ops_per_s") == "REGRESSION"
    assert _status(rows, "setup_s") == "ok"
    assert exit_status(rows) == 1


def test_an_improvement_beyond_the_bound_reads_better():
    base = {"w": _runs([120, 121, 119, 120, 122])}
    new = {"w": _runs([100, 101, 99, 100, 102])}
    rows = compare(base, new, METRICS)
    assert _status(rows, "latency_p50_ms") == "better"
    assert _status(rows, "ops_per_s") == "better"
    assert exit_status(rows) == 0


def test_a_spread_wider_than_the_bound_is_unresolved():
    base = {"w": _runs([100, 80, 130, 95, 120])}
    new = {"w": _runs([115, 90, 140, 100, 125])}
    rows = compare(base, new, METRICS)
    assert _status(rows, "latency_p50_ms") == "unresolved"
    assert exit_status(rows) == 3


def test_wide_but_disjoint_runs_still_read_better():
    base = {"w": _runs([200, 160, 260, 190, 240])}
    new = {"w": _runs([100, 80, 130, 95, 120])}
    rows = compare(base, new, METRICS)
    assert _status(rows, "latency_p50_ms") == "better"
    assert _status(rows, "ops_per_s") == "better"


def test_wide_but_disjoint_worse_runs_fail_the_gate():
    base = {"w": _runs([100, 80, 130, 95, 120])}
    new = {"w": _runs([300, 240, 390, 285, 360])}
    rows = compare(base, new, METRICS)
    assert _status(rows, "latency_p50_ms") == "REGRESSION"
    assert _status(rows, "ops_per_s") == "REGRESSION"
    assert exit_status(rows) == 1


def test_a_sub_millisecond_setup_is_gated_by_its_bound():
    base = {"w": _runs([100] * 5, setup=0.0005)}
    within = {"w": _runs([100] * 5, setup=0.0006)}
    assert _status(compare(base, within, METRICS), "setup_s") == "ok"
    slower = {"w": _runs([100] * 5, setup=0.0007)}
    assert _status(compare(base, slower, METRICS), "setup_s") == "REGRESSION"


def test_the_update_tail_is_gated_where_it_is_reported():
    def with_tail(runs, tail):
        for run in runs:
            run["metrics"]["update_p99_ms"] = {"value": tail, "unit": "ms"}
        return runs

    base = {"w": with_tail(_runs([10] * 5), 30.0), "v": _runs([10] * 5)}
    new = {"w": with_tail(_runs([10] * 5), 36.0), "v": _runs([10] * 5)}
    rows = compare(base, new, METRICS)
    tails = [r for r in rows if r.metric == "update_p99_ms"]
    assert [(r.workload, r.status) for r in tails] == [("w", "REGRESSION")]


def test_a_rising_fail_rate_fails_the_gate():
    base = {"w": _runs([100, 100])}
    new = {"w": _runs([100, 100], failed=1)}
    assert fail_rate(new["w"]) == pytest.approx(0.1)
    rows = compare(base, new, METRICS)
    assert _status(rows, "fail_rate") == "REGRESSION"
    assert exit_status(rows) == 1


def test_sets_measured_differently_are_not_compared():
    runs = {"w": _runs([100, 101])}
    assert mismatch(_document(runs), _document(runs)) is None
    assert "seconds" in mismatch(_document(runs), _document(runs, 9))
    assert "traced" in mismatch(_document(runs, trace=1),
                                _document(runs, trace=1))
    fewer = {"w": _runs([100])}
    assert "runs" in mismatch(_document(runs), _document(fewer))


def test_compare_command_exit_status(tmp_path, capsys):
    paths = {}
    for name, runs in {
        "base": _runs([100, 101]),
        "worse": _runs([150, 151]),
        "noisy": _runs([70, 140]),
        "one": _runs([100]),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(_document({"tc_closure": runs})))
    assert main(["--compare", str(paths["base"]), str(paths["base"])]) == 0
    assert main(["--compare", str(paths["base"]), str(paths["worse"])]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert main(["--compare", str(paths["base"]), str(paths["noisy"])]) == 3
    assert main(["--compare", str(paths["base"]), str(paths["one"])]) == 2


def test_the_command_refuses_settings_that_break_comparison():
    with pytest.raises(SystemExit):
        main(["--seconds", "5"])
    with pytest.raises(SystemExit):
        main(["--compare", "base.json", "--trace"])


def test_out_adds_runs_to_an_existing_file(tmp_path, monkeypatch):
    from bench import __main__ as cli

    def fake_worker(workload, seed, seconds, trace):
        return {"workload": workload, "seed": seed, "attempted": 1,
                "failed": 0, "correct": True, "matchers": ["m"],
                "default_matcher": "m", "samples": {},
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                            for m in cli.load_spec()["end_to_end"]}}

    monkeypatch.setattr(cli, "run_worker", fake_worker)
    out = tmp_path / "set.json"
    for seed in ("1", "2"):
        assert main(["--workload", "win_game", "--seed", seed,
                     "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]["win_game"]
    assert [run["seed"] for run in runs] == [1, 2]
    assert main(["--workload", "win_game", "--trace", "--out", str(out)]) == 2
