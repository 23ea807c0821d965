"""The regression gate: one set of runs against a baseline set.

A *set* is a results document as ``python -m bench --out`` writes it:
the run settings plus ``runs``, mapping each workload to its list of run
results.  For every (workload, gated metric) both sets have, the
medians across runs are compared.  A metric's *tolerance* is its bound
from ``BENCHMARK.json`` times the base median:

* ``REGRESSION`` — the new median is worse than the base median by more
  than the tolerance;
* ``better`` — it is better by more than the tolerance;
* ``ok`` — the difference is within the tolerance;
* ``unresolved`` — either set's quartile spread exceeds the tolerance,
  so a difference of that size cannot be told from noise.  When every
  new run is worse than every base run the row reads ``REGRESSION``
  instead, and when every new run is better, ``better``.

``fail_rate`` (failed over attempted operations, summed over the runs)
is a regression whenever it rose.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from bench.stats import quartiles, spread

#: Gated metrics that only some workloads report, so they cannot be
#: ``end_to_end`` entries of ``BENCHMARK.json`` (every run reports each
#: of those).  The tail of the update stream is ``tc_watch``'s alone.
WORKLOAD_METRICS = (
    {"name": "update_p99_ms", "unit": "ms", "better": "lower", "bound": 0.15},
)

#: Exit status of the gate per worst row status; 2 is left to runs that
#: could not complete.
EXIT_STATUS = {"REGRESSION": 1, "unresolved": 3}


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    base: float
    new: float
    change: float
    base_spread: float
    new_spread: float
    bound: float
    status: str


def _values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if metric in run["metrics"]]


def fail_rate(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def _status(base, new, lower: bool, tolerance: float) -> str:
    worse = statistics.median(new) - statistics.median(base)
    if not lower:
        worse = -worse
    if max(q3 - q1 for q1, q3 in (quartiles(base), quartiles(new))) > tolerance:
        if min(new) > max(base):
            return "REGRESSION" if lower else "better"
        if max(new) < min(base):
            return "better" if lower else "REGRESSION"
        return "unresolved"
    if worse > tolerance:
        return "REGRESSION"
    if worse < -tolerance:
        return "better"
    return "ok"


def mismatch(base: dict, new: dict) -> str | None:
    """Why two results documents cannot be compared, or None."""
    for key in ("seconds", "trace"):
        if base.get(key) != new.get(key):
            return (f"{key} differs: {base.get(key)} in the base, "
                    f"{new.get(key)} in the new set")
    if base.get("trace"):
        return "traced runs carry no end-to-end metrics to compare"
    for workload, runs in new["runs"].items():
        count = len(base["runs"].get(workload, runs))
        if count != len(runs):
            return (f"{workload} has {count} runs in the base and "
                    f"{len(runs)} in the new set")
    return None


def compare(base: dict, new: dict, metrics: list[dict]) -> list[Row]:
    """Rows for every workload in both sets' ``runs``; ``metrics`` are
    the ``end_to_end`` entries of ``BENCHMARK.json``."""
    rows: list[Row] = []
    for workload, base_runs in base.items():
        new_runs = new.get(workload)
        if not new_runs:
            continue
        for spec in (*metrics, *WORKLOAD_METRICS):
            b = _values(base_runs, spec["name"])
            n = _values(new_runs, spec["name"])
            if not b or not n:
                continue
            b_median, n_median = statistics.median(b), statistics.median(n)
            tolerance = spec["bound"] * b_median
            rows.append(Row(
                workload, spec["name"], b_median, n_median,
                (n_median - b_median) / b_median,
                spread(b), spread(n), spec["bound"],
                _status(b, n, spec["better"] == "lower", tolerance),
            ))
        b_rate, n_rate = fail_rate(base_runs), fail_rate(new_runs)
        rows.append(Row(
            workload, "fail_rate", b_rate, n_rate, n_rate - b_rate, 0.0, 0.0,
            0.0, "REGRESSION" if n_rate > b_rate else "ok",
        ))
    return rows


def exit_status(rows: list[Row]) -> int:
    """1 on any regression, else 3 on any unresolved row, else 0."""
    statuses = {row.status for row in rows}
    return next((code for status, code in EXIT_STATUS.items()
                 if status in statuses), 0)


def render(rows: list[Row]) -> str:
    lines = [
        f"{'workload':18s} {'metric':16s} {'base':>12s} {'new':>12s} "
        f"{'change':>8s} {'spread':>15s} {'bound':>6s}  status"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:18s} {row.metric:16s} {row.base:12.6g} "
            f"{row.new:12.6g} {row.change:+8.1%} "
            f"{row.base_spread:6.1%} /{row.new_spread:6.1%} "
            f"{row.bound:6.0%}  {row.status}"
        )
    return "\n".join(lines)
