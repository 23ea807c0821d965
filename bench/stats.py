"""Order statistics for benchmark samples.

Quartiles use :func:`statistics.quantiles` with its default (exclusive)
method, the same call the regression gate and any outside check use, so
a spread printed here is the spread they see.
"""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float]:
    """(q1, q3) of the samples; both equal the value when there is one."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values, p: float) -> float:
    """The p-th percentile (0 < p < 100), interpolated between samples.

    Uses the inclusive method, so it never leaves the sampled range: with
    few samples a high percentile reads close to the maximum.
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def spread(values) -> float:
    """Quartile spread as a share of the median: (q3 - q1) / median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with at least ten of ``n`` samples
    beyond it, or None when no percentile above the median has."""
    p = int(100 * (1 - 10 / n)) if n else 0
    return p if p > 50 else None


def summary(values) -> dict:
    """Median, quartiles, sample count and the tail percentile of one
    metric's samples."""
    values = list(values)
    q1, q3 = quartiles(values)
    out = {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
    tail = tail_percentile(len(values))
    if tail is not None:
        out[f"p{tail}"] = percentile(values, tail)
    return out
