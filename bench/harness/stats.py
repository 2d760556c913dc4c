"""Order statistics used by the benchmark's metrics."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = 10) -> tuple[float, float, int] | None:
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count), or None when there are not
    `beyond + 1` samples.  With 100 samples this is the 90th percentile;
    with 20 it is the 50th.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - beyond - 1
    if k < 0:
        return None
    return float(xs[k]), 100.0 * (k + 1) / n, n
