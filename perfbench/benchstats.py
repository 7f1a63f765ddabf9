"""Arithmetic the benchmark reports with: percentiles, failure shares, spread."""

from __future__ import annotations

import math
import statistics

#: Percentiles tried from the top down by :func:`tail_percentile`.
PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    return max(1, math.ceil(p * n / 100.0))


def nearest_rank(sorted_values, p: float):
    """The ``p``-th percentile by nearest rank (``sorted_values`` ascending)."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


def tail_percentile(values) -> tuple[float, float, int]:
    """``(p, value, beyond)`` for the highest of :data:`PERCENTILES` with enough samples beyond.

    A percentile is reported only when at least :data:`MIN_BEYOND` samples
    lie above it; the median is the fallback for tiny samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p, nearest_rank(ordered, p), beyond(n, p)
    return 50.0, nearest_rank(ordered, 50.0), beyond(n, 50.0)


def failed_pct(attempted: int, failed: int) -> float:
    """Share of attempted operations that failed, in percent."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} is outside 0..attempted={attempted}")
    return 100.0 * failed / attempted


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
