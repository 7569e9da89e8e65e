"""Order statistics shared by the benchmark runner and its spread check."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it


def tail(samples, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)`` by the nearest-rank rule, or ``None``
    when fewer than ``2 * beyond`` samples exist, because the tail would
    then sit below the median.
    """
    n = len(samples)
    if n < 2 * beyond:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0
