"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def median(samples) -> float:
    return statistics.median(samples)


def tail(samples) -> tuple:
    """``(value, percentile, n)``: the highest percentile that has at least
    TAIL_BEYOND samples beyond it.

    The value is the sorted sample with exactly TAIL_BEYOND samples after
    it, and its percentile is the share of samples at or below it.  Below
    2 * TAIL_BEYOND samples that percentile would fall under the median, so
    the median is reported, as percentile 50.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - TAIL_BEYOND - 1
    if 2 * (k + 1) < n:
        return statistics.median(xs), 50.0, n
    return xs[k], 100.0 * (k + 1) / n, n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
