"""Small order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics

import numpy as np

# Candidate tail percentiles, in tenths of a percent, highest first.
_LADDER_TENTHS = (999, 990, 950, 900, 750)


def tail_percentile(n: int, beyond: int = 10) -> float:
    """Highest percentile of the ladder with at least ``beyond`` of ``n`` samples above it.

    p99 needs n >= 1000 and p99.9 needs n >= 10000; below 40 samples only
    the median is left.
    """
    for tenths in _LADDER_TENTHS:
        if n * (1000 - tenths) >= beyond * 1000:
            return tenths / 10
    return 50.0


def blocked_percentile(values, pct: float, block: int) -> float:
    """Median, over consecutive blocks of at least ``block`` samples, of each
    block's ``pct``-th percentile.

    A burst of interference that lands in one block moves that block's
    tail only.  With fewer than ``block`` samples the one block is all of
    them.
    """
    arr = np.asarray(values, dtype=float)
    parts = np.array_split(arr, max(1, len(arr) // block))
    return float(np.median([np.percentile(p, pct) for p in parts]))


def median(values) -> float:
    return float(statistics.median(values))
