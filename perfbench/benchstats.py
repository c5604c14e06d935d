"""Summary statistics for the benchmark: medians, spreads and tails.

Every timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it (the "tail rule"), together with
the sample count, so a p99 is never claimed from a hundred samples.  A
metric named for a percentile (``latency_p99_ms``) never reports a higher
one, however many samples there are.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles the tail rule may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(pct / 100.0 * count, 6)))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ``ceil(pct/100 · n)``-th smallest sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``pct``."""
    return count - _rank(count, pct)


def tail_percentile(count: int, ceiling: float = 99.0) -> float | None:
    """The highest ladder percentile, up to ``ceiling`` (the percentile a
    metric is named for), with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it
    (fewer than twenty samples in all).
    """
    best = None
    for pct in PERCENTILE_LADDER:
        if pct <= ceiling and samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def tail(
    samples: Sequence[float], ceiling: float = 99.0
) -> tuple[float, float | None, int]:
    """``(value, percentile, n)`` under the tail rule.

    With too few samples for any ladder percentile the maximum is
    reported and the percentile is ``None``.
    """
    pct = tail_percentile(len(samples), ceiling)
    if pct is None:
        return max(samples), None, len(samples)
    return percentile(samples, pct), pct, len(samples)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def interquartile_mean(samples: Sequence[float]) -> float:
    """Mean of the middle half of the samples (25th to 75th percentile):
    the typical sample, without the median's jumps when the samples are
    sparse around it.

    DAG unit walls are such a sample: few units sit near the median, and
    some take one of two walls depending on which pool worker ran them.
    """
    ordered = sorted(samples)
    count = len(ordered)
    low = count // 4
    high = max(low + 1, math.ceil(count * 3 / 4))
    return statistics.fmean(ordered[low:high])


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return (q3 - q1) / mid if mid else 0.0
