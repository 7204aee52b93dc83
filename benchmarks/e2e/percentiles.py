"""Order statistics shared by the runner, ``compare.py`` and the tests."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles a latency tail may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    data = sorted(values)
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest candidate percentile that leaves at least ``beyond``
    of ``n`` samples above it (``None`` when even the median does not):
    a tail estimate resting on fewer samples is noise."""
    best = None
    for p in TAIL_CANDIDATES:
        if n * (100.0 - p) / 100.0 >= beyond - 1e-9:
            best = p
    return best


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
