"""Order statistics used by the benchmark's metrics and steadiness report."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile with ten samples beyond.

    The value is the eleventh-largest sample; its percentile is its rank
    position, ``100 * (n - 11) / (n - 1)``.  Below 21 samples that rank
    falls under the median, and the median is reported as the tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1
    if n < 2 or 100.0 * rank / (n - 1) <= 50.0:
        return 50.0, statistics.median(ordered)
    return 100.0 * rank / (n - 1), ordered[rank]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance relative to the median."""
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }
