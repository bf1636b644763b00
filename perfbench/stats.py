"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def spread(values) -> float:
    """Distance between the first and third quartile, as statistics.quantiles
    (values, n=4) gives them, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as
    (p, value); None when there are too few samples for any."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None
