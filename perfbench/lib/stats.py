"""The latency percentile the benchmark reports."""

import math

MIN_BEYOND = 10


def percentile(values, p, min_beyond=MIN_BEYOND):
    """Nearest-rank p-th percentile, or None when fewer than `min_beyond`
    samples lie beyond it (such a percentile is no tail)."""
    n = len(values)
    rank = math.ceil(p / 100.0 * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]
