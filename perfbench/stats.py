"""Summary statistics the benchmark reports."""
from __future__ import annotations

import math
import statistics

# candidate tail percentiles, lowest first
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def summarize(samples) -> dict:
    """Median, sample count and the highest tail percentile with at least
    MIN_BEYOND samples above it (None when there are too few samples)."""
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    out = {"n": n, "p50": statistics.median(xs), "tail": None}
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)          # nearest-rank percentile
        if n - rank >= MIN_BEYOND:
            out["tail"] = (p, xs[rank - 1])
    return out


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones; the base must be nonempty."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed = {failed} outside [0, {attempted}]")
    return failed / attempted


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
