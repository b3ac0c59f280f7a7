"""Sample statistics: percentiles, the tail rule, spreads and verdicts."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: percentiles a tail may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: a percentile is reported only with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0–100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_percentile(samples: int) -> float | None:
    """The highest ladder percentile with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, or ``None`` when even
    the median has fewer (under 20 samples)."""
    best = None
    for p in PERCENTILE_LADDER:
        # rounded: 100.0 - 99.9 is a hair under 0.1 in binary
        if round(samples * (100.0 - p) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def capped_percentile(values: Sequence[float], wanted: float) -> tuple[float, float]:
    """``(p, value)`` at ``wanted`` or, when the sample cannot support
    it, at the highest percentile it can (the median at worst)."""
    supported = supported_percentile(len(values)) or PERCENTILE_LADDER[0]
    p = min(wanted, supported)
    return p, percentile(values, p)


def spread(values: Sequence[float]) -> float | None:
    """Inter-quartile distance as a share of the median, the way the
    acceptance rule computes it; ``None`` under two values."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(q2) if q2 else math.inf


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> dict:
    """Compare two sets of runs of one (workload, metric) pair.

    ``ratio`` is change ÷ base (its base is the ``base`` median).
    ``regressed``: the change's median is worse than the base's by more
    than ``bound``.  ``unresolved``: either side's spread is wider than
    the bound, so a difference of that size cannot be told from noise —
    unless every run of the change reads better than every run of the
    base, which no spread can explain away.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    median_base = statistics.median(base)
    median_change = statistics.median(change)
    ratio = median_change / median_base if median_base else math.inf
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    widest = max(spreads) if spreads else 0.0
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if widest > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regressed"
    else:
        outcome = "ok"
    return {
        "base_median": median_base,
        "change_median": median_change,
        "ratio": ratio,
        "base_runs": len(base),
        "change_runs": len(change),
        "spread": widest,
        "bound": bound,
        "verdict": outcome,
    }
