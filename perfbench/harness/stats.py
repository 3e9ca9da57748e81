"""Percentiles and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it.

    No interpolation, so the result is always a measured value.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method), the same ones the benchmark's acceptance check uses.
    """
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else float("inf")}
