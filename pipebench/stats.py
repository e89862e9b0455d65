"""Percentiles with the benchmark's sample-support rule."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["MIN_BEYOND", "percentile", "supported"]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond the
    ``q``-th percentile (``q`` in percent)."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in percent) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])

