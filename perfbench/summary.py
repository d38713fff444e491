"""Order statistics shared by the benchmark runner and the comparator.

Pure standard library: the parent process of the benchmark and
``compare.py`` never import numpy or the package under test.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), ``0 <= q <= 100``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median, quartiles and the relative spread ``IQR / median``."""
    q1, q3 = percentile(values, 25.0), percentile(values, 75.0)
    mid = median(values)
    if mid:
        spread = (q3 - q1) / abs(mid)
    else:
        spread = 0.0 if q3 == q1 else float("inf")
    return {"n": len(values), "median": mid, "q1": q1, "q3": q3, "spread": spread}
