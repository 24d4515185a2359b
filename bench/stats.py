"""Order statistics with the sample rule the benchmark reports by.

A median is always given with its sample count.  A higher percentile is
given only when at least ten samples lie beyond it; otherwise the caller
gets None and reports the percentile as missing.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def median(values):
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return None
    mid = n // 2
    return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])


def percentile(values, q: float):
    """The q-quantile (0 < q < 1) by linear interpolation, or None.

    None when fewer than ``MIN_BEYOND`` samples lie above it.
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return None
    if q == 0.5:
        return median(vals)
    pos = q * (n - 1)
    lo = math.floor(pos)
    if n - 1 - lo < MIN_BEYOND:
        return None
    hi = min(lo + 1, n - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)
