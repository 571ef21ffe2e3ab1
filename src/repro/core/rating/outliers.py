"""Measurement-outlier elimination (paper Section 3).

"The tuning engine also identifies and eliminates measurement outliers,
which are far away from the average.  Such data may result from system
perturbations, such as interrupts."

We use the robust median/MAD rule: a sample is an outlier when it lies more
than ``k`` scaled MADs from the median.  With a degenerate MAD (many equal
samples) a symmetric relative fallback applies: samples outside
``[med/3, 3*med]`` are outliers.

The rule runs on a *sorted* copy of the samples (:func:`keep_bounds`).  The
median is read off directly.  The deviations ``|x - med|`` form two monotone
runs, one on each side of the median, so the MAD is the k-th smallest
element of two sorted sequences and is found by binary search.  The kept
samples are a contiguous range of the sorted copy, found the same way, so
one rule evaluation costs O(log n) once the sorted copy exists.  Every value
it compares is computed with the same float operations as the numpy
formulation (``np.median``, ``np.abs(x - med)``), so the kept set is
identical to it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf, nan

import numpy as np

__all__ = ["apply_bounds", "filter_outliers", "keep_bounds"]

#: scale factor making MAD comparable to a standard deviation for normals
_MAD_SCALE = 1.4826


def _order_stat(s: list[float], med: float, p: int, t: int) -> float:
    """The t-th smallest (1-based) of the deviations ``abs(x - med)`` of the
    sorted *s* split at ``p`` (``s[:p] < med <= s[p:]``), none of them NaN.

    Left of the split the deviations grow towards index 0, right of it
    towards the end: two sorted runs.  Binary search for how many of the t
    smallest come from the left run (the usual two-sorted-sequences
    selection).
    """
    lo, hi = max(0, t - (len(s) - p)), min(t, p)
    while lo < hi:
        i = (lo + hi) // 2  # i from the left run, t - i from the right
        if abs(s[p + t - i - 1] - med) <= abs(s[p - 1 - i] - med):
            hi = i
        else:
            lo = i + 1
    left = abs(s[p - lo] - med) if lo > 0 else -inf
    right = abs(s[p + t - lo - 1] - med) if t > lo else -inf
    return left if left > right else right


def keep_bounds(s: list[float], k: float) -> tuple[float, float] | None:
    """Apply the outlier rule to the sorted, NaN-free samples *s*.

    Returns ``(lo, hi)``: the rule keeps exactly the samples with ``lo <= x
    <= hi``.  Returns ``None`` when every sample is kept: fewer than four
    samples, nothing dropped, or the rule would drop half or more of them.
    """
    n = len(s)
    if n < 4:
        return None
    h = n // 2
    med = s[h] if n % 2 else (s[h - 1] + s[h]) / 2
    if med != med:  # -inf and +inf straddle the middle
        return None
    p = bisect_left(s, med)
    if (med == inf or med == -inf) and p < n and s[p] == med:
        mad = nan  # inf - inf: np.median of the deviations is NaN
    elif n % 2:
        mad = _order_stat(s, med, p, h + 1) * _MAD_SCALE
    else:
        mad = (_order_stat(s, med, p, h) + _order_stat(s, med, p, h + 1)) / 2 * _MAD_SCALE
    if mad > 0:
        thr = k * mad
        if abs(s[0] - med) <= thr and abs(s[-1] - med) <= thr:
            return None  # nothing dropped
        # deviations fall over s[:p] and rise over s[p:]: binary search
        # for the first kept sample on the left, the first dropped on the right
        lo, j = 0, p
        while lo < j:
            m = (lo + j) // 2
            if abs(s[m] - med) <= thr:
                j = m
            else:
                lo = m + 1
        j, hi = p, n
        while j < hi:
            m = (j + hi) // 2
            if abs(s[m] - med) <= thr:
                j = m + 1
            else:
                hi = m
    elif med > 0:
        lo = bisect_left(s, med / 3.0)
        hi = bisect_right(s, 3.0 * med)
    else:
        return None
    count = hi - lo
    if count <= h or count == n:
        return None
    return s[lo], s[hi - 1]


def apply_bounds(x: np.ndarray, bounds: tuple[float, float] | None) -> np.ndarray:
    """The samples of *x* (arrival order) that *bounds* keeps."""
    if bounds is None:
        return x
    lo, hi = bounds
    return x[(x >= lo) & (x <= hi)]


def filter_outliers(samples: np.ndarray, k: float = 8.0) -> np.ndarray:
    """Return *samples* with outliers removed (order preserved).

    Never removes half or more of the data: if the rule would, the data is
    not outlier-contaminated but genuinely spread, and everything is kept.

    The degenerate-MAD fallback (many equal samples) is symmetric: samples
    outside ``[med/3, 3*med]`` are dropped, so a 0-cycle mismeasurement is
    eliminated just like a 10x interrupt spike.  A window holding a NaN
    is kept whole (its median is NaN).
    """
    x = np.asarray(samples, dtype=float)
    if np.isnan(x).any():
        return x
    return apply_bounds(x, keep_bounds(np.sort(x, axis=None).tolist(), k))
