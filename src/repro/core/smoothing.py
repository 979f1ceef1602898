"""Series smoothing.

PAL (the paper's precursor system, ref. [13]) smooths raw monitoring data
before change point detection to remove sensor noise; FChain inherits the
step. A centred moving average preserves the timing of level shifts, which
matters because onset times feed the propagation ordering.
"""

from __future__ import annotations

import numpy as np

from repro.common.timeseries import TimeSeries


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average with edge shrinking.

    Near the boundaries the window shrinks symmetrically instead of
    padding, so no artificial level shifts are introduced at the series
    ends (the look-back window boundary is exactly where onset rollback
    operates).

    Args:
        values: Input samples.
        window: Nominal window width (>= 1); even widths are rounded up to
            the next odd width to stay centred.

    Returns:
        Smoothed array of the same length.
    """
    values = np.asarray(values, dtype=float)
    if window <= 1 or len(values) <= 2:
        return values.copy()
    half = max(1, window // 2)
    n = len(values)
    # Prefix sums make each shrunken-window mean O(1).
    csum = np.concatenate([[0.0], np.cumsum(values)])
    i = np.arange(n)
    radius = np.minimum(np.minimum(i, n - 1 - i), half)
    lo, hi = i - radius, i + radius + 1
    return (csum[hi] - csum[lo]) / (hi - lo)


def smooth_series(series: TimeSeries, window: int) -> TimeSeries:
    """Smooth a :class:`TimeSeries`, preserving its time grid."""
    return TimeSeries(moving_average(series.values, window), start=series.start)
