"""Change-magnitude outlier detection (the PAL filtering step).

Raw CUSUM finds many change points under dynamic workloads. PAL's first
filter keeps only the points whose change magnitude stands out: a change
point is an *outlier candidate* when its magnitude z-score (against all
change points observed for that metric over an extended history window)
exceeds a threshold, and the shift is non-trivial relative to the series'
own scale.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.common.timeseries import TimeSeries
from repro.core.cusum import ChangePoint


def magnitude_floor(series: TimeSeries, min_relative_shift: float = 0.15) -> float:
    """The smallest change magnitude the PAL step keeps on ``series``:
    ``min_relative_shift`` of the series' mean absolute level."""
    level = float(np.mean(np.abs(series.values))) if len(series) else 0.0
    return min_relative_shift * max(level, 1e-9)


def outlier_change_points(
    points: Sequence[ChangePoint],
    reference_magnitudes: Sequence[float],
    series: TimeSeries,
    *,
    zscore: float = 2.0,
    min_relative_shift: float = 0.15,
) -> List[ChangePoint]:
    """Select magnitude-outlier change points.

    Args:
        points: Candidate change points (from the look-back window).
        reference_magnitudes: Change magnitudes observed over a longer
            history of the same metric; provides the normal-change scale.
            The candidates' own magnitudes are included automatically.
        series: The series the candidates came from (for the scale check).
        zscore: Required z-score against the reference distribution.
        min_relative_shift: Required magnitude as a fraction of the
            series' mean absolute level, so tiny-but-rare wiggles on an
            almost-constant metric do not qualify.

    Returns:
        The outlier candidates, sorted by time.
    """
    if not points:
        return []
    reference = np.concatenate(
        [np.asarray(reference_magnitudes, dtype=float), [p.magnitude for p in points]]
    )
    mean = float(reference.mean())
    std = float(reference.std())
    floor = magnitude_floor(series, min_relative_shift)

    selected: List[ChangePoint] = []
    for point in points:
        if point.magnitude < floor:
            continue
        if std > 0:
            score = (point.magnitude - mean) / std
            if score < zscore:
                continue
        # With zero variance every candidate matches the reference level;
        # the relative-shift floor above is then the only discriminator.
        selected.append(point)
    return sorted(selected, key=lambda p: p.time)
