"""CUSUM + bootstrap change point detection.

The standard algorithm the paper cites (Basseville & Nikiforov [21], the
"CUSUM + Bootstrap" method of Fig. 3): the cumulative sum of deviations
from the segment mean peaks where the mean shifts; a permutation bootstrap
decides whether the peak is significant; recursive binary segmentation
finds multiple change points.

This deliberately over-fires on fluctuating metrics — that is the paper's
point: raw change point detection finds "many change points [that] are just
random peak and bottom values", and FChain's later stages must filter them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.common.rng import spawn_rng
from repro.common.timeseries import TimeSeries


@dataclass(frozen=True)
class ChangePoint:
    """One detected change point.

    Attributes:
        time: Absolute timestamp of the change point.
        index: Index within the analysed series.
        confidence: Bootstrap confidence of the mean shift.
        magnitude: ``|mean(after) - mean(before)|`` around the point.
        direction: +1 for an upward shift, -1 for downward.
    """

    time: int
    index: int
    confidence: float
    magnitude: float
    direction: int


def _cusum_peak(values: np.ndarray) -> tuple:
    """Location and range of the CUSUM peak of one segment."""
    deviations = values - values.mean()
    track = np.cumsum(deviations)
    peak_index = int(np.argmax(np.abs(track)))
    spread = float(track.max() - track.min())
    return peak_index, spread


def _bootstrap_confidence(
    values: np.ndarray, spread: float, bootstraps: int, rng: np.random.Generator
) -> float:
    """Fraction of value permutations with a smaller CUSUM spread.

    The permutations are exactly those of the reference implementation —
    ``bootstraps`` sequential in-place shuffles of one work buffer — and
    the RNG ends in the same state, so every detected change point is
    unchanged. They are drawn in one ``Generator.permuted`` call instead:
    it shuffles the rows of a C-contiguous ``[bootstraps, n]`` tile of
    ``arange(n)`` in row order with the same bounded-interval
    Fisher–Yates as ``shuffle``, so row *i* is the position permutation
    the *i*-th shuffle applies. Row *i* of the buffer after *i* shuffles
    is that permutation composed onto the rows before it, which prefix
    doubling computes in ``ceil(log2(bootstraps))`` flat gathers; the
    CUSUM spreads of all permutations are then one vectorized batch.
    This test dominates ``localize`` (it runs per candidate split per
    metric), so its cost must not scale with Python calls per bootstrap.
    """
    if spread == 0.0:
        return 0.0
    n = len(values)
    # C order matters: permuted() walks rows in memory order, and the
    # flat gathers below read the rows through reshape(-1) as a view.
    order = np.tile(np.arange(n), (bootstraps, 1))
    rng.permuted(order, axis=1, out=order)
    flat = order.reshape(-1)
    row_starts = np.arange(0, bootstraps * n, n)[:, None]
    shift = 1
    while shift < bootstraps:
        order[shift:] = flat[order[shift:] + row_starts[: bootstraps - shift]]
        shift *= 2
    permutations = values[order]
    deviations = permutations - permutations.mean(axis=1, keepdims=True)
    tracks = np.cumsum(deviations, axis=1)
    spreads = tracks.max(axis=1) - tracks.min(axis=1)
    return int(np.count_nonzero(spreads < spread)) / bootstraps


def detect_change_points(
    series: TimeSeries,
    *,
    bootstraps: int = 120,
    confidence: float = 0.95,
    min_segment: int = 5,
    seed: object = 0,
) -> List[ChangePoint]:
    """Find change points via recursive CUSUM + bootstrap segmentation.

    Args:
        series: The (typically smoothed) series to segment.
        bootstraps: Permutations per significance test.
        confidence: Minimum bootstrap confidence to accept a change point.
        min_segment: Do not split segments shorter than this.
        seed: Label for the deterministic bootstrap stream.

    Returns:
        Accepted change points sorted by time.
    """
    rng = spawn_rng("cusum", seed)
    values = series.values
    found: List[ChangePoint] = []

    def split(lo: int, hi: int) -> None:
        segment = values[lo:hi]
        if len(segment) < 2 * min_segment:
            return
        peak, spread = _cusum_peak(segment)
        conf = _bootstrap_confidence(segment, spread, bootstraps, rng)
        if conf < confidence:
            return
        index = lo + peak
        if index - lo < min_segment or hi - index < min_segment:
            return
        before = values[lo:index].mean()
        after = values[index:hi].mean()
        magnitude = float(abs(after - before))
        direction = 1 if after >= before else -1
        found.append(
            ChangePoint(
                time=series.start + index,
                index=index,
                confidence=conf,
                magnitude=magnitude,
                direction=direction,
            )
        )
        split(lo, index)
        split(index, hi)

    split(0, len(values))
    found.sort(key=lambda cp: cp.time)
    return found
