"""Abnormal change point selection and onset-time identification.

This module implements the heart of the FChain slave (paper Sec. II-B).
The filters run in this order on each metric's look-back window:

1. smooth the window;
2. screen it (:func:`selection_screened`): when the smoothed window's
   range is below the PAL magnitude floor, or the online model's
   prediction errors stay at or under ``margin x`` their routine level
   everywhere a change point could sit, no change point can pass steps
   4 and 5, so CUSUM and its bootstrap are skipped and the window yields
   nothing. Most series of a diagnosis stop here;
3. detect change points (CUSUM + bootstrap);
4. keep magnitude outliers (the PAL step);
5. keep only outliers whose *actual* prediction error (from the online
   Markov model) exceeds the *expected* prediction error derived from the
   local burstiness (FFT burst extraction) and the model's routine error
   level, and whose shift persists and departs from the routine level;
6. roll each selected abnormal change point back along preceding change
   points with similar tangents to find the precise onset of the fault
   manifestation.

The screen is exact: each series draws its bootstrap from its own stream
(``spawn_rng("cusum", ...)``), so skipping one series' CUSUM leaves every
other series' change points, and therefore every verdict, bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.common.timeseries import TimeSeries
from repro.common.types import Metric
from repro.core.burst import expected_prediction_errors
from repro.core.config import FChainConfig
from repro.core.cusum import ChangePoint, detect_change_points
from repro.core.outliers import magnitude_floor, outlier_change_points
from repro.core.prediction import prediction_errors
from repro.core.smoothing import smooth_series
from repro.obs.trace import (
    NULL_SPAN,
    STAGE_BURST,
    STAGE_CUSUM,
    STAGE_OUTLIERS,
    STAGE_ROLLBACK,
    STAGE_SMOOTHING,
)

#: Ticks after a change point over which its actual prediction error is
#: taken (:func:`actual_prediction_error`).
ERROR_FORWARD = 4

#: Relative rounding slack of the screen's PAL bound: a change magnitude
#: is a difference of two segment means, which float summation can push
#: past the window's range by a few ulps of its level.
RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class AbnormalChange:
    """One abnormal change selected on a single metric.

    Attributes:
        metric: The metric it was found on.
        change_point: The selected change point.
        onset_time: Manifestation start after tangent rollback.
        prediction_error: Actual online-model prediction error at the point.
        expected_error: Burst-derived expected prediction error.
        direction: +1 upward shift, -1 downward.
    """

    metric: Metric
    change_point: ChangePoint
    onset_time: int
    prediction_error: float
    expected_error: float
    direction: int


def reference_change_magnitudes(
    history: TimeSeries, window: int = 10
) -> np.ndarray:
    """Normal change-magnitude scale from a history window.

    Approximates "magnitudes of change points seen during normal
    operation" with the distribution of adjacent-window mean shifts —
    cheap, and it tracks exactly the quantity the outlier filter compares
    against.
    """
    values = history.values
    if len(values) < 2 * window:
        return np.asarray([])
    csum = np.concatenate([[0.0], np.cumsum(values)])
    means = (csum[window:] - csum[:-window]) / window
    return np.abs(means[window:] - means[:-window])


def actual_prediction_error(
    errors: np.ndarray,
    series: TimeSeries,
    time: int,
    *,
    direction: int = 0,
    forward: int = ERROR_FORWARD,
) -> float:
    """Online-model prediction error attributed to a change point.

    The error is the maximum over the short forward window
    ``[cp, cp + forward]``: smoothing places the detected change point a
    tick or two *before* the raw jump, so the window looks ahead to where
    the model's one-step error actually spikes. Transient benign spikes
    also produce such errors; they are removed by the persistence check
    (:func:`shift_persists`) and the burstiness threshold instead.

    Args:
        errors: *Signed* per-sample errors (``actual - predicted``)
            aligned with ``series``.
        series: The analysed window.
        time: Change-point timestamp.
        direction: When non-zero, only errors matching the change
            direction count (an upward shift produces positive errors);
            falls back to the unsigned maximum if none match.
        forward: Forward window length.
    """
    idx = time - series.start
    lo = max(0, idx)
    hi = min(len(errors), idx + forward + 1)
    window = errors[lo:hi]
    finite = window[np.isfinite(window)]
    if len(finite) == 0:
        return 0.0
    if direction:
        matching = finite[np.sign(finite) == np.sign(direction)]
        if len(matching):
            return float(np.abs(matching).max())
    return float(np.abs(finite).max())


def history_error_reference(
    history_errors: np.ndarray, direction: int, percentile: float
) -> float:
    """Routine error level of the model under normal operation.

    Only same-direction errors are considered: benign spikes and flash
    bursts over-shoot the prediction (positive errors), so they say
    nothing about how abnormal an *under*-shoot (a collapse in the
    metric) is, and vice versa.
    """
    finite = history_errors[np.isfinite(history_errors)]
    if direction:
        finite = finite[np.sign(finite) == np.sign(direction)]
    if len(finite) < 20:
        return 0.0
    return float(np.percentile(np.abs(finite), percentile))


def history_error_references(
    history_errors: Optional[np.ndarray], percentile: float
) -> Dict[int, float]:
    """:func:`history_error_reference` of both change directions, keyed
    by direction; 0 for both when there is no error history."""
    if history_errors is None:
        return {1: 0.0, -1: 0.0}
    return {
        direction: history_error_reference(history_errors, direction, percentile)
        for direction in (1, -1)
    }


def selection_screened(
    smoothed: TimeSeries,
    errors: np.ndarray,
    references: Mapping[int, float],
    config: FChainConfig,
) -> bool:
    """Whether no change point of ``smoothed`` can pass selection.

    True only when every change point CUSUM could report — wherever it
    put it — would be rejected by the PAL floor or the prediction-error
    test of :func:`select_abnormal_changes`, so the window's CUSUM and
    bootstrap can be skipped without changing its (empty) result. Two
    bounds, either one suffices:

    (a) A change magnitude is a difference of two segment means of
        ``smoothed``, so it is at most the window's ``max - min``
        (plus :data:`RANGE_SLACK` of its level for rounding). Below the
        :func:`~repro.core.outliers.magnitude_floor`, nothing survives
        PAL.
    (b) CUSUM places a point at an index in ``[min_segment, n -
        min_segment]``. For direction ``d`` and such an index ``t``,
        ``G_d(t)`` is exactly the actual error
        :func:`actual_prediction_error` would report there. The expected
        error is at least ``references[d]``, so when ``G_d(t) <= margin
        x references[d]`` at every ``t`` for both directions, every
        point fails ``actual > margin x expected``.

    NaN anywhere in ``smoothed`` disables (a); NaN errors count as
    absent, as in :func:`actual_prediction_error`.
    """
    values = smoothed.values
    first = config.min_segment
    if len(values) < 2 * first:
        return True  # too short for CUSUM to split
    top, bottom = float(values.max()), float(values.min())
    slack = RANGE_SLACK * max(abs(top), abs(bottom))
    if (top - bottom) + slack < magnitude_floor(smoothed):
        return True
    margin = config.prediction_error_margin
    if margin < 0:
        return False
    count = len(values) - 2 * first + 1
    # Row i holds errors[first + i : first + i + ERROR_FORWARD + 1];
    # slots past the end of ``errors`` are NaN, i.e. absent.
    padded = np.full(count + ERROR_FORWARD, np.nan)
    tail = np.asarray(errors, dtype=float)[first : first + len(padded)]
    padded[: len(tail)] = tail
    windows = sliding_window_view(padded, ERROR_FORWARD + 1)
    finite = np.isfinite(windows)
    magnitudes = np.where(finite, np.abs(windows), -1.0)
    # Without an error of the point's sign, the largest of any sign
    # counts (0 when none is finite).
    fallback = np.maximum(magnitudes.max(axis=1), 0.0)
    signs = np.sign(windows)
    for direction in (1, -1):
        matching = np.where(signs == direction, magnitudes, -1.0).max(axis=1)
        largest = np.where(matching >= 0.0, matching, fallback)
        if (largest > margin * references[direction]).any():
            return False
    return True


def shift_persists(
    values: np.ndarray,
    index: int,
    magnitude: float,
    *,
    horizon: int = 15,
    min_fraction: float = 0.5,
) -> bool:
    """Whether a change point's level shift persists past transients.

    A *change point* is a lasting regime change; a flash burst or benign
    spike decays within seconds. The level ``horizon`` ticks after the
    point is compared with the level just before it: the shift must retain
    at least ``min_fraction`` of the detected magnitude. Points too close
    to the data edge (not enough forward evidence) are accepted — faults
    are detected moments after they manifest, so the freshest change
    points necessarily have little trailing data.

    Args:
        values: The analysed window's values.
        index: Change-point index within ``values``.
        magnitude: Detected mean-shift magnitude.
        horizon: Ticks ahead at which persistence is assessed.
        min_fraction: Required surviving fraction of the magnitude.
    """
    n = len(values)
    available = n - 1 - index
    if available < 6:
        return True
    h = min(horizon, available)
    early_lo = max(0, index - 7)
    early = values[early_lo : max(early_lo + 1, index - 1)]
    late = values[index + max(1, h - 4) : index + h + 1]
    if len(early) == 0 or len(late) == 0:
        return True
    shift = abs(float(np.mean(late)) - float(np.mean(early)))
    return shift >= min_fraction * magnitude


def change_departs_from_routine(
    history: TimeSeries,
    values: np.ndarray,
    index: int,
    direction: int,
    magnitude: float,
    *,
    horizon: int = 10,
    min_fraction: float = 0.35,
) -> bool:
    """Whether the post-change level actually leaves the routine level.

    A benign transient (a short monitoring spike, a flash burst) ends
    with a CUSUM change point too: the *decay* back to normal is a mean
    shift, it persists, and against the elevated spike segment it even
    looks large. What distinguishes it from a fault manifestation is
    where the series lands — after a real abnormal change the metric
    operates at a new level on the change's side of its routine history;
    after a transient's decay it is back exactly where it always was.

    The landing level (mean over the far end of the ``horizon`` ticks
    after the point, past the transient itself) must therefore depart
    from the routine level (the history median) in the change direction
    by at least ``min_fraction`` of the detected magnitude. Points too
    close to the window edge to measure a landing level, and series
    without usable history, are accepted — the check only ever vetoes
    changes with forward evidence of reversion.

    Args:
        history: Raw history preceding the analysed window (the routine
            operating level comes from here).
        values: The analysed window's raw values.
        index: Change-point index within ``values``.
        direction: +1 upward shift, -1 downward.
        magnitude: Detected mean-shift magnitude.
        horizon: Ticks after the point over which the landing level is
            measured.
        min_fraction: Required departure as a fraction of ``magnitude``.
    """
    if len(history) < 20 or direction == 0:
        return True
    post = values[index + max(1, horizon - 4) : index + horizon + 1]
    if len(post) < 3:
        return True
    routine = float(np.median(history.values))
    departure = (float(np.mean(post)) - routine) * direction
    return departure >= min_fraction * magnitude


def censored_onset(
    raw: TimeSeries,
    onset: int,
    direction: int,
    magnitude: float,
    *,
    head: int = 12,
    slope_fraction: float = 0.25,
) -> int:
    """Clamp the onset to the window start when manifestation is censored.

    When a slowly manifesting fault started *before* the look-back window
    (the Table-I DiskHog situation: W too small to cover the onset), the
    series is already trending in the abnormal direction at the window
    boundary. The true onset is then unknown — "window start" is the
    earliest statement the slave can make, and using it keeps concurrent
    slow faults on different components aligned instead of scattering
    their onsets across rollback stopping points.

    Args:
        raw: The raw (unsmoothed) look-back window; the trend test needs
            independent residuals, which smoothing would destroy.
        onset: Onset after tangent rollback.
        direction: Direction of the abnormal change.
        magnitude: Magnitude of the abnormal change.
        head: Ticks at the window start over which the initial trend is
            measured.
        slope_fraction: The initial trend, extrapolated over ``head``
            ticks, must account for at least this fraction of the change
            magnitude to count as "already manifesting".

    Returns:
        ``raw.start`` when censored, otherwise ``onset``.
    """
    if onset <= raw.start or len(raw) < head + 2:
        return onset
    x = np.arange(head, dtype=float)
    y = raw.values[:head]
    slope, intercept = np.polyfit(x, y, 1)
    if np.sign(slope) != np.sign(direction):
        return onset
    if abs(slope) * head < slope_fraction * magnitude:
        return onset
    # The head trend must be statistically significant, not sampling
    # noise: require the slope to exceed three standard errors.
    residuals = y - (slope * x + intercept)
    denom = float(np.sqrt(np.sum((x - x.mean()) ** 2)))
    stderr = float(np.std(residuals, ddof=2)) / max(denom, 1e-12)
    if abs(slope) < 3.0 * stderr:
        return onset
    # The manifestation must actually have *progressed* between the
    # window start and the onset candidate: a head that merely wiggles
    # with the workload while the level near the onset is unchanged is
    # not a censored manifestation.
    span = onset - raw.start
    if span >= 2 * head:
        early = float(np.mean(y))
        late_lo = max(0, span - head)
        late = float(np.mean(raw.values[late_lo:span]))
        if np.sign(late - early) != np.sign(direction):
            return onset
        if abs(late - early) < slope_fraction * magnitude:
            return onset
    return raw.start


def rollback_onset(
    smoothed: TimeSeries,
    change_points: Sequence[ChangePoint],
    selected: ChangePoint,
    *,
    tolerance: float = 0.1,
    span: int = 3,
    max_step_gap: int = 12,
) -> int:
    """Tangent-based rollback to the manifestation start (paper Sec. II-B).

    Starting from the selected abnormal change point, compare the tangent
    (local slope) at the current change point with that at its preceding
    change point; while they are close, roll back. Tangent closeness is
    relative: ``|a - b| <= tolerance * max(|a|, |b|)`` (with a small
    absolute floor), which makes the 0.1 constant scale-free across
    metrics measured in different units.

    Returns:
        The onset timestamp.
    """
    ordered = sorted(change_points, key=lambda p: p.time)
    scale_floor = 1e-3 * (smoothed.std() + 1e-12)
    position = next(
        (i for i, p in enumerate(ordered) if p.time == selected.time), None
    )
    if position is None:
        return selected.time
    current = ordered[position]
    while position > 0:
        previous = ordered[position - 1]
        # A fault manifestation that started earlier shows as a run of
        # nearby change points continuing the same trend. Stop when the
        # preceding point reverses direction or lies too far back — those
        # belong to ordinary pre-fault fluctuation, and rolling across
        # them would inflate how early the manifestation looks.
        if previous.direction != current.direction:
            break
        if current.time - previous.time > max_step_gap:
            break
        slope_current = smoothed.slope_at(current.time, span)
        slope_previous = smoothed.slope_at(previous.time, span)
        gap = abs(slope_current - slope_previous)
        bound = tolerance * max(abs(slope_current), abs(slope_previous))
        if gap > max(bound, scale_floor):
            break
        position -= 1
        current = previous
    return current.time


def smooth_window(
    raw: TimeSeries, config: FChainConfig, span=NULL_SPAN
) -> TimeSeries:
    """Smooth one look-back window (the first filter, timed as its own
    stage)."""
    with span.child(STAGE_SMOOTHING):
        return smooth_series(raw, config.smoothing_window)


def detect_window_change_points(
    raw: TimeSeries,
    metric: Metric,
    config: FChainConfig,
    *,
    seed: object = 0,
    span=NULL_SPAN,
    smoothed: Optional[TimeSeries] = None,
) -> Tuple[TimeSeries, List[ChangePoint]]:
    """Smooth one look-back window and run CUSUM + bootstrap on it.

    This is the expensive, purely window-determined prefix of
    :func:`select_abnormal_changes` (the 100+ bootstrap permutations per
    candidate split dominate the cost of a window that passes the
    screen). It is split out so the slave can cache its output keyed by
    ``(component, metric, window)``: the metric store is append-only, so
    the same window bounds always hold the same samples and the cached
    result stays exact.

    Args:
        smoothed: The window already smoothed by :func:`smooth_window`
            (a caller that screened it first passes it on); smoothed here
            when omitted.

    Returns:
        ``(smoothed, points)`` — the smoothed window and its change
        points, exactly as the inline path computes them.
    """
    if smoothed is None:
        smoothed = smooth_window(raw, config, span)
    with span.child(STAGE_CUSUM) as cusum_span:
        points = detect_change_points(
            smoothed,
            bootstraps=config.cusum_bootstraps,
            confidence=config.cusum_confidence,
            min_segment=config.min_segment,
            seed=(seed, str(metric)),
        )
        cusum_span.count("change_points_found", len(points))
    return smoothed, points


def select_abnormal_changes(
    raw: TimeSeries,
    history: TimeSeries,
    metric: Metric,
    config: FChainConfig,
    *,
    seed: object = 0,
    errors: Optional[np.ndarray] = None,
    history_errors: Optional[np.ndarray] = None,
    detected: Optional[Tuple[TimeSeries, List[ChangePoint]]] = None,
    full_series: Optional[TimeSeries] = None,
    history_references: Optional[Mapping[int, float]] = None,
    span=NULL_SPAN,
) -> List[AbnormalChange]:
    """Run the full slave-side selection pipeline on one metric window.

    Args:
        raw: The look-back window ``[t_v - W, t_v]`` of the raw series.
        history: A longer raw history ending at the window start, used for
            the normal change-magnitude reference and (if ``errors`` is
            not supplied) to train the online prediction model.
        metric: Which metric this is (carried into the result).
        config: FChain configuration.
        seed: Label for the deterministic CUSUM bootstrap stream.
        errors: Optional precomputed *signed* per-sample prediction
            errors (``actual - predicted``) aligned with ``raw`` (the
            slave trains its model online over the full history and
            passes the window slice); if omitted the model is trained
            here over ``history`` + ``raw``.
        history_errors: Signed prediction errors over the training
            history (the samples preceding ``raw``), used to derive the
            model's routine same-direction error level under normal
            operation.
        detected: Optional precomputed ``(smoothed, points)`` pair from
            :func:`detect_window_change_points` (the slave caches these
            per window). If omitted, the window is smoothed and screened
            (:func:`selection_screened`) here, and CUSUM runs only when
            the screen lets it through.
        full_series: Optional series spanning ``history`` + ``raw``
            contiguously. Callers that already hold such a series (the
            slave's windowed store views) pass it to avoid an O(history)
            concatenation per metric.
        history_references: Optional :func:`history_error_references`
            of ``history_errors`` (a caller that screened the window
            passes them on); computed here when omitted.
        span: Optional parent telemetry span; stage child spans (PAL
            outlier filter, burst thresholds, onset rollback) attach to
            it. Defaults to the shared no-op span.

    Returns:
        Abnormal changes, possibly empty.
    """
    if len(raw) < 2 * config.min_segment:
        return []
    if errors is None:
        combined = TimeSeries(
            np.concatenate([history.values, raw.values]), start=history.start
        )
        all_errors = prediction_errors(
            combined,
            bins=config.markov_bins,
            halflife=config.markov_halflife,
            signed=True,
        )
        errors = all_errors[len(history):]
        if history_errors is None:
            history_errors = all_errors[: len(history)]
    if history_references is None:
        history_references = history_error_references(
            history_errors, config.history_error_percentile
        )
    if detected is None:
        smoothed = smooth_window(raw, config, span)
        if selection_screened(smoothed, errors, history_references, config):
            span.count("cusum_screened", 1)
            return []
        detected = detect_window_change_points(
            raw, metric, config, seed=seed, span=span, smoothed=smoothed
        )
    smoothed, points = detected
    if not points:
        return []
    with span.child(STAGE_OUTLIERS) as outlier_span:
        reference = reference_change_magnitudes(history)
        outliers = outlier_change_points(
            points, reference, smoothed, zscore=config.outlier_zscore
        )
        outlier_span.count("change_points_filtered", len(points) - len(outliers))
        outlier_span.count("outliers_survived", len(outliers))
    if not outliers:
        return []

    if full_series is not None:
        full = full_series
    else:
        full = TimeSeries(
            np.concatenate([history.values, raw.values]), start=history.start
        ) if len(history) else raw

    # One stacked rfft/irfft over all surviving change points of this
    # metric instead of one FFT pair per point (bit-identical; see
    # repro.core.burst.expected_prediction_errors).
    with span.child(STAGE_BURST) as burst_span:
        burst_thresholds = expected_prediction_errors(
            full,
            [point.time for point in outliers],
            burst_window=config.burst_window,
            high_frequency_fraction=config.high_frequency_fraction,
            percentile=config.burst_percentile,
        )
        burst_span.count("burst_thresholds_computed", len(burst_thresholds))

    abnormal: List[AbnormalChange] = []
    with span.child(STAGE_ROLLBACK) as rollback_span:
        for point, burst_threshold in zip(outliers, burst_thresholds):
            history_reference = history_references[point.direction]
            actual = actual_prediction_error(
                errors, raw, point.time, direction=point.direction
            )
            expected = float(burst_threshold)
            # The expected error is the larger of the burstiness-derived
            # threshold and the model's own routine error level under normal
            # operation: an error the model already produced regularly (e.g.
            # at recurring flash bursts) does not indicate a fault.
            expected = max(expected, history_reference)
            if actual <= config.prediction_error_margin * expected:
                continue
            if not shift_persists(raw.values, point.time - raw.start, point.magnitude):
                continue
            if not change_departs_from_routine(
                history,
                raw.values,
                point.time - raw.start,
                point.direction,
                point.magnitude,
            ):
                continue
            onset = rollback_onset(
                smoothed, points, point, tolerance=config.tangent_tolerance
            )
            onset = censored_onset(raw, onset, point.direction, point.magnitude)
            abnormal.append(
                AbnormalChange(
                    metric=metric,
                    change_point=point,
                    onset_time=onset,
                    prediction_error=actual,
                    expected_error=expected,
                    direction=point.direction,
                )
            )
        rollback_span.count("abnormal_selected", len(abnormal))
    return abnormal
