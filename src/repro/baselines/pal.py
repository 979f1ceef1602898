"""PAL: propagation-aware anomaly localization (paper ref. [13]).

PAL is the authors' precursor to FChain: it smooths the look-back window,
detects change points with CUSUM + bootstrap, keeps *magnitude outliers*,
rolls back to the onset, sorts components by onset and pinpoints the chain
source plus concurrent components. It does **not** perform
predictability-based selection (no Markov model, no burst threshold), does
not use dependency information, and has no online validation — exactly the
differences the paper lists in Sec. III-A.

The shared :func:`pal_component_report` is also the abnormal-component
detector of the Topology and Dependency baselines ("the outlier change
point detection algorithm developed in our previous work PAL").
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.baselines.base import LocalizationContext, Localizer
from repro.common.types import ComponentId
from repro.core.config import FChainConfig
from repro.core.cusum import detect_change_points
from repro.core.outliers import outlier_change_points
from repro.core.propagation import ComponentReport
from repro.core.selection import (
    AbnormalChange,
    censored_onset,
    reference_change_magnitudes,
    rollback_onset,
)
from repro.core.smoothing import smooth_series
from repro.monitoring.store import MetricStore


def pal_component_report(
    store: MetricStore,
    component: ComponentId,
    violation_time: int,
    config: FChainConfig,
    seed: object = 0,
) -> ComponentReport:
    """PAL-style abnormal change detection for one component.

    Same smoothing + CUSUM + magnitude-outlier + rollback pipeline as
    FChain, but *without* the predictability filter: every magnitude
    outlier counts as an abnormal change.
    """
    window_start = violation_time - config.look_back_window
    window_end = violation_time + config.analysis_grace + 1
    changes: List[AbnormalChange] = []
    for metric in store.metrics_for(component):
        full = store.series(component, metric).window(store.start, window_end)
        if len(full) < 2 * config.min_segment:
            continue
        raw = full.window(window_start, window_end)
        if len(raw) < 2 * config.min_segment:
            continue
        history = full.window(full.start, raw.start)
        smoothed = smooth_series(raw, config.smoothing_window)
        points = detect_change_points(
            smoothed,
            bootstraps=config.cusum_bootstraps,
            confidence=config.cusum_confidence,
            min_segment=config.min_segment,
            seed=(seed, component, str(metric)),
        )
        reference = reference_change_magnitudes(history)
        outliers = outlier_change_points(
            points, reference, smoothed, zscore=config.outlier_zscore
        )
        for point in outliers:
            onset = rollback_onset(
                smoothed, points, point, tolerance=config.tangent_tolerance
            )
            onset = censored_onset(raw, onset, point.direction, point.magnitude)
            changes.append(
                AbnormalChange(
                    metric=metric,
                    change_point=point,
                    onset_time=onset,
                    prediction_error=float("nan"),
                    expected_error=float("nan"),
                    direction=point.direction,
                )
            )
    return ComponentReport(component=component, abnormal_changes=changes)


class PALLocalizer(Localizer):
    """The PAL baseline: onset-sorted chain without predictability filter."""

    name = "PAL"

    def _localize(
        self,
        store: MetricStore,
        *,
        violation_time: int,
        context: LocalizationContext,
    ) -> FrozenSet[ComponentId]:
        config = context.config
        reports = [
            pal_component_report(
                store, component, violation_time, config, seed=context.seed
            )
            for component in store.components
        ]
        abnormal = sorted(
            (r for r in reports if r.is_abnormal),
            key=lambda r: (r.onset_time, r.component),
        )
        if not abnormal:
            return frozenset()
        faulty = {abnormal[0].component}
        onsets = {r.component: r.onset_time for r in abnormal}
        for report in abnormal[1:]:
            distance = min(
                abs(report.onset_time - onsets[f]) for f in faulty
            )
            if distance <= config.concurrency_threshold:
                faulty.add(report.component)
        return frozenset(faulty)
