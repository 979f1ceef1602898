"""Tests for change-magnitude outlier selection."""

import tracemalloc

import numpy as np

from repro.common.timeseries import TimeSeries
from repro.core.cusum import ChangePoint
from repro.core.outliers import outlier_change_points


def cp(time, magnitude, direction=1):
    return ChangePoint(
        time=time, index=time, confidence=1.0, magnitude=magnitude,
        direction=direction,
    )


def flat_series(n=100, level=50.0):
    return TimeSeries(np.full(n, level))


class TestOutlierSelection:
    def test_large_magnitude_selected(self):
        reference = [1.0] * 30
        selected = outlier_change_points(
            [cp(10, 20.0)], reference, flat_series()
        )
        assert len(selected) == 1

    def test_ordinary_magnitude_rejected(self):
        reference = list(np.linspace(5, 15, 30))
        selected = outlier_change_points(
            [cp(10, 10.0)], reference, flat_series()
        )
        assert selected == []

    def test_tiny_relative_shift_rejected(self):
        # Big z-score but negligible against the series level.
        reference = [0.01] * 30
        selected = outlier_change_points(
            [cp(10, 0.5)], reference, flat_series(level=1000.0)
        )
        assert selected == []

    def test_empty_candidates(self):
        assert outlier_change_points([], [1.0], flat_series()) == []

    def test_no_reference_uses_floor_only(self):
        selected = outlier_change_points(
            [cp(10, 30.0), cp(20, 30.0)], [], flat_series()
        )
        # Identical magnitudes: zero variance, floor decides (30 > 15%).
        assert len(selected) == 2

    def test_sorted_by_time(self):
        reference = [1.0] * 30
        selected = outlier_change_points(
            [cp(30, 25.0), cp(10, 30.0)], reference, flat_series()
        )
        assert [p.time for p in selected] == [10, 30]

    def test_zscore_parameter(self):
        reference = list(np.linspace(1, 3, 50))
        candidate = cp(10, 8.0)
        strict = outlier_change_points(
            [candidate], reference, flat_series(), zscore=20.0
        )
        lax = outlier_change_points(
            [candidate], reference, flat_series(), zscore=1.0
        )
        assert strict == []
        assert len(lax) == 1

    def test_long_history_reference_stays_an_array(self):
        """A 10**6-tick history must not round-trip through Python floats.

        The reference scale grows with uptime (12 days at 1 Hz is 10**6
        magnitudes); boxing it into a list per metric window costs about
        38 MB and 90 ms a call, an array concatenation under half of that.
        """
        reference = np.abs(np.random.default_rng(5).normal(0.0, 1.0, 10**6))
        candidates = [cp(10, 9.0), cp(20, 1.0), cp(30, 6.0, direction=-1)]
        magnitudes = np.append(reference, [p.magnitude for p in candidates])
        mean, std = magnitudes.mean(), magnitudes.std()
        expected = [p for p in candidates if (p.magnitude - mean) / std >= 2.0]
        tracemalloc.start()
        try:
            selected = outlier_change_points(
                candidates, reference, flat_series(level=10.0)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert selected == expected == [cp(10, 9.0), cp(30, 6.0, direction=-1)]
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"
