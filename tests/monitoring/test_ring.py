"""Ring-buffer semantics of the rewritten MetricStore.

Covers the behavior the dict-backed store never had to define: bounded
retention with overwrite, reads across the physical wrap seam, backfill
into evicted history, misaligned ticks and the strict ingest mode.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.common.errors import DataQualityError
from repro.common.types import Metric, MetricSample
from repro.eval.bench import synthetic_store
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import (
    DEFAULT_RETENTION,
    IngestBatch,
    IngestRun,
    MetricStore,
)

CPU = Metric.CPU_USAGE


def _run_batch(component, start, values, watermark=None):
    return IngestBatch(
        runs=[
            IngestRun(
                component, CPU, start, np.asarray(values, dtype=np.float64)
            )
        ],
        watermark=watermark,
    )


def _tick_by_tick(store, component, values, start=0):
    for i, value in enumerate(values):
        t = start + i
        store.ingest(_run_batch(component, t, [float(value)], watermark=t + 1))


class TestRetentionOverwrite:
    def test_overwrite_at_capacity_boundary(self):
        store = MetricStore(retention=8)
        store.ingest(_run_batch("c", 0, np.arange(12.0), watermark=12))
        series = store.series("c", CPU)
        assert store.length == 12
        assert series.start == 4
        np.testing.assert_array_equal(series.values, np.arange(4.0, 12.0))
        assert store.retained_start("c", CPU) == 4

    def test_exact_capacity_is_not_evicted(self):
        store = MetricStore(retention=8)
        store.ingest(_run_batch("c", 0, np.arange(8.0), watermark=8))
        series = store.series("c", CPU)
        assert series.start == 0
        np.testing.assert_array_equal(series.values, np.arange(8.0))

    def test_oversized_run_keeps_newest_samples(self):
        store = MetricStore(retention=4)
        store.ingest(_run_batch("c", 0, np.arange(10.0), watermark=10))
        series = store.series("c", CPU)
        assert series.start == 6
        np.testing.assert_array_equal(series.values, np.arange(6.0, 10.0))

    def test_steady_state_is_allocation_free(self):
        store = MetricStore(retention=8)
        _tick_by_tick(store, "c", range(8))
        ring = store._series[("c", CPU)]
        buffer_before = ring.values
        _tick_by_tick(store, "c", range(8, 40), start=8)
        assert store._series[("c", CPU)].values is buffer_before


class TestFarAheadGap:
    """A gap longer than the retention pads only what the ring keeps."""

    @staticmethod
    def _store_with_history(retention, policy):
        store = MetricStore(policy=policy, retention=retention)
        store.ingest(_run_batch("c", 0, np.arange(1.0, 101.0), watermark=100))
        return store

    def test_far_ahead_sample_allocates_only_the_retained_tail(self):
        store = self._store_with_history(DEFAULT_RETENTION, DataQualityPolicy())
        tracemalloc.start()
        try:
            store.ingest(
                IngestBatch(
                    samples=[MetricSample("c", CPU, 10**8, 5.0)],
                    watermark=10**8 + 1,
                )
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert store.end == 10**8 + 1
        quality = store.series_quality("c", CPU)
        assert quality.missing == 10**8 - 100
        assert quality.observed == 101

    def test_long_gap_matches_the_fully_padded_tail(self):
        # An unbounded store pads every slot of the gap; the bounded one
        # must retain exactly that store's tail, under every kind of pad
        # (interpolated, forward to an invalid reading, missing past the
        # 10-tick budget), through both the per-sample and the run path.
        retention = 8
        cases = [(9, 7.0), (9, math.nan), (3 * retention, 7.0)]
        for gap, value in cases:
            for as_run in (False, True):
                stores = [
                    self._store_with_history(r, DataQualityPolicy())
                    for r in (retention, DEFAULT_RETENTION)
                ]
                t = 100 + gap
                for store in stores:
                    if as_run:
                        store.ingest(_run_batch("c", t, [value], watermark=t + 1))
                    else:
                        store.ingest(
                            IngestBatch(
                                samples=[MetricSample("c", CPU, t, value)],
                                watermark=t + 1,
                            )
                        )
                bounded, padded = stores
                label = f"gap={gap} value={value} run={as_run}"
                assert bounded.end == padded.end, label
                series = bounded.series("c", CPU)
                full = padded.series("c", CPU)
                assert series.start == full.end - retention, label
                np.testing.assert_array_equal(
                    series.values, full.values[-retention:], err_msg=label
                )
                kept = bounded.series_quality("c", CPU)
                whole = padded.series_quality("c", CPU)
                assert kept.gap_slots == {
                    slot: kind
                    for slot, kind in whole.gap_slots.items()
                    if slot >= series.start
                }, label
                assert replace(kept, gap_slots={}) == replace(
                    whole, gap_slots={}
                ), label


class TestWrapSeamReads:
    def test_window_spanning_the_wrap_seam(self):
        store = MetricStore(retention=8)
        _tick_by_tick(store, "c", range(13))
        # Retained slots are [5, 13); physical positions wrap at 8.
        window = store.window("c", CPU, 6, 12)
        assert window.start == 6
        np.testing.assert_array_equal(window.values, np.arange(6.0, 12.0))

    def test_wrapped_series_is_one_zero_copy_view(self):
        store = MetricStore(retention=8)
        _tick_by_tick(store, "c", range(13))
        series = store.series("c", CPU)
        assert series.start == 5
        np.testing.assert_array_equal(series.values, np.arange(5.0, 13.0))
        # The mirror guarantees contiguity: a view, never a copy.
        assert series.values.base is not None


class TestEvictedBackfill:
    def test_rejected_with_counted_drop(self):
        store = MetricStore(policy=DataQualityPolicy(), retention=8)
        store.ingest(_run_batch("c", 0, np.arange(12.0), watermark=12))
        revision_before = store.revision
        # Slot 3 is within the 10-tick late window but was evicted.
        store.ingest("c", CPU, 3, 99.0)
        assert store.revision == revision_before
        assert store.series_quality("c", CPU).late_dropped == 1
        series = store.series("c", CPU)
        assert series.start == 4
        np.testing.assert_array_equal(series.values, np.arange(4.0, 12.0))

    def test_retained_backfill_still_repairs(self):
        store = MetricStore(policy=DataQualityPolicy(), retention=8)
        store.ingest(_run_batch("c", 0, np.arange(10.0), watermark=10))
        store.ingest("c", CPU, 4, float("nan"))  # duplicate -> dropped
        assert store.series_quality("c", CPU).duplicates == 1


class TestMisalignedTicks:
    def test_skipped_tick_raises_on_next_ingest(self):
        store = MetricStore()
        store.ingest(
            IngestBatch(
                samples=[
                    MetricSample("a", CPU, 0, 1.0),
                    MetricSample("b", CPU, 0, 1.0),
                ],
                watermark=1,
            )
        )
        # "b" skips tick 1; its next sample at t=2 leaves a hole the
        # strict store refuses to paper over.
        store.ingest(IngestBatch(samples=[MetricSample("a", CPU, 1, 2.0)]))
        with pytest.raises(DataQualityError, match="gap of 1 tick"):
            store.ingest(
                IngestBatch(samples=[MetricSample("b", CPU, 2, 2.0)])
            )

    def test_aligned_ticks_advance_cleanly(self):
        store = MetricStore()
        for t in range(3):
            store.ingest(
                IngestBatch(
                    samples=[
                        MetricSample("a", CPU, t, float(t)),
                        MetricSample("b", CPU, t, float(t)),
                    ],
                    watermark=t + 1,
                )
            )
        assert store.length == 3


class TestStrictPreset:
    @staticmethod
    def _sample(t, value=1.0):
        return MetricSample("c", CPU, t, value)

    def test_gap_raises(self):
        store = MetricStore()
        store.ingest(IngestBatch(samples=[self._sample(0)]))
        with pytest.raises(DataQualityError, match="gap of 1 tick"):
            store.ingest(IngestBatch(samples=[self._sample(2)]))

    def test_out_of_order_raises(self):
        store = MetricStore()
        store.ingest(IngestBatch(samples=[self._sample(0), self._sample(1)]))
        with pytest.raises(DataQualityError, match="append-only"):
            store.ingest(IngestBatch(samples=[self._sample(0, 5.0)]))

    def test_non_finite_raises(self):
        store = MetricStore()
        with pytest.raises(DataQualityError, match="non-finite"):
            store.ingest(IngestBatch(samples=[self._sample(0, float("nan"))]))

    def test_late_joiner_first_sample_pads_missing_prefix(self):
        store = MetricStore()
        store.ingest(
            IngestBatch(
                samples=[MetricSample("late", CPU, 5, 7.0)], watermark=6
            )
        )
        series = store.series("late", CPU)
        assert series.start == 0
        assert np.isnan(np.asarray(series.values[:5])).all()
        assert series.values[5] == 7.0

    def test_scalar_ingest_requires_policy(self):
        store = MetricStore()
        with pytest.raises(DataQualityError, match="policy"):
            store.ingest("c", CPU, 0, 1.0)


def _series_of(store):
    return {
        (component, metric): store.series(component, metric).values
        for component in store.components
        for metric in store.metrics_for(component)
    }


class TestUnifiedIngest:
    def test_runs_match_scalar_samples(self):
        # (series, chunk, watermark_every). A loop, not parametrize ids:
        # the test keeps the one name the suite has always printed.
        cases = [
            # One short series, one batch, one closing watermark.
            ({("c", CPU): np.linspace(1.0, 9.0, 9)}, 9, 9),
            # The 1 Hz streaming shape against the collector shape:
            # several series, a watermark per tick vs 128-tick runs.
            (
                _series_of(synthetic_store(samples=600, components=3, metrics=2)),
                128,
                1,
            ),
        ]
        for series, chunk, watermark_every in cases:
            ticks = len(next(iter(series.values())))
            scalar = MetricStore(policy=DataQualityPolicy())
            for t in range(ticks):
                for (component, metric), values in series.items():
                    scalar.ingest(component, metric, t, float(values[t]))
                if (t + 1) % watermark_every == 0:
                    scalar.advance_to(t + 1)
            batched = MetricStore()
            for lo in range(0, ticks, chunk):
                hi = min(lo + chunk, ticks)
                batched.ingest(
                    IngestBatch(
                        runs=[
                            IngestRun(component, metric, lo, values[lo:hi])
                            for (component, metric), values in series.items()
                        ],
                        watermark=hi,
                    )
                )
            for key in series:
                left = scalar.series(*key)
                right = batched.series(*key)
                assert left.start == right.start, key
                # NaNs in the same slot compare equal here.
                np.testing.assert_array_equal(
                    left.values, right.values, err_msg=str(key)
                )

    def test_batch_takes_no_extra_arguments(self):
        store = MetricStore()
        with pytest.raises(TypeError, match="no extra arguments"):
            store.ingest(IngestBatch(), CPU, 0, 1.0)


class TestDeprecationCycleFinished:
    def test_wrapper_methods_are_gone(self):
        store = MetricStore()
        for name in ("record", "advance", "record_at"):
            assert not hasattr(store, name), (
                f"MetricStore.{name}() was scheduled for removal after "
                "one deprecation release — write through ingest()"
            )

