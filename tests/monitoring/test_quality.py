"""Tests for the data-quality resilience layer (ingest modes, reports).

A store has two ingest modes: tolerant (built with a
``DataQualityPolicy``) and strict (built without one).
``TestPresets`` is the contract of both, one row per defect class. The
other classes cover the tolerant path in detail — validation, bounded
gap fill, clock-skew alignment, out-of-order backfill, duplicate
resolution, far-future stamps — plus the ``SeriesQuality`` /
``DataQualityReport`` bookkeeping and the tolerant CSV loader.
"""

import math

import numpy as np
import pytest

from repro.common.errors import DataQualityError
from repro.common.types import Metric, MetricSample
from repro.monitoring.io import load_store_csv, save_store_csv
from repro.monitoring.quality import (
    CONFIDENCE_DEGRADED,
    CONFIDENCE_FULL,
    CONFIDENCE_INCONCLUSIVE,
    DataQualityPolicy,
    DataQualityReport,
    IngestMetrics,
    SeriesQuality,
)
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore
from repro.obs.registry import MetricsRegistry

CPU = Metric.CPU_USAGE


def ingest_series(store, values_by_time, component="web", metric=CPU):
    for t, value in values_by_time:
        store.ingest(component, metric, t, value)


def deliver(store, deliveries):
    """One ``IngestBatch`` per delivery, watermarked past its newest tick."""
    for delivery in deliveries:
        store.ingest(
            IngestBatch(
                samples=[MetricSample(c, CPU, t, v) for c, t, v in delivery],
                watermark=max(t for _, t, _ in delivery) + 1,
            )
        )


NAN = math.nan
#: ``web`` at t = 0..9, value t, delivered tick by tick before each case.
HISTORY = [[("web", t, float(t))] for t in range(10)]

#: Defect class -> (deliveries after HISTORY, tolerant outcome, strict
#: outcome). An outcome is either the ``DataQualityError`` message the
#: store raises, or ``(series, values, counters)``: what the series then
#: reads and the ``SeriesQuality`` fields it then holds.
PRESET_TABLE = {
    "nan": (
        [[("web", 10, NAN)]],
        ("web", [*range(10), NAN], {"invalid": 1, "missing": 1}),
        "non-finite",
    ),
    "gap-within-10": (
        [[("web", 20, 20.0)]],
        ("web", range(21), {"filled_interpolated": 10, "missing": 0}),
        "gap of 10",
    ),
    "gap-over-10": (
        [[("web", 21, 21.0)]],
        ("web", [*range(10), *[NAN] * 11, 21], {"missing": 11}),
        "gap of 11",
    ),
    "first-sample-3-off-grid": (
        [[("db", 13, 1.0)]],
        ("db", [*[NAN] * 10, 1.0], {"skew_offset": 3, "missing": 10}),
        ("db", [*[NAN] * 13, 1.0], {"skew_offset": 0, "missing": 13}),
    ),
    "late-within-10": (
        [[("web", t, float(t))] for t in range(11, 16)] + [[("web", 10, 99.0)]],
        (
            "web",
            [*range(10), 99.0, *range(11, 16)],
            {"late_accepted": 1, "filled_interpolated": 0, "observed": 16},
        ),
        "gap of 1",
    ),
    "late-over-10": (
        [[("web", 22, 22.0)], [("web", 10, 99.0)]],
        (
            "web",
            [*range(10), *[NAN] * 12, 22],
            {"late_dropped": 1, "missing": 12},
        ),
        "gap of 12",
    ),
    "duplicate": (
        [[("web", 9, 99.0)]],
        ("web", range(10), {"duplicates": 1, "observed": 10}),
        "out-of-order",
    ),
    "out-of-order": (
        [[("web", 11, 11.0), ("web", 10, 10.0)]],
        ("web", range(12), {"late_accepted": 1, "observed": 12}),
        "gap of 1",
    ),
}


class TestPresets:
    @pytest.mark.parametrize("mode", ["tolerant", "strict"])
    @pytest.mark.parametrize("defect", sorted(PRESET_TABLE))
    def test_defect_outcome(self, defect, mode):
        deliveries, tolerant, strict = PRESET_TABLE[defect]
        expected = tolerant if mode == "tolerant" else strict
        policy = DataQualityPolicy() if mode == "tolerant" else None
        store = MetricStore(policy=policy)
        deliver(store, HISTORY)
        if isinstance(expected, str):
            with pytest.raises(DataQualityError, match=expected):
                deliver(store, deliveries)
            return
        deliver(store, deliveries)
        component, values, counters = expected
        np.testing.assert_array_equal(
            store.series(component, CPU).values, np.asarray(values, float)
        )
        qual = store.series_quality(component, CPU)
        assert {name: getattr(qual, name) for name in counters} == counters


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = DataQualityPolicy()
        assert (policy.max_gap, policy.max_skew) == (10, 10)
        assert policy.min_coverage == 0.6
        assert policy == DataQualityPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"on_invalid": "explode"},
            {"fill": "spline"},
            {"on_duplicate": "merge"},
            {"max_gap": -1},
            {"max_skew": -2},
            {"min_coverage": 1.5},
            {"align_skew": False},
            {"on_gap": "reject"},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        # The mode is the only choice: the policy takes no settings.
        with pytest.raises(TypeError):
            DataQualityPolicy(**kwargs)


class TestIngest:
    def test_requires_policy(self):
        store = MetricStore()
        with pytest.raises(DataQualityError, match="policy"):
            store.ingest("web", CPU, 0, 1.0)

    def test_contiguous_samples_match_strict_path(self):
        tolerant = MetricStore(policy=DataQualityPolicy())
        strict = MetricStore()
        for t in range(20):
            tolerant.ingest("web", CPU, t, float(t))
            strict.ingest(
                IngestBatch(
                    runs=[IngestRun("web", CPU, t, np.asarray([float(t)]))],
                    watermark=t + 1,
                )
            )
        tolerant.advance_to(20)
        np.testing.assert_array_equal(
            tolerant.series("web", CPU).values,
            strict.series("web", CPU).values,
        )
        qual = tolerant.series_quality("web", CPU)
        assert qual.observed == 20
        assert qual.filled == qual.missing == qual.dropped == 0
        assert tolerant.revision == 0

    def test_short_gap_is_interpolated(self):
        store = MetricStore(policy=DataQualityPolicy())
        ingest_series(store, [(0, 10.0), (1, 11.0), (4, 14.0)])
        store.advance_to(5)
        np.testing.assert_allclose(
            store.series("web", CPU).values, [10.0, 11.0, 12.0, 13.0, 14.0]
        )
        qual = store.series_quality("web", CPU)
        assert qual.filled_interpolated == 2
        assert qual.missing == 0

    def test_forward_fill_repeats_last_observation(self):
        # A gap closed by an invalid reading has nothing to interpolate
        # toward, so it is padded with the last observed value.
        store = MetricStore(policy=DataQualityPolicy())
        ingest_series(store, [(0, 10.0), (3, math.nan)])
        store.advance_to(4)
        np.testing.assert_allclose(
            store.series("web", CPU).values, [10.0, 10.0, 10.0, math.nan]
        )
        assert store.series_quality("web", CPU).filled_forward == 2

    def test_long_gap_stays_missing(self):
        store = MetricStore(policy=DataQualityPolicy())
        ingest_series(store, [(0, 1.0), (12, 13.0)])
        store.advance_to(13)
        values = store.series("web", CPU).values
        assert np.isnan(values[1:12]).all()
        qual = store.series_quality("web", CPU)
        assert qual.missing == 11
        assert qual.filled == 0

    def test_invalid_sample_becomes_gap(self):
        store = MetricStore(policy=DataQualityPolicy())
        ingest_series(store, [(0, 1.0), (1, math.nan), (2, 3.0)])
        store.advance_to(3)
        qual = store.series_quality("web", CPU)
        assert qual.invalid == 1
        # The NaN tick is a slot like any other; it stays NaN until a
        # late delivery repairs it.
        assert math.isnan(store.series("web", CPU).values[1])

    def test_invalid_sample_rejected_under_strict_policy(self):
        store = MetricStore()
        with pytest.raises(DataQualityError, match="non-finite"):
            deliver(store, [[("web", 0, math.inf)]])


class TestSkewAlignment:
    def test_constant_offset_is_learned_and_removed(self):
        store = MetricStore(policy=DataQualityPolicy())
        for t in range(10):
            store.ingest("web", CPU, t + 3, float(t))
        store.advance_to(10)
        np.testing.assert_allclose(
            store.series("web", CPU).values, np.arange(10.0)
        )
        assert store.series_quality("web", CPU).skew_offset == 3

    def test_offset_beyond_tolerance_is_a_gap_not_skew(self):
        store = MetricStore(policy=DataQualityPolicy())
        store.ingest("web", CPU, 12, 1.0)
        store.advance_to(13)
        qual = store.series_quality("web", CPU)
        assert qual.skew_offset == 0
        assert qual.missing == 12

    def test_alignment_can_be_disabled(self):
        # A strict store never aligns: an off-grid first sample starts
        # the series late instead.
        store = MetricStore()
        deliver(store, [[("web", 3, 1.0)]])
        assert store.series_quality("web", CPU).skew_offset == 0
        assert len(store.series("web", CPU)) == 4

    def test_late_joiner_is_not_mistaken_for_skew(self):
        # db joins at t = 5 with an honest clock. Measured against the
        # store's start it would look 5 ticks fast.
        store = MetricStore(policy=DataQualityPolicy())
        for t in range(50):
            samples = [MetricSample("web", CPU, t, float(t))]
            if t >= 5:
                samples.append(MetricSample("db", CPU, t, float(t)))
            store.ingest(IngestBatch(samples=samples, watermark=t + 1))
        assert store.series_quality("db", CPU).skew_offset == 0
        db = store.series("db", CPU)
        assert db.at(10) == 10.0
        assert db.end == 50
        assert np.isnan(db.values[:5]).all()


class TestBackfill:
    def test_late_sample_repairs_missing_slot(self):
        store = MetricStore(policy=DataQualityPolicy())
        ingest_series(store, [(0, 1.0), (1, math.nan), (2, 3.0), (1, 2.0)])
        store.advance_to(3)
        np.testing.assert_allclose(
            store.series("web", CPU).values, [1.0, 2.0, 3.0]
        )
        qual = store.series_quality("web", CPU)
        assert qual.late_accepted == 1
        assert qual.missing == 0
        assert store.revision == 1

    def test_late_sample_replaces_synthesized_fill(self):
        store = MetricStore(policy=DataQualityPolicy())
        ingest_series(store, [(0, 10.0), (2, 30.0), (1, 99.0)])
        store.advance_to(3)
        assert store.series("web", CPU).values[1] == 99.0
        qual = store.series_quality("web", CPU)
        assert qual.filled_interpolated == 0
        assert qual.observed == 3

    def test_stale_sample_is_dropped(self):
        store = MetricStore(policy=DataQualityPolicy())
        ingest_series(store, [(0, 1.0), (12, 13.0), (1, 2.0)])
        store.advance_to(13)
        qual = store.series_quality("web", CPU)
        assert qual.late_dropped == 1
        assert math.isnan(store.series("web", CPU).values[1])

    def test_duplicate_first_keeps_original(self):
        store = MetricStore(policy=DataQualityPolicy())
        ingest_series(store, [(0, 1.0), (1, 2.0), (1, 7.0)])
        store.advance_to(2)
        assert store.series("web", CPU).values[1] == 2.0
        assert store.series_quality("web", CPU).duplicates == 1

    def test_duplicate_reject_raises(self):
        store = MetricStore()
        with pytest.raises(DataQualityError, match="out-of-order"):
            deliver(store, [[("web", 0, 1.0)], [("web", 1, 2.0)], [("web", 1, 7.0)]])


class TestFutureStamp:
    """A sample stamped past its batch's newest tick by more than any
    clock skew is a broken clock: dropped, not taken as a gap."""

    @staticmethod
    def _tick(t, db_time=None):
        return IngestBatch(
            samples=[
                MetricSample("web", CPU, t, 50.0 + t % 7),
                MetricSample(
                    "db", CPU, t if db_time is None else db_time, 20.0 + t % 5
                ),
            ],
            watermark=t + 1,
        )

    def test_one_future_sample_does_not_blind_its_series(self):
        store = MetricStore(policy=DataQualityPolicy())
        store._ingest_metrics = IngestMetrics(MetricsRegistry())
        for t in range(100):
            store.ingest(self._tick(t))
        store.ingest(self._tick(100, db_time=5000))
        for t in range(101, 200):
            store.ingest(self._tick(t))
        db = store.window("db", CPU, 100, 200)
        assert int(np.isfinite(db.values).sum()) == 100
        qual = store.series_quality("db", CPU)
        assert qual.late_dropped == 0
        assert qual.invalid == 1
        assert dict(store._ingest_metrics.dropped.samples()) == {("future",): 1.0}

    def test_strict_store_and_unwatermarked_batch_are_unchanged(self):
        strict = MetricStore()
        strict.ingest(self._tick(0))
        with pytest.raises(DataQualityError, match="gap of"):
            strict.ingest(self._tick(1, db_time=5000))
        tolerant = MetricStore(policy=DataQualityPolicy())
        tolerant.ingest(self._tick(0))
        tolerant.ingest(
            IngestBatch(samples=[MetricSample("db", CPU, 5000, 1.0)])
        )
        qual = tolerant.series_quality("db", CPU)
        assert qual.invalid == 0
        assert qual.missing == 4999


class TestQualityAccounting:
    def test_quality_for_merges_metrics(self):
        store = MetricStore(policy=DataQualityPolicy())
        ingest_series(store, [(0, 1.0), (12, 3.0)], metric=Metric.CPU_USAGE)
        ingest_series(
            store, [(0, 1.0), (1, 2.0)], metric=Metric.MEMORY_USAGE
        )
        total = store.quality_for("web")
        assert total.observed == 4
        assert total.missing == 11

    def test_snapshot_is_detached_and_complete(self):
        qual = SeriesQuality(observed=3, gap_slots={4: "forward"})
        snap = qual.snapshot()
        snap.gap_slots[9] = "missing"
        assert 9 not in qual.gap_slots
        assert snap.observed == 3 and snap.gap_slots[4] == "forward"

    def test_report_grades(self):
        clean = DataQualityReport.build(
            component="web", samples_expected=100, samples_observed=100,
            samples_filled=0, samples_missing=0, samples_dropped=0,
            metrics_total=2, metrics_analyzed=2, metrics_inconclusive=0,
        )
        assert clean.confidence == CONFIDENCE_FULL and clean.clean
        degraded = DataQualityReport.build(
            component="web", samples_expected=100, samples_observed=90,
            samples_filled=10, samples_missing=0, samples_dropped=0,
            metrics_total=2, metrics_analyzed=2, metrics_inconclusive=0,
        )
        assert degraded.confidence == CONFIDENCE_DEGRADED
        assert degraded.coverage == pytest.approx(0.9)
        inconclusive = DataQualityReport.build(
            component="web", samples_expected=100, samples_observed=30,
            samples_filled=0, samples_missing=70, samples_dropped=0,
            metrics_total=2, metrics_analyzed=0, metrics_inconclusive=2,
        )
        assert inconclusive.confidence == CONFIDENCE_INCONCLUSIVE


class TestTolerantCsvLoad:
    def test_holey_csv_loads_under_policy(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "time,component,metric,value\n"
            "0,web,cpu_usage,1.0\n"
            "1,web,cpu_usage,2.0\n"
            "4,web,cpu_usage,5.0\n"
        )
        with pytest.raises(Exception):
            load_store_csv(path)  # the strict loader still rejects holes
        store = load_store_csv(path, policy=DataQualityPolicy())
        np.testing.assert_allclose(
            store.series("web", CPU).values, [1.0, 2.0, 3.0, 4.0, 5.0]
        )
        assert store.series_quality("web", CPU).filled_interpolated == 2

    def test_clean_csv_identical_between_loaders(self, tmp_path):
        store = MetricStore.from_arrays(
            {"web": {CPU: np.linspace(1, 9, 30)}}, start=50
        )
        path = tmp_path / "m.csv"
        save_store_csv(store, path)
        strict = load_store_csv(path)
        tolerant = load_store_csv(path, policy=DataQualityPolicy())
        assert strict.start == tolerant.start
        assert strict.length == tolerant.length
        np.testing.assert_array_equal(
            strict.series("web", CPU).values,
            tolerant.series("web", CPU).values,
        )

    def test_late_joining_series_keeps_its_own_start(self, tmp_path):
        # The rows come series by series, as save_store_csv writes them;
        # db starts 5 s after web, on the same clock.
        path = tmp_path / "m.csv"
        rows = [f"{t},web,cpu_usage,{t}.0" for t in range(50)]
        rows += [f"{t},db,cpu_usage,{t}.0" for t in range(5, 50)]
        path.write_text("time,component,metric,value\n" + "\n".join(rows) + "\n")
        store = load_store_csv(path, policy=DataQualityPolicy())
        assert store.series_quality("db", CPU).skew_offset == 0
        db = store.series("db", CPU)
        assert db.at(10) == 10.0
        assert db.end == store.end == 50
