"""Tests for the online loop's metric feeds."""

import math

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.common.types import Metric, MetricSample
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import MetricStore
from repro.service.sources import (
    CallableFeed,
    StoreReplayFeed,
    TickBatch,
    load_performance_csv,
    save_performance_csv,
)


def _recorded_store():
    # Invalid readings keep the hole a hole — a lost tick would be
    # interpolated away once t=4 arrives.
    store = MetricStore(policy=DataQualityPolicy())
    for t in range(6):
        hole = t == 3
        store.ingest("web", Metric.CPU_USAGE, t, math.nan if hole else 10.0 + t)
        store.ingest("db", Metric.CPU_USAGE, t, math.nan if hole else 20.0 + t)
    store.advance_to(6)
    return store


class TestStoreReplayFeed:
    def test_replays_every_tick(self):
        feed = StoreReplayFeed(_recorded_store())
        batches = list(feed)
        assert [b.time for b in batches] == [0, 1, 2, 3, 4, 5]

    def test_gaps_replay_as_missing_samples(self):
        batches = list(StoreReplayFeed(_recorded_store()))
        assert batches[3].samples == []  # the gap carries nothing
        assert len(batches[2].samples) == 2
        assert all(not math.isnan(s.value) for b in batches for s in b.samples)

    def test_performance_mapping(self):
        feed = StoreReplayFeed(_recorded_store(), performance={2: 0.5})
        batches = list(feed)
        assert batches[2].performance == 0.5
        assert batches[1].performance is None

    def test_round_trips_through_pipeline_store(self):
        """Replaying a recording reproduces every recorded value; the
        one-tick hole comes back interpolated, as a gap of up to 10
        ticks does in any tolerant store."""
        source = _recorded_store()
        target = MetricStore(policy=DataQualityPolicy())
        for batch in StoreReplayFeed(source):
            for sample in batch.samples:
                target.ingest(
                    sample.component, sample.metric, sample.time, sample.value
                )
        target.advance_to(source.end)
        for component in source.components:
            for metric in source.metrics_for(component):
                original = source.series(component, metric).values
                replayed = target.series(component, metric).values
                assert len(original) == len(replayed)
                for a, b in zip(original, replayed):
                    assert math.isnan(a) or a == b
                assert np.isnan(original[3])
                assert replayed[3] == (original[2] + original[4]) / 2


class TestCallableFeed:
    def test_yields_until_none(self):
        batches = [TickBatch(time=0), TickBatch(time=1), None]
        feed = CallableFeed(lambda: batches.pop(0))
        assert [b.time for b in feed] == [0, 1]


class TestPerformanceCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "perf.csv"
        performance = {0: 0.01, 5: 0.2, 2: 0.05}
        save_performance_csv(path, performance)
        assert load_performance_csv(path) == performance

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "perf.csv"
        path.write_text("tick,latency\n0,0.1\n")
        with pytest.raises(ReproError):
            load_performance_csv(path)

    def test_rejects_bad_row(self, tmp_path):
        path = tmp_path / "perf.csv"
        path.write_text("time,value\n0,not-a-number\n")
        with pytest.raises(ReproError):
            load_performance_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "perf.csv"
        path.write_text("time,value\n")
        with pytest.raises(ReproError):
            load_performance_csv(path)


class TestSimFeed:
    def test_drives_application(self):
        from repro.apps.rubis import RubisApplication
        from repro.service.sources import SimFeed

        app = RubisApplication(seed=1, duration=600)
        feed = SimFeed(app, duration=30)
        batches = list(feed)
        assert len(batches) == 30
        assert [b.time for b in batches] == list(range(30))
        assert all(b.performance is not None for b in batches)
        components = {s.component for s in batches[-1].samples}
        assert {"web", "app1", "app2", "db"} <= components
        assert all(
            isinstance(s, MetricSample) for s in batches[-1].samples
        )
