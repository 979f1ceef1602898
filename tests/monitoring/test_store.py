"""Tests for the metric store's core read/write surface.

Writes go through the unified ``ingest(IngestBatch(...))`` entry point;
the deprecated ``record``/``advance`` wrappers and the ring-specific
semantics (retention, wraparound) are covered in
``test_ring.py``.
"""

import numpy as np
import pytest

from repro.common.types import Metric, MetricSample
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore


def _tick(store, t, values_by_component):
    store.ingest(
        IngestBatch(
            samples=[
                MetricSample(component, metric, t, value)
                for component, metrics in values_by_component.items()
                for metric, value in metrics.items()
            ],
            watermark=t + 1,
        )
    )


def test_ingest_and_read():
    store = MetricStore()
    for t in range(3):
        _tick(store, t, {"web": {Metric.CPU_USAGE: float(t)}})
    series = store.series("web", Metric.CPU_USAGE)
    assert list(series.values) == [0.0, 1.0, 2.0]
    assert series.start == 0


def test_length_counts_completed_ticks_only():
    store = MetricStore()
    store.ingest(
        IngestBatch(samples=[MetricSample("web", Metric.CPU_USAGE, 0, 1.0)])
    )
    assert store.length == 0
    store.advance_to(1)
    assert store.length == 1
    assert store.end == 1


def test_unknown_series_raises():
    store = MetricStore()
    with pytest.raises(KeyError):
        store.series("nope", Metric.CPU_USAGE)


def test_components_sorted():
    store = MetricStore()
    _tick(
        store,
        0,
        {"b": {Metric.CPU_USAGE: 1.0}, "a": {Metric.CPU_USAGE: 1.0}},
    )
    assert store.components == ["a", "b"]


def test_metrics_for_canonical_order():
    store = MetricStore()
    _tick(
        store,
        0,
        {"c": {Metric.DISK_WRITE: 1.0, Metric.CPU_USAGE: 2.0}},
    )
    assert store.metrics_for("c") == [Metric.CPU_USAGE, Metric.DISK_WRITE]


def test_window():
    store = MetricStore()
    store.ingest(
        IngestBatch(
            runs=[IngestRun("c", Metric.CPU_USAGE, 0, np.arange(10.0))],
            watermark=10,
        )
    )
    window = store.window("c", Metric.CPU_USAGE, 4, 7)
    assert list(window.values) == [4.0, 5.0, 6.0]


def test_from_arrays():
    store = MetricStore.from_arrays(
        {"c": {Metric.CPU_USAGE: [1, 2, 3], Metric.MEMORY_USAGE: [4, 5, 6]}},
        start=100,
    )
    assert store.length == 3
    assert store.series("c", Metric.MEMORY_USAGE).start == 100


def test_from_arrays_rejects_ragged():
    with pytest.raises(ValueError):
        MetricStore.from_arrays(
            {"c": {Metric.CPU_USAGE: [1], Metric.MEMORY_USAGE: [1, 2]}}
        )


def test_custom_start():
    store = MetricStore(start=50)
    _tick(store, 50, {"c": {Metric.CPU_USAGE: 1.0}})
    assert store.series("c", Metric.CPU_USAGE).start == 50
    assert store.end == 51


def test_run_ingest_matches_per_sample():
    values = np.linspace(5.0, 25.0, 20)
    per_sample = MetricStore()
    for t, value in enumerate(values):
        _tick(per_sample, t, {"c": {Metric.CPU_USAGE: float(value)}})
    batched = MetricStore()
    batched.ingest(
        IngestBatch(
            runs=[IngestRun("c", Metric.CPU_USAGE, 0, values)],
            watermark=len(values),
        )
    )
    np.testing.assert_array_equal(
        per_sample.series("c", Metric.CPU_USAGE).values,
        batched.series("c", Metric.CPU_USAGE).values,
    )
