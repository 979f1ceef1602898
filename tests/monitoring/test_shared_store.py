"""Tests for the shared-memory MetricStore export/attach roundtrip."""

import numpy as np
import pytest

from repro.common.types import Metric
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.shared import (
    SharedStoreExport,
    attach_store,
    materialize_store,
)
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore


def _example_store():
    rng = np.random.default_rng(42)
    data = {
        comp: {
            Metric.CPU_USAGE: rng.normal(40, 5, 120),
            Metric.MEMORY_USAGE: rng.normal(60, 2, 120),
        }
        for comp in ("node-a", "node-b", "node-c")
    }
    return MetricStore.from_arrays(data, start=7)


class TestRoundtrip:
    def test_attached_store_reads_identically(self):
        store = _example_store()
        with SharedStoreExport(store) as export:
            view = attach_store(export.handle)
            assert view.components == store.components
            assert view.start == store.start
            assert view.length == store.length
            for component in store.components:
                assert view.metrics_for(component) == store.metrics_for(
                    component
                )
                for metric in store.metrics_for(component):
                    original = store.series(component, metric)
                    attached = view.series(component, metric)
                    assert attached.start == original.start
                    np.testing.assert_array_equal(
                        attached.values, original.values
                    )

    def test_windows_match(self):
        store = _example_store()
        with SharedStoreExport(store) as export:
            view = attach_store(export.handle)
            got = view.window("node-b", Metric.CPU_USAGE, 30, 90)
            want = store.window("node-b", Metric.CPU_USAGE, 30, 90)
            np.testing.assert_array_equal(got.values, want.values)

    def test_attach_is_zero_copy(self):
        store = _example_store()
        with SharedStoreExport(store) as export:
            view = attach_store(export.handle)
            series = view.series("node-a", Metric.CPU_USAGE)
            # The series must be a view into the shared segment, not a
            # per-attach copy of the history.
            assert series.values.base is not None

    def test_handle_is_picklable(self):
        import pickle

        store = _example_store()
        with SharedStoreExport(store) as export:
            clone = pickle.loads(pickle.dumps(export.handle))
            assert clone == export.handle


class TestLifecycle:
    def test_close_is_idempotent(self):
        export = SharedStoreExport(_example_store())
        export.close()
        export.close()

    def test_attach_after_unlink_fails(self):
        export = SharedStoreExport(_example_store())
        handle = export.handle
        export.close()
        with pytest.raises(FileNotFoundError):
            attach_store(handle)

    def test_empty_store_roundtrip(self):
        store = MetricStore(start=0)
        with SharedStoreExport(store) as export:
            view = attach_store(export.handle)
            assert view.components == []
            assert view.length == 0


class TestMaterialize:
    """``materialize_store`` rebuilds a *writable* store from a segment.

    Unlike ``attach_store`` (a read-only zero-copy view), the
    materialized store owns fresh ring buffers — it is what a shard
    worker continues ingesting into after a tenant relocation.
    """

    def test_materialized_store_reads_and_keeps_writing(self):
        store = _example_store()
        with SharedStoreExport(store) as export:
            rebuilt = materialize_store(export.handle)
        assert rebuilt.components == store.components
        assert rebuilt.start == store.start
        assert rebuilt.length == store.length
        assert rebuilt.revision == store.revision
        for component in store.components:
            for metric in store.metrics_for(component):
                left = store.series(component, metric)
                right = rebuilt.series(component, metric)
                assert left.start == right.start
                np.testing.assert_array_equal(left.values, right.values)
        # The segment is gone (context manager exit) — the rebuilt
        # store must live on independently and accept new ticks.
        end = rebuilt.end
        rebuilt.ingest(
            IngestBatch(
                runs=[
                    IngestRun(
                        component, metric, end, np.asarray([1.0])
                    )
                    for component in rebuilt.components
                    for metric in rebuilt.metrics_for(component)
                ],
                watermark=end + 1,
            )
        )
        assert rebuilt.end == end + 1

    def test_wrapped_store_materializes_identically(self):
        store = MetricStore(retention=8)
        store.ingest(
            IngestBatch(
                runs=[
                    IngestRun(
                        "c", Metric.CPU_USAGE, 0, np.arange(13.0)
                    )
                ],
                watermark=13,
            )
        )
        with SharedStoreExport(store) as export:
            rebuilt = materialize_store(export.handle, retention=8)
        left = store.series("c", Metric.CPU_USAGE)
        right = rebuilt.series("c", Metric.CPU_USAGE)
        assert right.start == left.start == 5
        np.testing.assert_array_equal(left.values, right.values)
        assert rebuilt.retained_start("c", Metric.CPU_USAGE) == 5
        # Eviction keeps behaving: one more run pushes the window.
        rebuilt.ingest(
            IngestBatch(
                runs=[
                    IngestRun(
                        "c", Metric.CPU_USAGE, 13, np.asarray([13.0])
                    )
                ],
                watermark=14,
            )
        )
        assert rebuilt.series("c", Metric.CPU_USAGE).start == 6

    def test_gap_bitmap_survives_materialization(self):
        store = MetricStore(policy=DataQualityPolicy())
        store.ingest("c", Metric.CPU_USAGE, 0, 1.0)
        # A gap at 1, 2 closed by an invalid reading: forward-padded.
        store.ingest("c", Metric.CPU_USAGE, 3, float("nan"))
        store.advance_to(4)
        before = store.series_quality("c", Metric.CPU_USAGE)
        with SharedStoreExport(store) as export:
            rebuilt = materialize_store(export.handle)
        after = rebuilt.series_quality("c", Metric.CPU_USAGE)
        assert after.gap_slots == before.gap_slots
        assert after.filled_forward == before.filled_forward
        assert after.observed == before.observed
