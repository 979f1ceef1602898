"""Tenant relocation: bit-identical verdicts, no shared-memory leaks.

A tenant moved between shards travels as a shared-memory store export
plus a small pickled auxiliary state; the receiving shard materializes
a writable store and warm-syncs its Markov models from it. Because
``update_many`` is chunk-invariant, the rebuilt models must be
bit-identical to models that never moved — and therefore so must every
subsequent diagnosis. The /dev/shm leak checks pin the second half of
the contract: every segment a fleet (or a crashing worker) creates is
unlinked by drain, close or garbage collection.
"""

import gc
import math
import os
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import FChainConfig
from repro.eval.bench import synthetic_store
from repro.fleet import FleetSupervisor, TenantSpec, manifest_from_dict
from repro.fleet.manifest import FleetFeed
from repro.fleet.tenant import TenantRuntime
from repro.monitoring.shared import SharedStoreExport
from repro.monitoring.slo import LatencySLO
from repro.monitoring.store import MetricStore
from repro.service import StoreReplayFeed

SAMPLES = 1_500
FAULT_LEAD = 40
SEED = 7
MOVE_AT = 1_000

SHM_DIR = pathlib.Path("/dev/shm")


@pytest.fixture(scope="module")
def faulty_store():
    return synthetic_store(
        samples=SAMPLES, components=4, metrics=2, seed=SEED,
        fault_lead=FAULT_LEAD,
    )


def _performance(store):
    onset = store.end - FAULT_LEAD + 5
    return {
        t: (0.5 if t >= onset else 0.01)
        for t in range(store.start, store.end)
    }


def _spec():
    return TenantSpec(
        tenant="mover",
        detector=LatencySLO(0.1, sustain=5),
        config=FChainConfig(),
        seed=SEED,
    )


def _drive(runtime, batches):
    """Feed batches, diagnosing every ready trigger immediately."""
    incidents = []
    for batch in batches:
        for trigger in runtime.process(batch):
            incidents.append(runtime.diagnose(trigger))
    return incidents


def _with_nan_readings(batches, holes):
    """The batches with the reading of ``(tick, component)`` pairs in
    ``holes`` replaced by NaN on every metric — an agent that reported
    garbage for a tick, which the store keeps as a gap slot."""
    if not holes:
        return batches
    return [
        replace(
            batch,
            samples=[
                replace(sample, value=math.nan)
                if (batch.time, sample.component) in holes
                else sample
                for sample in batch.samples
            ],
        )
        for batch in batches
    ]


def _error_streams(runtime):
    slave = runtime.core.fchain.master.slave
    store = runtime.store
    return {
        (component, metric): np.array(slave.errors_for(component, metric))
        for component in store.components
        for metric in store.metrics_for(component)
    }


class TestRelocatedRuntimeBitIdentity:
    def test_mid_stream_relocation_changes_nothing(self, faulty_store):
        self._check_relocation_changes_nothing(faulty_store, frozenset())

    def test_relocation_across_nan_readings_changes_nothing(self, faulty_store):
        self._check_relocation_changes_nothing(
            faulty_store, frozenset({(600, "c1"), (601, "c1"), (1_200, "c0")})
        )

    @staticmethod
    def _check_relocation_changes_nothing(faulty_store, holes):
        performance = _performance(faulty_store)
        batches = _with_nan_readings(
            list(StoreReplayFeed(faulty_store, performance=performance)),
            holes,
        )

        # The runtime that stays warms its models tick by tick; the one
        # that moves replays 1 000 ticks of history in one chunk per
        # series on arrival, then carries on tick by tick.
        stayed = TenantRuntime(_spec())
        stayed_incidents = _drive(stayed, batches)
        stayed_errors = _error_streams(stayed)
        stayed.close()

        moved = TenantRuntime(_spec())
        _drive(moved, batches[:MOVE_AT])
        snapshot = moved.export_state()
        rebuilt = TenantRuntime.from_state(snapshot)
        moved.release()  # source drops the segment post-import
        moved_incidents = _drive(rebuilt, batches[MOVE_AT:])
        moved_errors = _error_streams(rebuilt)
        rebuilt.close()

        assert stayed_errors.keys() == moved_errors.keys()
        for key, errors in stayed_errors.items():
            np.testing.assert_array_equal(
                errors, moved_errors[key], err_msg=str(key)
            )
        assert len(stayed_incidents) == len(moved_incidents) == 1
        left = stayed_incidents[0]
        right = moved_incidents[0]
        assert left.violation_tick == right.violation_tick
        assert left.dispatched_tick == right.dispatched_tick
        assert left.diagnosis.faulty == right.diagnosis.faulty
        assert "c0" in right.diagnosis.faulty
        assert (
            left.diagnosis.external_factor
            == right.diagnosis.external_factor
        )
        assert left.diagnosis.skipped == right.diagnosis.skipped
        assert left.diagnosis.chain.links == right.diagnosis.chain.links

    def test_relocated_store_reads_identically(self, faulty_store):
        performance = _performance(faulty_store)
        batches = list(
            StoreReplayFeed(faulty_store, performance=performance)
        )
        runtime = TenantRuntime(_spec())
        _drive(runtime, batches[:MOVE_AT])
        snapshot = runtime.export_state()
        rebuilt = TenantRuntime.from_state(snapshot)
        runtime.release()
        try:
            for component in rebuilt.store.components:
                for metric in rebuilt.store.metrics_for(component):
                    series = rebuilt.store.series(component, metric)
                    original = faulty_store.window(
                        component, metric, series.start, MOVE_AT
                    )
                    np.testing.assert_array_equal(
                        np.asarray(series.values),
                        np.asarray(original.values),
                    )
        finally:
            rebuilt.close()


class TestSupervisorMove:
    def test_move_mid_stream_still_exactly_one_incident(self):
        manifest = manifest_from_dict(
            {
                "shards": 2,
                "generate": {"count": 6, "prefix": "t"},
                "defaults": {
                    "components": 4,
                    "look_back_window": 30,
                    "analysis_grace": 4,
                    "slo_sustain": 3,
                },
                "faults": [
                    {"tenant": "t-0002", "at": 40, "component": 1}
                ],
            }
        )
        supervisor = FleetSupervisor(manifest.fleet_config())
        for spec in manifest.tenant_specs():
            supervisor.add_tenant(spec)
        feed = FleetFeed(manifest, 60)
        for t in range(60):
            if t == 30:
                source = supervisor.shard_of("t-0002")
                supervisor.move_tenant("t-0002", 1 - source)
                assert supervisor.shard_of("t-0002") == 1 - source
            for tenant in manifest.tenants:
                assert supervisor.ingest(tenant, feed.batch(tenant, t))
        supervisor.close()
        assert not supervisor.failures
        assert list(supervisor.incidents) == ["t-0002"]
        assert len(supervisor.incidents["t-0002"]) == 1
        assert supervisor.incidents["t-0002"][0].violation_tick == 42
        # The relocated tenant saw every tick exactly once.
        assert supervisor.tenant_stats["t-0002"]["ticks"] == 60

    def test_add_shard_relocates_a_minority(self):
        manifest = manifest_from_dict(
            {
                "shards": 2,
                "generate": {"count": 12, "prefix": "t"},
                "defaults": {"components": 3},
            }
        )
        supervisor = FleetSupervisor(manifest.fleet_config())
        try:
            for spec in manifest.tenant_specs():
                supervisor.add_tenant(spec)
            before = dict(supervisor._routing)
            new_shard = supervisor.add_shard()
            after = dict(supervisor._routing)
            moved = [t for t in before if before[t] != after[t]]
            assert all(after[t] == new_shard for t in moved)
            assert len(moved) < len(before)
            assert not supervisor.failures
        finally:
            supervisor.close()


@pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="/dev/shm not available on this platform"
)
class TestSharedMemoryHygiene:
    @staticmethod
    def _segments():
        return set(os.listdir(SHM_DIR))

    def test_fleet_run_with_moves_leaks_no_segments(self):
        before = self._segments()
        manifest = manifest_from_dict(
            {
                "shards": 2,
                "generate": {"count": 6, "prefix": "t"},
                "defaults": {"components": 3},
            }
        )
        supervisor = FleetSupervisor(manifest.fleet_config())
        for spec in manifest.tenant_specs():
            supervisor.add_tenant(spec)
        feed = FleetFeed(manifest, 20)
        for t in range(20):
            if t == 10:
                tenant = manifest.tenants[0]
                supervisor.move_tenant(
                    tenant, 1 - supervisor.shard_of(tenant)
                )
            for tenant in manifest.tenants:
                supervisor.ingest(tenant, feed.batch(tenant, t))
        supervisor.close()
        leaked = self._segments() - before
        assert not leaked, f"fleet run leaked shm segments: {leaked}"

    def test_abandoned_export_is_unlinked_by_gc(self):
        from repro.monitoring.store import IngestBatch, IngestRun
        from repro.common.types import Metric
        import numpy as np

        store = MetricStore()
        store.ingest(
            IngestBatch(
                runs=[
                    IngestRun(
                        "c", Metric.CPU_USAGE, 0, np.arange(8.0)
                    )
                ],
                watermark=8,
            )
        )
        export = SharedStoreExport(store)
        name = export.handle.shm_name
        assert (SHM_DIR / name).exists()
        # Simulate a worker dying mid-attach: the export object is
        # dropped without close(); the finalizer must unlink anyway.
        del export
        gc.collect()
        assert not (SHM_DIR / name).exists(), (
            f"segment {name} survived garbage collection of its export"
        )

    def test_close_then_gc_does_not_double_unlink(self):
        from repro.monitoring.store import IngestBatch, IngestRun
        from repro.common.types import Metric
        import numpy as np

        store = MetricStore()
        store.ingest(
            IngestBatch(
                runs=[IngestRun("c", Metric.CPU_USAGE, 0, np.arange(4.0))],
                watermark=4,
            )
        )
        export = SharedStoreExport(store)
        export.close()
        export.close()  # idempotent
        del export
        gc.collect()  # finalizer already spent — must not raise
