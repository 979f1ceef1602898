"""Tenant relocation: bit-identical models, streams and verdicts.

A tenant moved between shards travels as its store, copies of its
slave's model bank, row map and error streams, and a small auxiliary
state; the receiving shard installs them as they are and replays
nothing. The moved tenant must therefore be bit-identical to one that
never moved — models, error streams, ingest quality and every later
diagnosis — also once the store's ring has wrapped past history the
models learned from, where no replay of the ring could rebuild them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import FChainConfig
from repro.core.prediction import ModelBank
from repro.eval.bench import synthetic_store
from repro.fleet import FleetSupervisor, TenantSpec, manifest_from_dict
from repro.fleet.manifest import FleetFeed
from repro.fleet.supervisor import fork_available
from repro.fleet.tenant import TenantRuntime
from repro.fleet.worker import ShardWorker
from repro.monitoring.slo import LatencySLO
from repro.service import StoreReplayFeed
from tests.fleet.test_supervisor import _Events

SAMPLES = 1_500
FAULT_LEAD = 40
SEED = 7
MOVE_AT = 1_000


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


def _spec(**overrides):
    """A fresh spec: its detector is stateful, so every runtime needs
    its own."""
    return TenantSpec(
        tenant="mover",
        detector=LatencySLO(0.1, sustain=5),
        config=FChainConfig(),
        seed=SEED,
        **overrides,
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


def _learned(runtime):
    """Per series: the error stream, every bank array's row and the
    store's ingest quality, after a final catch-up sync."""
    runtime.core.warm_sync()
    slave = runtime.core.fchain.master.slave
    store = runtime.store
    learned = {}
    for component in store.components:
        for metric in store.metrics_for(component):
            model = slave.model_for(component, metric)
            learned[(component, metric)] = (
                np.array(slave.errors_for(component, metric)),
                {
                    name: np.array(getattr(model.bank, name)[model.row])
                    for name in ModelBank.ARRAYS
                },
                store.series_quality(component, metric),
            )
    return learned


class TestRelocatedRuntimeBitIdentity:
    def test_mid_stream_relocation_changes_nothing(self, faulty_store):
        self._check_relocation_changes_nothing(faulty_store, frozenset())

    def test_relocation_across_nan_readings_changes_nothing(self, faulty_store):
        self._check_relocation_changes_nothing(
            faulty_store, frozenset({(600, "c1"), (601, "c1"), (1_200, "c0")})
        )

    def test_relocation_past_a_ring_wrap_changes_nothing(self, faulty_store):
        # 512 slots retained at the move tick of 1 000: the ring has
        # wrapped past history the models learned from.
        self._check_relocation_changes_nothing(
            faulty_store, frozenset(), retention=512
        )

    @staticmethod
    def _check_relocation_changes_nothing(faulty_store, holes, **spec):
        performance = _performance(faulty_store)
        batches = _with_nan_readings(
            list(StoreReplayFeed(faulty_store, performance=performance)),
            holes,
        )

        # Both runtimes warm their models tick by tick; the one that
        # moves does so on two runtimes, the second installed from the
        # first's snapshot.
        stayed = TenantRuntime(_spec(**spec))
        stayed_incidents = _drive(stayed, batches)
        stayed_learned = _learned(stayed)
        stayed.close()

        moved = TenantRuntime(_spec(**spec))
        _drive(moved, batches[:MOVE_AT])
        snapshot = moved.export_state()
        moved.close()
        rebuilt = TenantRuntime.from_state(snapshot)
        moved_incidents = _drive(rebuilt, batches[MOVE_AT:])
        moved_learned = _learned(rebuilt)
        rebuilt.close()

        assert stayed_learned.keys() == moved_learned.keys()
        for key, (errors, bank, quality) in stayed_learned.items():
            moved_errors, moved_bank, moved_quality = moved_learned[key]
            np.testing.assert_array_equal(
                errors, moved_errors, err_msg=str(key)
            )
            for name, row in bank.items():
                np.testing.assert_array_equal(
                    row, moved_bank[name], err_msg=f"{key} {name}"
                )
            assert quality == moved_quality, key
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
        runtime.close()
        rebuilt = TenantRuntime.from_state(snapshot)
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


class TestShardExport:
    def test_an_export_after_the_dispatch_tick_only_exports(self, faulty_store):
        # The ingest that released a trigger diagnosed it, so an export
        # right after finds nothing left to run: its only event is the
        # snapshot, which counts the incident already emitted.
        batches = StoreReplayFeed(
            faulty_store, performance=_performance(faulty_store)
        )
        events = _Events()
        worker = ShardWorker(0, events)
        worker._handle_add(_spec())
        for batch in batches:
            worker._handle_ingest("mover", batch)
            if worker.diagnosed:
                break
        (incident,) = [event[3] for event in events.items]
        del events.items[:]
        worker._handle_export("mover")
        kinds = [event[0] for event in events.items]
        assert kinds == ["exported"]
        snapshot = events.items[0][3]
        assert snapshot.pending == []
        assert snapshot.counters["incident_count"] == incident.index + 1
        assert "mover" not in worker.runtimes


class TestSupervisorMove:
    def test_move_mid_stream_still_exactly_one_incident(self):
        self._check_move_mid_stream("thread")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("move_at", range(42, 48))
    def test_a_move_around_the_violation_loses_nothing(
        self, backend, move_at
    ):
        # The violation is at t = 42 and its grace ends at 46, so the
        # move lands before the trigger exists, while it waits for grace
        # data, and once it is released on the source shard.
        if backend == "process" and not fork_available():
            pytest.skip("fork start method unavailable")
        self._check_move_mid_stream(backend, move_at)

    def test_move_across_processes_still_exactly_one_incident(self):
        # The snapshot crosses two process boundaries by pickle: source
        # shard to supervisor, supervisor to target shard.
        if not fork_available():
            pytest.skip("fork start method unavailable")
        self._check_move_mid_stream("process")

    @staticmethod
    def _check_move_mid_stream(backend, move_at=30):
        manifest = manifest_from_dict(
            {
                "shards": 2,
                "backend": backend,
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
            if t == move_at:
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
        assert supervisor.incidents["t-0002"][0].index == 0
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

