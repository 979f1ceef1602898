"""Fleet supervisor behaviour: routing, isolation, observability, drain.

Small fleets (a handful of tenants, short synthetic runs) exercise the
full supervisor → shard worker → tenant runtime path on both backends;
the budget/fairness mechanics are unit-tested directly on
:class:`ShardWorker` so the assertions are deterministic.
"""

import queue
import threading
import time

import pytest

from repro.common.errors import ConfigurationError, ReproError
from repro.common.types import Metric, MetricSample
from repro.fleet import (
    FleetConfig,
    FleetSupervisor,
    ShardWorker,
    TenantSpec,
    manifest_from_dict,
    run_manifest,
)
from repro.fleet.manifest import FleetFeed
from repro.fleet.supervisor import fork_available
from repro.monitoring.slo import LatencySLO
from repro.obs.registry import MetricsRegistry
from repro.service.sources import TickBatch
from repro.service.tick import DEFER_SAMPLES, Trigger
from tests.service.test_tick import count_syncs


def _manifest(count=6, shards=2, fault_tenant=None, **overrides):
    document = {
        "shards": shards,
        "generate": {"count": count, "prefix": "t"},
        "defaults": {
            "components": 4,
            "look_back_window": 30,
            "analysis_grace": 4,
            "slo_sustain": 3,
        },
    }
    if fault_tenant is not None:
        document["faults"] = [
            {"tenant": fault_tenant, "at": 40, "component": 1}
        ]
    document.update(overrides)
    return manifest_from_dict(document)


class TestConfigValidation:
    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            FleetConfig(backend="fibers").validate()

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="shards"):
            FleetConfig(shards=0).validate()
        with pytest.raises(ConfigurationError, match="queue_depth"):
            FleetConfig(queue_depth=0).validate()
        with pytest.raises(ConfigurationError, match="tenant_budget"):
            FleetConfig(tenant_budget=0).validate()


class TestRoutingAndLifecycle:
    def test_placement_covers_every_tenant(self):
        manifest = _manifest(count=12, shards=3)
        supervisor = FleetSupervisor(manifest.fleet_config())
        try:
            for spec in manifest.tenant_specs():
                supervisor.add_tenant(spec)
            placement = supervisor.shard_map()
            placed = sorted(t for ts in placement.values() for t in ts)
            assert placed == sorted(manifest.tenants)
            assert set(placement) == {0, 1, 2}
        finally:
            supervisor.close()

    def test_unknown_tenant_ingest_raises(self):
        supervisor = FleetSupervisor(FleetConfig(shards=1))
        try:
            with pytest.raises(ConfigurationError, match="not registered"):
                supervisor.ingest("ghost", None)
        finally:
            supervisor.close()

    def test_duplicate_tenant_rejected(self):
        supervisor = FleetSupervisor(FleetConfig(shards=1))
        try:
            spec = TenantSpec(tenant="a", detector=LatencySLO(0.1))
            supervisor.add_tenant(spec)
            with pytest.raises(ConfigurationError, match="already"):
                supervisor.add_tenant(spec)
        finally:
            supervisor.close()

    def test_closed_fleet_refuses_work(self):
        supervisor = FleetSupervisor(FleetConfig(shards=1))
        supervisor.close()
        with pytest.raises(ReproError, match="closed"):
            supervisor.ingest("a", None)
        with pytest.raises(ReproError, match="closed"):
            supervisor.add_tenant(
                TenantSpec(tenant="a", detector=LatencySLO(0.1))
            )

    def test_close_is_idempotent(self):
        supervisor = FleetSupervisor(FleetConfig(shards=1))
        supervisor.close()
        supervisor.close()


class TestEndToEnd:
    def test_one_fault_one_incident_no_cross_tenant(self):
        manifest = _manifest(count=6, fault_tenant="t-0002")
        result = run_manifest(manifest, 60)
        supervisor = result.supervisor
        assert not supervisor.failures
        assert result.dropped == 0
        assert list(supervisor.incidents) == ["t-0002"]
        assert len(supervisor.incidents["t-0002"]) == 1
        incident = supervisor.incidents["t-0002"][0]
        assert incident.violation_tick == 42  # fault 40 + sustain 3
        stats = supervisor.tenant_stats
        assert set(stats) == set(manifest.tenants)
        assert all(entry["ticks"] == 60 for entry in stats.values())

    def test_quiescent_fleet_raises_nothing(self):
        manifest = _manifest(count=4)
        result = run_manifest(manifest, 30)
        assert result.supervisor.incidents == {}
        assert not result.supervisor.failures

    def test_process_backend_agrees_with_thread(self):
        from repro.fleet.supervisor import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        verdicts = {}
        for backend in ("thread", "process"):
            manifest = _manifest(
                count=4, fault_tenant="t-0001", backend=backend
            )
            result = run_manifest(manifest, 60)
            assert not result.supervisor.failures
            incidents = result.supervisor.incidents
            assert list(incidents) == ["t-0001"]
            incident = incidents["t-0001"][0]
            verdicts[backend] = (
                incident.violation_tick,
                incident.diagnosis.faulty,
                incident.diagnosis.external_factor,
            )
        assert verdicts["thread"] == verdicts["process"]

    def test_incident_sinks_fire(self):
        seen = []
        manifest = _manifest(count=4, fault_tenant="t-0001")
        run_manifest(
            manifest, 60, sinks=[lambda tenant, i: seen.append(tenant)]
        )
        assert seen == ["t-0001"]


class TestThreadShardsAreCalls:
    """The thread backend runs each shard on the caller's thread."""

    def test_a_thread_fleet_starts_no_thread(self):
        before = threading.active_count()
        manifest = _manifest(count=6, shards=3, fault_tenant="t-0002")
        supervisor = FleetSupervisor(manifest.fleet_config())
        try:
            run_manifest(manifest, 60, supervisor=supervisor)
            source = supervisor.shard_of("t-0002")
            supervisor.move_tenant("t-0002", (source + 1) % 3)
            supervisor.add_shard()
            assert threading.active_count() == before
        finally:
            supervisor.close()
        assert threading.active_count() == before
        assert len(supervisor.incidents["t-0002"]) == 1

    def test_the_dispatch_ingest_returns_with_the_incident_delivered(self):
        seen = []
        spec, batches = _faulted_tenant("t-0000")
        supervisor = FleetSupervisor(
            FleetConfig(shards=2),
            sinks=[lambda tenant, incident: seen.append((tenant, incident))],
        )
        try:
            supervisor.add_tenant(spec)
            for batch in batches[:46]:
                assert supervisor.ingest(spec.tenant, batch)
            assert supervisor.incidents == {} and seen == []
            # Tick 46 ends the violation's grace: its ingest diagnoses.
            assert supervisor.ingest(spec.tenant, batches[46])
            (incident,) = supervisor.incidents[spec.tenant]
            assert incident.dispatched_tick == 46
            assert seen == [(spec.tenant, incident)]
        finally:
            supervisor.close()


class _SlowSamples(list):
    """A sample list whose iteration wedges the consuming serve loop."""

    def __iter__(self):
        time.sleep(0.4)
        return super().__iter__()


def _wait_empty(shard, what):
    deadline = time.monotonic() + 5.0
    while shard.depth() > 0:
        assert time.monotonic() < deadline, f"{what} never consumed"
        time.sleep(0.01)


class TestBackpressure:
    def test_full_shard_queue_sheds_with_counted_drop(self):
        # Only a process shard has a queue to fill.
        if not fork_available():
            pytest.skip("fork start method unavailable")
        config = FleetConfig(
            shards=1, backend="process", queue_depth=1, route_timeout=0.0
        )
        registry = MetricsRegistry()
        supervisor = FleetSupervisor(config, registry=registry)
        try:
            spec = TenantSpec(tenant="a", detector=LatencySLO(0.1))
            supervisor.add_tenant(spec)
            _wait_empty(supervisor._shards[0], "add")
            # Wedge the single shard: the first batch's sample list
            # sleeps inside the worker's ingest, the second parks on
            # the depth-1 queue, so the third must be shed.
            assert supervisor.ingest(
                "a", TickBatch(time=0, samples=_SlowSamples())
            )
            _wait_empty(supervisor._shards[0], "the slow batch")
            assert supervisor.ingest("a", TickBatch(time=1))
            shed = supervisor.ingest("a", TickBatch(time=2))
            assert shed is False
            assert supervisor.ingest_dropped[0] == 1
            counter = registry.counter(
                "fchain_fleet_ingest_dropped_total", label_names=("shard",)
            )
            assert counter.value(shard="0") == 1.0
        finally:
            supervisor.close()


class TestObservability:
    def test_fleet_metrics_exported(self):
        registry = MetricsRegistry()
        manifest = _manifest(count=4, fault_tenant="t-0001")
        supervisor = FleetSupervisor(
            manifest.fleet_config(), registry=registry
        )
        run_manifest(manifest, 60, supervisor=supervisor)
        supervisor.close()
        gauge = registry.gauge("fchain_fleet_tenants")
        assert gauge.value() == 4.0
        incidents = registry.counter(
            "fchain_fleet_incidents_total", label_names=("tenant",)
        )
        assert incidents.value(tenant="t-0001") == 1.0
        text = registry.render_prometheus()
        assert "fchain_fleet_tenants 4" in text
        assert 'fchain_fleet_incidents_total{tenant="t-0001"} 1' in text
        assert "fchain_fleet_shard_queue_depth" in text


class _Events:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class TestShardWorkerFairness:
    def _worker(self, budget=4):
        # Queueing alone diagnoses nothing: only the serve loop does.
        return ShardWorker(0, _Events(), tenant_budget=budget)

    def test_budget_sheds_excess_triggers(self):
        worker = self._worker(budget=2)
        for i in range(5):
            worker._enqueue("noisy", Trigger(i, 0.0))
        assert len(worker._queues["noisy"]) == 2
        assert worker.shed["noisy"] == 3

    def test_drain_triggers_bypass_budget(self):
        worker = self._worker(budget=1)
        worker._enqueue("t", Trigger(0, 0.0))
        worker._enqueue("t", Trigger(1, 0.0), budgeted=False)
        assert len(worker._queues["t"]) == 2

    def test_dispatch_is_round_robin_across_tenants(self):
        worker = self._worker()
        for tick in range(3):
            worker._enqueue("a", Trigger(tick, 0.0))
        worker._enqueue("b", Trigger(0, 0.0))
        worker._enqueue("c", Trigger(0, 0.0))
        order = []
        while True:
            item = worker._next_trigger()
            if item is None:
                break
            order.append(item[0])
        # One trigger per visit: a's backlog cannot monopolize the
        # shard's diagnoses while b and c wait.
        assert order == ["a", "b", "c", "a", "a"]


def _faulted_tenant(tenant):
    """The spec of a one-tenant fleet faulted at t = 40, and its 60
    ticks: the violation is at 42, the trigger released at 46."""
    manifest = _manifest(count=1, shards=1, fault_tenant=tenant)
    feed = FleetFeed(manifest, 60)
    (spec,) = manifest.tenant_specs()
    return spec, [feed.batch(tenant, t) for t in range(60)]


class _Commands:
    """A command queue whose ``qsize`` reports the commands left."""

    def __init__(self, commands):
        self.commands = list(commands)

    def get(self):
        return self.commands.pop(0)

    def qsize(self):
        return len(self.commands)


class TestShardServeLoop:
    """The serve loop is the shard's only thread and diagnoses itself."""

    TENANT = "t-0000"

    def _tenant(self):
        return _faulted_tenant(self.TENANT)

    def test_a_released_trigger_is_diagnosed_before_the_next_command(self):
        spec, batches = self._tenant()
        events = _Events()
        worker = ShardWorker(0, events)
        # Every ingest is followed by an export of an unknown tenant,
        # whose error event marks when the next command was handled.
        commands = [("add", spec)]
        for batch in batches:
            commands += [("ingest", self.TENANT, batch), ("export", "-")]
        worker.serve(_Commands(commands + [("drain",)]))
        kinds = [event[0] for event in events.items]
        assert kinds.count("incident") == 1
        position = kinds.index("incident")
        incident = events.items[position][3]
        assert incident.violation_tick == 42
        # The ingest of the dispatch tick released the trigger; its
        # incident precedes that ingest's marker.
        assert position == incident.dispatched_tick
        assert kinds[:position] == ["error"] * position

    def test_an_idle_shard_diagnoses_without_another_command(self):
        spec, batches = self._tenant()
        events = queue.Queue()
        worker = ShardWorker(0, events)
        worker._handle_add(spec)
        for batch in batches:
            worker._handle_ingest(self.TENANT, batch)
            if worker._queues:
                break
        assert worker.diagnosed == 0
        commands = queue.Queue()
        runner = threading.Thread(target=worker.serve, args=(commands,))
        runner.start()
        try:
            # No command follows and nothing closes the shard.
            event = events.get(timeout=30.0)
            assert event[0] == "incident"
            assert event[3].violation_tick == 42
        finally:
            commands.put(("drain",))
            runner.join(timeout=30.0)
        assert not runner.is_alive()
        assert worker.diagnosed == 1


class TestShardWarmSyncDeferral:
    TICKS = 30

    def _synced(self):
        worker = ShardWorker(0, _Events())
        worker._handle_add(
            TenantSpec(tenant="t", detector=LatencySLO(0.1, sustain=3))
        )
        synced = count_syncs(worker.runtimes["t"].core)
        batches = [
            TickBatch(
                time=t,
                samples=[
                    MetricSample(f"c{i}", Metric.CPU_USAGE, t, 1.0 + i)
                    for i in range(12)
                ],
                performance=0.01,
            )
            for t in range(self.TICKS)
        ]
        commands = [("ingest", "t", batch) for batch in batches]
        worker.serve(_Commands(commands + [("drain",)]))
        return synced

    def test_a_backlogged_shard_defers(self):
        # 30 ticks of 12 samples owe far less than a block, and every
        # ingest had another command queued behind it.
        assert self._synced() == []

    def test_a_shard_tenant_first_syncs_at_a_block_or_its_diagnosis(self):
        # Thread-backend calls: nothing is ever queued behind a tick,
        # and still a tenant syncs only when its models owe a block or
        # it is diagnosed, whichever comes first.
        events = _Events()
        worker = ShardWorker(0, events)
        quiet = TenantSpec(tenant="quiet", detector=LatencySLO(0.1))
        faulted, batches = _faulted_tenant("t-0000")
        for spec in (quiet, faulted):
            worker.call(("add", spec))
        quiet_syncs = count_syncs(worker.runtimes["quiet"].core)
        faulted_syncs = count_syncs(worker.runtimes[faulted.tenant].core)
        series = 12
        block = -(-DEFER_SAMPLES // series)
        for t in range(block + 1):
            worker.call(
                (
                    "ingest",
                    "quiet",
                    TickBatch(
                        time=t,
                        samples=[
                            MetricSample(f"c{i}", Metric.CPU_USAGE, t, 1.0)
                            for i in range(series)
                        ],
                        performance=0.01,
                    ),
                )
            )
            if t < len(batches):
                worker.call(("ingest", faulted.tenant, batches[t]))
        # The quiet tenant syncs once, on the tick that makes it owe a
        # block: the horizon is that tick + 1.
        assert quiet_syncs == [block]
        # The faulted tenant's 4 series owe less than a block in all
        # 60 ticks; its one sync is the one its diagnosis makes.
        assert len(batches) * 4 < DEFER_SAMPLES
        (incident,) = [e[3] for e in events.items if e[0] == "incident"]
        assert faulted_syncs == [incident.dispatched_tick + 1] == [47]
