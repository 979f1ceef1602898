"""The tick rules, each asserted once — on the core both drivers share.

``TickCore`` is driven directly with a stubbed ``fchain.localize``:
no pipeline, no shard. What the drivers add on top (inline diagnosis,
drain, fair dispatch, relocation) is covered in ``test_pipeline.py``
and ``tests/fleet``.
"""

import time

import numpy as np
import pytest

from repro.common.types import Metric, MetricSample
from repro.core.config import FChainConfig
from repro.core.fchain import FChain, FChainSlave
from repro.eval.bench import synthetic_store
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.slo import LatencySLO
from repro.monitoring.store import MetricStore
from repro.obs.registry import MetricsRegistry
from repro.service import OnlinePipeline, StoreReplayFeed, TickBatch
from repro.service.tick import DEFER_SAMPLES, TickCore, Trigger

#: Small grace so triggers are released after two more ticks.
GRACE = 2
CPU = Metric.CPU_USAGE


class FakeDiagnosis:
    """The minimal surface an Incident reads off a diagnosis."""

    faulty = frozenset({"db"})
    confidence = "full"


class RecordingTopology:
    """Stands in for OnlineTopology: records what the tick feeds it."""

    def __init__(self):
        self.calls = []

    def observe_traffic(self, t, edges):
        self.calls.append(("traffic", t, dict(edges)))

    def observe_comovement(self, t, signals):
        self.calls.append(("comovement", t, dict(signals)))


def make_core(*, topology=None, origin=None, **settings):
    settings = {"analysis_grace": GRACE, "service_cooldown": 5, **settings}
    fchain = FChain(FChainConfig(**settings), topology=topology)
    fchain.localize = lambda store, violation_time=None, origin=None: (
        FakeDiagnosis()
    )
    return TickCore(
        MetricStore(policy=DataQualityPolicy()),
        fchain,
        LatencySLO(0.1, sustain=1),
        origin=origin,
    )


def drive(core, performance, start=0):
    """One empty batch per value of the performance signal; returns the
    ``(tick, ready triggers)`` pairs of the ticks that released any."""
    released = []
    for offset, value in enumerate(performance):
        t = start + offset
        ready = core.process(TickBatch(time=t, performance=value))
        if ready:
            released.append((t, ready))
    return released


class TestDedup:
    def test_only_a_rising_edge_triggers(self):
        core = make_core()
        released = drive(core, [0.01] * 3 + [1.0] * 10 + [0.01] * 3)
        assert core.ticks == 16
        assert core.triggered == 1
        assert [[t.violation_tick for t in ready] for _, ready in released] == [[3]]

    def test_cooldown_folds_flapping_into_one_trigger(self):
        core = make_core(service_cooldown=10)
        # Rising edges at 0, 4 (inside the 10-tick window) and 18.
        signal = [1.0, 1.0, 0.01, 0.01] + [1.0, 0.01] + [0.01] * 12 + [1.0]
        released = drive(core, signal)
        released += [(None, core.flush_pending())]
        assert core.triggered == 2
        assert [t.violation_tick for _, ready in released for t in ready] == [0, 18]


class TestGrace:
    def test_trigger_waits_for_grace_then_is_stamped(self):
        core = make_core()
        released = drive(core, [0.01, 0.01] + [1.0] * 5)
        # Violation at t=2: nothing is released at ticks 2 and 3, and at
        # tick 2 + GRACE the stamp is the newest recorded tick.
        assert len(released) == 1
        tick, (trigger,) = released[0]
        assert tick == 2 + GRACE
        assert trigger.violation_tick == 2
        assert trigger.dispatched_tick == 2 + GRACE
        assert not core.pending

    def test_flush_pending_stamps_what_was_recorded(self):
        core = make_core()
        assert drive(core, [0.01, 0.01, 1.0]) == []
        assert [t.dispatched_tick for t in core.pending] == [None]
        (trigger,) = core.flush_pending()
        assert trigger.violation_tick == 2
        assert trigger.dispatched_tick == core.store.end - 1 == 2
        assert core.flush_pending() == []


def count_syncs(core):
    """Wrap the core's slave sync; returns the list of synced horizons."""
    slave = core.fchain.master.slave
    synced = []
    original = slave.sync_with_store

    def counting(store, upto):
        synced.append(upto)
        original(store, upto)

    slave.sync_with_store = counting
    return synced


def tick_of(t, series=12, value=None):
    """One tick carrying a sample for each of ``series`` series."""
    return TickBatch(
        time=t,
        samples=[
            MetricSample(f"c{i}", CPU, t, i + t % 7 if value is None else value)
            for i in range(series)
        ],
    )


def slave_state(slave):
    """Every bank array, warmup list, row and error stream of a slave."""
    bank = slave._bank
    state = {name: getattr(bank, name)[: bank.size] for name in bank.ARRAYS}
    state["warmup_values"] = bank.warmup_values
    state["rows"] = slave._rows
    state["streams"] = {key: slave.errors_for(*key) for key in slave._rows}
    return state


class TestDeferredSync:
    def test_queued_ticks_sync_once_a_block_is_owed(self):
        core = make_core()
        synced = count_syncs(core)
        per_block = -(-DEFER_SAMPLES // 12)  # ticks until 1024 owed
        for t in range(per_block - 1):
            core.process(tick_of(t), queued=True)
        assert synced == []
        assert core.owed == 12 * (per_block - 1) < DEFER_SAMPLES
        core.process(tick_of(per_block - 1), queued=True)
        assert synced == [per_block]
        assert core.owed == 0
        assert len(core.fchain.master.slave.errors_for("c0", CPU)) == per_block

    def test_an_unqueued_tick_syncs_whatever_is_owed(self):
        core = make_core()
        synced = count_syncs(core)
        for t in range(5):
            core.process(tick_of(t), queued=True)
        core.process(tick_of(5))
        assert synced == [6]
        assert core.owed == 0

    def test_pipeline_run_defers_while_its_feed_has_a_backlog(self):
        class BackloggedFeed:
            def __init__(self, batches):
                self.batches = list(batches)

            def qsize(self):
                return len(self.batches)

            def __iter__(self):
                return self

            def __next__(self):
                if not self.batches:
                    raise StopIteration
                return self.batches.pop(0)

        pipeline = OnlinePipeline(
            BackloggedFeed(tick_of(t) for t in range(30)),
            LatencySLO(0.1, sustain=1),
        )
        synced = count_syncs(pipeline.core)
        pipeline.run()
        # Only the last tick found nothing queued behind it.
        assert synced == [30]

    @pytest.mark.parametrize(
        "queued", [lambda t: True, lambda t: t % 20 != 0],
        ids=["all-queued", "every-20th-unqueued"],
    )
    def test_deferral_leaves_incidents_and_models_bit_identical(self, queued):
        store = synthetic_store(
            samples=2_100, components=4, metrics=3, seed=5, fault_lead=40
        )
        onset = store.end - 40 + 5
        violating = set(range(800, 806)) | set(range(1500, 1506))
        violating |= set(range(onset, store.end))
        performance = {
            t: 0.5 if t in violating else 0.01
            for t in range(store.start, store.end)
        }

        def run(deferred):
            core = TickCore(
                MetricStore(policy=DataQualityPolicy()),
                FChain(FChainConfig(), seed=3),
                LatencySLO(0.1, sustain=5),
            )
            synced = count_syncs(core)
            incidents = []
            for batch in StoreReplayFeed(store, performance=performance):
                t = int(batch.time)
                ready = core.process(batch, queued=deferred and queued(t))
                incidents += [core.diagnose(trigger) for trigger in ready]
            incidents += map(core.diagnose, core.flush_pending())
            core.warm_sync()
            state = slave_state(core.fchain.master.slave)
            return incidents, state, len(synced)

        deferred, deferred_state, deferred_syncs = run(True)
        every_tick, every_tick_state, syncs = run(False)
        assert syncs == store.end + 1  # every tick, then the final sync
        assert deferred_syncs < syncs / 10
        assert len(every_tick) == len(deferred) == 3
        assert "c0" in every_tick[-1].diagnosis.faulty
        for left, right in zip(deferred, every_tick):
            assert left.violation_tick == right.violation_tick
            assert left.dispatched_tick == right.dispatched_tick
            assert left.diagnosis.faulty == right.diagnosis.faulty
            assert left.diagnosis.reports == right.diagnosis.reports
            assert left.diagnosis.chain.links == right.diagnosis.chain.links
        np.testing.assert_equal(deferred_state, every_tick_state)

    def test_deferred_sync_learns_a_slot_repaired_before_it(self):
        """The one way sync timing shows: a slot rewritten in place
        after its tick but before the deferred sync is learned with its
        repaired value, where a per-tick sync learned the original."""

        def run(queued):
            core = make_core()
            for t in range(80):
                if t == 70:
                    # Tick 70 is lost; tick 71 closes the gap with a fill.
                    core.process(TickBatch(time=70), queued=queued)
                    continue
                core.process(tick_of(t, series=1), queued=queued)
                if t == 72:
                    # Tick 70 arrives late and backfills the filled slot.
                    late = tick_of(70, series=1, value=99.0)
                    core.process(late, queued=queued)
            core.warm_sync()
            assert core.store.revision == 1
            return core

        per_tick, deferred = run(False), run(True)
        fresh = FChainSlave()
        fresh.sync_with_store(deferred.store, deferred.store.end)
        learned = deferred.fchain.master.slave.errors_for("c0", CPU)
        np.testing.assert_array_equal(learned, fresh.errors_for("c0", CPU))
        original = per_tick.fchain.master.slave.errors_for("c0", CPU)
        assert len(original) == len(learned) == 80
        assert not np.array_equal(original, learned, equal_nan=True)
        np.testing.assert_array_equal(original[:70], learned[:70])


class TestTopologyLearning:
    def test_traffic_then_network_out_comovement(self):
        topology = RecordingTopology()
        core = make_core(topology=topology)
        assert core.topology is topology
        core.process(
            TickBatch(
                time=0,
                samples=[
                    MetricSample("gw", Metric.NETWORK_OUT, 0, 30.0),
                    MetricSample("gw", CPU, 0, 55.0),
                    MetricSample("a", Metric.NETWORK_OUT, 0, 28.0),
                ],
                edges={("gw", "a"): 5.0},
            )
        )
        # No evidence on a channel, no call on it.
        core.process(TickBatch(time=1, samples=[MetricSample("gw", CPU, 1, 55.0)]))
        assert topology.calls == [
            ("traffic", 0, {("gw", "a"): 5.0}),
            ("comovement", 0, {"gw": 30.0, "a": 28.0}),
        ]


class TestDiagnose:
    def test_incident_is_stamped_from_the_trigger(self):
        core = make_core(origin="gw")
        calls = []
        # Replaced after construction: the core must look ``localize``
        # up on its FChain at call time.
        core.fchain.localize = (
            lambda store, violation_time=None, origin=None: calls.append(
                (store, violation_time, origin)
            )
            or FakeDiagnosis()
        )
        first = core.diagnose(Trigger(7, time.monotonic(), dispatched_tick=9))
        second = core.diagnose(Trigger(20, time.monotonic(), dispatched_tick=22))
        assert calls == [(core.store, 7, "gw"), (core.store, 20, "gw")]
        assert (first.index, second.index) == (0, 1)
        assert core.incident_count == 2
        assert (first.violation_tick, first.dispatched_tick) == (7, 9)
        assert first.quality == "full"
        assert first.faulty == ["db"]
        assert first.trigger_latency_seconds >= 0.0

    def test_engine_failure_propagates_and_burns_no_index(self):
        core = make_core()

        def explode(store, violation_time=None, origin=None):
            raise RuntimeError("slave fell over")

        core.fchain.localize = explode
        with pytest.raises(RuntimeError):
            core.diagnose(Trigger(3, time.monotonic(), 5))
        assert core.incident_count == 0

    def test_owed_models_are_synced_in_one_block_first(self):
        core = make_core()
        for t in range(5):
            core.process(tick_of(t), queued=True)
        assert core.owed == 60
        synced = count_syncs(core)
        localized = []
        core.fchain.localize = (
            lambda store, violation_time=None, origin=None: localized.append(
                list(synced)
            )
            or FakeDiagnosis()
        )
        core.diagnose(Trigger(4, time.monotonic(), 4))
        assert localized == [[5]]
        assert core.owed == 0
        slave = core.fchain.master.slave
        assert len(slave.errors_for("c0", CPU)) == 5


class TestServiceTickSpans:
    """The ``service_tick`` span tree the pipeline wraps around the core."""

    @pytest.mark.parametrize("telemetry", ["timings", "full"])
    def test_span_tree(self, telemetry):
        pipeline = OnlinePipeline(
            iter(()),
            LatencySLO(0.1, sustain=1),
            config=FChainConfig(
                analysis_grace=GRACE, service_cooldown=5, telemetry=telemetry
            ),
            registry=MetricsRegistry(),
        )
        pipeline.fchain.localize = (
            lambda store, violation_time=None, origin=None: FakeDiagnosis()
        )
        spans = []
        pipeline.tracer.observe = spans.append
        for t, value in enumerate([0.01, 1.0, 1.0, 1.0]):
            pipeline.process(
                TickBatch(
                    time=t,
                    samples=[
                        MetricSample("a", CPU, t, 1.0),
                        MetricSample("b", CPU, t, 2.0),
                    ],
                    performance=value,
                )
            )
        pipeline.close()

        ticks = [span for span in spans if span.name == "service_tick"]
        assert len(ticks) == 4
        quiet = ["store_sync", "slo_eval"]
        assert [[c.name for c in tick.children] for tick in ticks] == [
            quiet, quiet, quiet, quiet,
        ]
        assert all(span.duration > 0.0 for tick in ticks for span in tick.walk())
        if telemetry == "timings":
            # Timings only: no tags, no counters anywhere in the tree.
            assert not any(
                span.tags or span.counters
                for tick in ticks
                for span in tick.walk()
            )
            return
        assert [tick.tags for tick in ticks] == [{"tick": t} for t in range(4)]
        assert all(tick.counters == {"samples_ingested": 2} for tick in ticks)
        assert [tick.children[1].tags for tick in ticks] == [
            {"violated": False},
            {"violated": True},
            {"violated": True},
            {"violated": True},
        ]
