"""Dispatch semantics of the online pipeline.

These tests stub the diagnosis engine (``pipeline.fchain.localize``) so
they exercise only the loop's own machinery — edge-triggered dispatch,
cooldown dedup, bounded-queue shedding, graceful drain and the
ingest-never-blocks invariant — deterministically and in milliseconds.
"""

import threading
import time

import pytest

from repro.common.errors import ReproError
from repro.common.types import Metric, MetricSample
from repro.core.config import FChainConfig
from repro.core.topology import OnlineTopology
from repro.monitoring.slo import LatencySLO
from repro.service import CallbackSink, JsonlSink, OnlinePipeline, TickBatch

#: Small grace so triggers dispatch after two more ticks.
GRACE = 2


class FakeDiagnosis:
    """The minimal surface an Incident reads off a diagnosis."""

    faulty = frozenset({"db"})
    external_factor = False
    skipped = frozenset()
    latency_seconds = 0.001
    confidence = "full"


class BlockingLocalize:
    """A localize stub the test can hold open and release."""

    def __init__(self):
        self.started = threading.Semaphore(0)
        self.release = threading.Event()
        self.calls = []

    def __call__(self, store, violation_time=None, origin=None):
        self.calls.append(violation_time)
        self.started.release()
        assert self.release.wait(10), "test never released the stub"
        return FakeDiagnosis()


def make_pipeline(**overrides):
    settings = dict(
        analysis_grace=GRACE, service_cooldown=5, service_queue_depth=2
    )
    settings.update(overrides.pop("settings", {}))
    detector = overrides.pop("detector", None) or LatencySLO(0.1, sustain=1)
    return OnlinePipeline(
        iter(()), detector, config=FChainConfig(**settings), **overrides
    )


def drive(pipeline, performance, start=0):
    """Feed one empty batch per value of the performance signal."""
    for offset, value in enumerate(performance):
        pipeline.process(TickBatch(time=start + offset, performance=value))
    return start + len(performance)


class TestEdgeTriggeredDispatch:
    def test_one_trigger_per_sustained_violation(self):
        pipeline = make_pipeline()
        pipeline.fchain.localize = lambda store, violation_time=None, origin=None: (
            FakeDiagnosis()
        )
        # 30 consecutive violating ticks: one rising edge, one incident,
        # no matter how long the violation lasts.
        drive(pipeline, [0.01] * 5 + [1.0] * 30 + [0.01] * 5)
        pipeline.close()
        assert pipeline.triggered == 1
        assert len(pipeline.incidents) == 1
        assert pipeline.incidents[0].violation_tick == 5
        assert pipeline.incidents[0].faulty == ["db"]

    def test_incident_waits_for_grace_data(self):
        pipeline = make_pipeline()
        dispatched = []
        pipeline.fchain.localize = (
            lambda store, violation_time=None, origin=None: dispatched.append(store.end)
            or FakeDiagnosis()
        )
        end = drive(pipeline, [0.01, 0.01, 1.0, 1.0, 1.0, 1.0, 1.0])
        pipeline.close()
        assert pipeline.incidents[0].violation_tick == 2
        # Dispatch waited for the post-violation grace window.
        assert pipeline.incidents[0].dispatched_tick >= 2 + GRACE
        assert dispatched and dispatched[0] >= 2 + GRACE + 1
        assert end == 7

    def test_cooldown_folds_flapping(self):
        pipeline = make_pipeline(settings={"service_cooldown": 10})
        pipeline.fchain.localize = lambda store, violation_time=None, origin=None: (
            FakeDiagnosis()
        )
        # Two rising edges 4 ticks apart — inside the 10-tick cooldown —
        # then a third edge well outside it.
        signal = [1.0, 1.0, 0.01, 0.01] + [1.0, 0.01] + [0.01] * 12 + [1.0]
        drive(pipeline, signal)
        pipeline.close()
        assert pipeline.triggered == 2
        assert [i.violation_tick for i in pipeline.incidents] == [0, 18]

    def test_separate_incidents_after_cooldown(self):
        pipeline = make_pipeline(settings={"service_cooldown": 3})
        pipeline.fchain.localize = lambda store, violation_time=None, origin=None: (
            FakeDiagnosis()
        )
        drive(pipeline, [1.0, 0.01, 0.01, 0.01, 1.0, 0.01, 0.01, 0.01])
        pipeline.close()
        assert pipeline.triggered == 2
        assert len(pipeline.incidents) == 2


class TestBackpressure:
    def test_queue_full_sheds_with_counted_drop(self):
        blocker = BlockingLocalize()
        pipeline = make_pipeline(
            settings={"service_cooldown": 0, "service_queue_depth": 1}
        )
        pipeline.fchain.localize = blocker
        # First incident: dispatched, worker picks it up and blocks.
        t = drive(pipeline, [1.0, 0.01, 0.01, 0.01])
        assert blocker.started.acquire(timeout=10)
        # Second incident queues (filling the depth-1 queue), third is shed.
        t = drive(pipeline, [1.0, 0.01, 0.01, 0.01], start=t)
        t = drive(pipeline, [1.0, 0.01, 0.01, 0.01], start=t)
        drive(pipeline, [0.01] * 2, start=t)
        assert pipeline.triggered == 3
        assert pipeline.dropped == 1
        blocker.release.set()
        pipeline.close()
        assert len(pipeline.incidents) == 2  # the shed trigger is gone

    def test_ingest_never_blocks_on_diagnosis(self):
        blocker = BlockingLocalize()
        pipeline = make_pipeline(settings={"service_cooldown": 0})
        pipeline.fchain.localize = blocker
        t = drive(pipeline, [1.0, 0.01, 0.01, 0.01])
        assert blocker.started.acquire(timeout=10)
        # The worker holds the slave for the whole "diagnosis"; the loop
        # must keep ticking at full speed regardless.
        before = time.monotonic()
        t = drive(pipeline, [0.01] * 200, start=t)
        elapsed = time.monotonic() - before
        assert pipeline.ticks == 204
        assert elapsed < 5.0  # 200 empty ticks, never awaiting the worker
        assert pipeline.warm_sync_skipped > 0
        blocker.release.set()
        pipeline.close()
        assert len(pipeline.incidents) == 1


class TestDrain:
    def test_close_flushes_pending_triggers(self):
        pipeline = make_pipeline()
        pipeline.fchain.localize = lambda store, violation_time=None, origin=None: (
            FakeDiagnosis()
        )
        # Violation on the very last tick: the grace data never arrives.
        drive(pipeline, [0.01, 0.01, 1.0])
        assert pipeline.triggered == 1
        assert not pipeline.incidents
        pipeline.close()
        assert len(pipeline.incidents) == 1
        assert pipeline.incidents[0].violation_tick == 2

    def test_close_waits_for_inflight_diagnosis(self):
        blocker = BlockingLocalize()
        pipeline = make_pipeline()
        pipeline.fchain.localize = blocker
        drive(pipeline, [1.0] + [0.01] * 4)
        assert blocker.started.acquire(timeout=10)
        closer = threading.Thread(target=pipeline.close)
        closer.start()
        closer.join(timeout=0.2)
        assert closer.is_alive()  # drain waits on the diagnosis
        blocker.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert len(pipeline.incidents) == 1

    def test_run_drains_when_the_feed_raises(self):
        class Sink:
            def __init__(self):
                self.seen = []
                self.closed = False

            def __call__(self, incident):
                self.seen.append(incident)

            def close(self):
                self.closed = True

        def feed():
            # One violation, its grace data, then the source falls over.
            for t, value in enumerate([1.0] + [0.01] * 4):
                yield TickBatch(time=t, performance=value)
            raise OSError("feed went away")

        sink = Sink()
        pipeline = OnlinePipeline(
            feed(),
            LatencySLO(0.1, sustain=1),
            config=FChainConfig(analysis_grace=GRACE),
            sinks=[sink],
        )
        pipeline.fchain.localize = lambda store, violation_time=None, origin=None: (
            FakeDiagnosis()
        )
        with pytest.raises(OSError, match="feed went away"):
            pipeline.run()
        # The exception propagated, but the loop still drained: the
        # already-dispatched incident was delivered, the sink closed and
        # the worker joined.
        assert pipeline._closed
        assert [i.violation_tick for i in sink.seen] == [0]
        assert sink.closed
        assert pipeline._worker is None

    def test_close_is_idempotent_and_process_after_close_raises(self):
        pipeline = make_pipeline()
        pipeline.close()
        pipeline.close()
        with pytest.raises(ReproError):
            pipeline.process(TickBatch(time=0))

    def test_context_manager_closes(self):
        with make_pipeline() as pipeline:
            drive(pipeline, [0.01] * 3)
        assert pipeline._closed


class TestFailureIsolation:
    def test_diagnosis_error_keeps_loop_alive(self):
        pipeline = make_pipeline(settings={"service_cooldown": 0})

        def explode(store, violation_time=None, origin=None):
            raise RuntimeError("slave fell over")

        pipeline.fchain.localize = explode
        t = drive(pipeline, [1.0, 0.01, 0.01, 0.01])
        drive(pipeline, [1.0, 0.01, 0.01, 0.01], start=t)
        pipeline.close()
        assert not pipeline.incidents
        assert len(pipeline.failures) == 2
        assert all(
            isinstance(error, RuntimeError) for _, error in pipeline.failures
        )

    def test_sink_error_recorded_not_raised(self):
        pipeline = make_pipeline(
            sinks=[CallbackSink(lambda incident: 1 / 0)]
        )
        pipeline.fchain.localize = lambda store, violation_time=None, origin=None: (
            FakeDiagnosis()
        )
        drive(pipeline, [1.0] + [0.01] * 4)
        pipeline.close()
        assert len(pipeline.incidents) == 1
        assert len(pipeline.failures) == 1


class TestSinks:
    def test_jsonl_sink_written_and_closed(self, tmp_path):
        import json

        path = tmp_path / "incidents.jsonl"
        sink = JsonlSink(path)
        pipeline = make_pipeline(sinks=[sink])
        pipeline.fchain.localize = lambda store, violation_time=None, origin=None: (
            FakeDiagnosis()
        )
        drive(pipeline, [1.0] + [0.01] * 4)
        pipeline.close()
        assert sink._writer.closed
        lines = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(lines) == 1
        assert lines[0]["violation_tick"] == 0
        assert lines[0]["faulty"] == ["db"]
        assert lines[0]["quality"] == "full"

    def test_store_without_policy_rejected(self):
        from repro.monitoring.store import MetricStore

        with pytest.raises(ReproError):
            make_pipeline(store=MetricStore())


class TestTopologyLearning:
    def test_pipeline_learns_edges_from_batches(self):
        topology = OnlineTopology(halflife=10.0)
        pipeline = make_pipeline(topology=topology, origin="gw")
        for t in range(40):
            # Correlated network_out co-movement corroborates the edge
            # the traffic counts create.
            load = 30.0 + (t % 7)
            pipeline.process(
                TickBatch(
                    time=t,
                    samples=[
                        MetricSample("gw", Metric.NETWORK_OUT, t, load),
                        MetricSample("a", Metric.NETWORK_OUT, t, load - 2.0),
                    ],
                    performance=0.01,
                    edges={("gw", "a"): 5.0},
                )
            )
        pipeline.close()
        assert pipeline.topology is topology
        assert topology.confidence("gw", "a") > 0.5
        assert topology.graph().has_edge("gw", "a")
        # The graph feeds the master so a diagnosis can scope with it.
        assert pipeline.fchain.master.topology is topology

    def test_pipeline_without_topology_learns_nothing(self):
        pipeline = make_pipeline()
        pipeline.process(
            TickBatch(time=0, performance=0.01, edges={("gw", "a"): 5.0})
        )
        pipeline.close()
        assert pipeline.topology is None
