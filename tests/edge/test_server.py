"""EdgeServer over a real socket: routes, stats, and backpressure.

These tests replace the pipeline with a deliberately stalled stub so the
bounded queue's state is deterministic: nothing is consumed until the
test releases it, which makes the 429 shed path exactly reproducible.
"""

import threading
import time

import pytest

from repro.edge.client import EdgeClient
from repro.edge.server import EdgeConfig, EdgeServer, QueueFeed
from repro.edge.store import MemoryIncidentStore
from repro.obs.registry import MetricsRegistry


class FakeDiagnosis:
    def __init__(self, faulty):
        self.faulty = list(faulty)
        self.external_factor = False
        self.skipped = []
        self.confidence = "full"
        self.latency_seconds = 0.1
        self.violation_time = 50
        self.validated = True


class FakeIncident:
    def __init__(self, index, violation_tick, faulty=("db",)):
        self.index = index
        self.violation_tick = violation_tick
        self.diagnosis = FakeDiagnosis(faulty)

    def to_dict(self):
        return {
            "index": self.index,
            "violation_tick": self.violation_tick,
            "quality": "full",
            "faulty": sorted(self.diagnosis.faulty),
        }


class StalledPipeline:
    """Consumes nothing until released — freezes the queue for tests."""

    def __init__(self, feed):
        self.feed = feed
        self.release = threading.Event()
        self.ticks = 0
        self.triggered = 0
        self.incidents = []
        self.failures = []

    def run(self):
        self.release.wait()
        for _ in self.feed:
            self.ticks += 1


@pytest.fixture
def make_edge():
    made = []

    def factory(queue_depth=3, store=None, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        config = EdgeConfig(queue_depth=queue_depth, **config_kwargs)
        # A private registry per server keeps counter assertions exact
        # regardless of what other tests in the process have counted.
        server = EdgeServer(
            config, incident_store=store, registry=MetricsRegistry()
        )
        feed = QueueFeed(queue_depth)
        pipeline = StalledPipeline(feed)
        server._feed = feed
        server.pipeline = pipeline
        server.start()
        client = EdgeClient("127.0.0.1", server.port, timeout=10.0)
        made.append((server, client, pipeline))
        return server, client, pipeline

    yield factory
    for server, client, pipeline in made:
        pipeline.release.set()
        client.close()
        server.close()


def tick_payload(t, value=0.5):
    return [
        {"component": "web", "metric": "cpu_usage", "time": t, "value": value}
    ]


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


class TestBackpressure:
    def test_flood_sheds_with_429_and_stays_responsive(self, make_edge):
        server, client, pipeline = make_edge(queue_depth=3)
        for t in range(3):
            assert client.push_json(tick_payload(t)).status == 202
        shed = client.push_json(tick_payload(3))
        assert shed.status == 429
        assert "retry-after" in shed.headers
        body = shed.json()
        assert body["accepted_batches"] == 0
        assert body["rejected_batches"] == 1
        assert body["retry_after_seconds"] == 1.0
        # The event loop never blocked on the full queue: health, stats
        # and metrics answer immediately mid-flood.
        assert client.healthz()
        stats = client.stats()
        assert stats["queue_depth"] == 3
        assert stats["queue_capacity"] == 3
        assert stats["shed_batches"] == 1
        assert stats["enqueued_batches"] == 3
        assert "fchain_edge_shed_batches_total 1" in client.metrics_text()

    def test_accepts_again_after_drain(self, make_edge):
        server, client, pipeline = make_edge(queue_depth=2)
        assert client.push_json(tick_payload(0)).status == 202
        assert client.push_json(tick_payload(1)).status == 202
        assert client.push_json(tick_payload(2)).status == 429
        pipeline.release.set()
        wait_until(lambda: client.stats()["queue_depth"] == 0)
        assert client.push_json(tick_payload(2)).status == 202

    def test_multi_tick_push_is_all_or_nothing(self, make_edge):
        server, client, pipeline = make_edge(queue_depth=4)
        three_ticks = [tick_payload(t)[0] for t in range(3)]
        assert client.push_json(three_ticks).status == 202
        # One slot is free; a 3-tick push must be shed whole, not split.
        more = [tick_payload(t)[0] for t in range(3, 6)]
        response = client.push_json(more)
        assert response.status == 429
        assert response.json()["accepted_batches"] == 0
        assert client.stats()["queue_depth"] == 3

    def test_push_larger_than_capacity_is_413(self, make_edge):
        server, client, pipeline = make_edge(queue_depth=2)
        oversized = [tick_payload(t)[0] for t in range(3)]
        assert client.push_json(oversized).status == 413

    def test_retrying_client_rides_out_the_flood(self, make_edge):
        server, client, pipeline = make_edge(queue_depth=1)
        assert client.push_json(tick_payload(0)).status == 202
        releaser = threading.Timer(0.2, pipeline.release.set)
        releaser.start()
        try:
            response = client.push_json_retrying(tick_payload(1))
        finally:
            releaser.cancel()
        assert response.status == 202
        assert server.shed_batches >= 1


class TestIngestValidation:
    def test_tenant_push_rejected_in_pipeline_mode(self, make_edge):
        server, client, pipeline = make_edge()
        response = client.push_json(tick_payload(0), tenant="acme")
        assert response.status == 400
        assert "fleet" in response.json()["error"]

    def test_bad_json_is_400(self, make_edge):
        server, client, pipeline = make_edge()
        response = client.request(
            "POST",
            "/v1/ingest",
            body=b"not json",
            headers={"Content-Type": "application/json"},
        )
        assert response.status == 400

    def test_unknown_content_type_is_415(self, make_edge):
        server, client, pipeline = make_edge()
        response = client.request(
            "POST",
            "/v1/ingest",
            body=b"<xml/>",
            headers={"Content-Type": "application/xml"},
        )
        assert response.status == 415

    def test_oversized_body_is_413(self, make_edge):
        server, client, pipeline = make_edge(max_body_bytes=64)
        response = client.push_json(tick_payload(0) * 10)
        assert response.status == 413


class TestQuerySurface:
    def filled_store(self):
        store = MemoryIncidentStore()
        store.append(FakeIncident(0, 100), created_at=1.0)
        store.append(
            FakeIncident(1, 200, faulty=("web",)), tenant="acme", created_at=2.0
        )
        return store

    def test_incident_listing_and_filters(self, make_edge):
        server, client, pipeline = make_edge(store=self.filled_store())
        incidents = client.incidents()
        assert [i["id"] for i in incidents] == [2, 1]
        assert incidents[1]["faulty"] == ["db"]
        assert [i["id"] for i in client.incidents(tenant="acme")] == [2]
        assert [i["id"] for i in client.incidents(since=150)] == [2]
        assert [i["id"] for i in client.incidents(limit=1)] == [2]

    def test_incident_and_diagnosis_detail(self, make_edge):
        server, client, pipeline = make_edge(store=self.filled_store())
        record = client.incident(2)
        assert record["tenant"] == "acme"
        assert record["incident"]["violation_tick"] == 200
        diagnosis = client.diagnosis(2)
        assert diagnosis["diagnosis"]["faulty"] == ["web"]
        assert diagnosis["diagnosis"]["confidence"] == "full"

    def test_unknown_incident_is_404(self, make_edge):
        server, client, pipeline = make_edge(store=self.filled_store())
        assert client.request("GET", "/v1/incidents/99").status == 404
        assert client.request("GET", "/v1/incidents/abc").status == 400

    def test_bad_filter_is_400(self, make_edge):
        server, client, pipeline = make_edge(store=self.filled_store())
        assert client.request("GET", "/v1/incidents?since=soon").status == 400


class TestRoutingAndLifecycle:
    def test_unknown_route_is_404(self, make_edge):
        server, client, pipeline = make_edge()
        assert client.request("GET", "/nope").status == 404

    def test_wrong_method_is_405_with_allow(self, make_edge):
        server, client, pipeline = make_edge()
        response = client.request("DELETE", "/v1/ingest")
        assert response.status == 405
        assert response.headers.get("allow") == "POST"

    def test_health_and_ready(self, make_edge):
        server, client, pipeline = make_edge()
        assert client.healthz()
        assert client.readyz()

    def test_metrics_endpoint_renders_prometheus(self, make_edge):
        server, client, pipeline = make_edge()
        client.healthz()
        text = client.metrics_text()
        assert "fchain_edge_requests_total" in text

    def test_stats_reports_pipeline_mode(self, make_edge):
        server, client, pipeline = make_edge()
        stats = client.stats()
        assert stats["mode"] == "pipeline"
        assert stats["ready"] is True
        assert stats["store_backend"] == "memory"
        assert stats["pipeline"]["error"] is None

    def test_shutdown_endpoint(self, make_edge):
        server, client, pipeline = make_edge()
        assert client.shutdown().status == 202
        assert server._shutdown.is_set()

    def test_shutdown_endpoint_can_be_disabled(self, make_edge):
        server, client, pipeline = make_edge(allow_shutdown=False)
        assert client.shutdown().status == 404
        assert not server._shutdown.is_set()

    def test_keep_alive_connection_reused(self, make_edge):
        server, client, pipeline = make_edge()
        for _ in range(3):
            assert client.healthz()
        assert client.stats()["mode"] == "pipeline"
