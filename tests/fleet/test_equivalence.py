"""A fleet of one tenant is the single-app pipeline, bit for bit.

The acceptance criterion of the fleet layer: sharding must be pure
plumbing. One tenant behind the supervisor → shard worker → tenant
runtime path must produce the same incident — same violation tick, same
``Diagnosis`` verdict, chain and skips — as ``OnlinePipeline`` consuming
the identical feed.
"""

import pytest

from repro.core.config import FChainConfig
from repro.eval.bench import synthetic_store
from repro.fleet import FleetConfig, FleetSupervisor, TenantSpec
from repro.monitoring.slo import LatencySLO
from repro.service import OnlinePipeline, StoreReplayFeed

SAMPLES = 1_500
FAULT_LEAD = 40
SEED = 7


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


def _pipeline_incident(store):
    feed = StoreReplayFeed(store, performance=_performance(store))
    pipeline = OnlinePipeline(feed, LatencySLO(0.1, sustain=5), seed=SEED)
    incidents = pipeline.run()
    assert len(incidents) == 1 and not pipeline.failures
    return incidents[0]


def _fleet_incident(store, backend="thread"):
    supervisor = FleetSupervisor(FleetConfig(shards=1, backend=backend))
    try:
        supervisor.add_tenant(
            TenantSpec(
                tenant="only",
                detector=LatencySLO(0.1, sustain=5),
                config=FChainConfig(),
                seed=SEED,
            )
        )
        for batch in StoreReplayFeed(
            store, performance=_performance(store)
        ):
            assert supervisor.ingest("only", batch)
    finally:
        supervisor.close()
    assert not supervisor.failures
    incidents = supervisor.incidents.get("only", [])
    assert len(incidents) == 1
    return incidents[0]


class TestFleetOfOne:
    def test_identical_to_online_pipeline(self, faulty_store):
        baseline = _pipeline_incident(faulty_store)
        fleet = _fleet_incident(faulty_store)
        assert fleet.violation_tick == baseline.violation_tick
        assert fleet.dispatched_tick == baseline.dispatched_tick
        assert fleet.quality == baseline.quality
        left, right = fleet.diagnosis, baseline.diagnosis
        assert left.faulty == right.faulty
        assert "c0" in left.faulty
        assert left.external_factor == right.external_factor
        assert left.skipped == right.skipped
        assert left.chain.links == right.chain.links

    def test_process_backend_matches_too(self, faulty_store):
        from repro.fleet.supervisor import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        baseline = _pipeline_incident(faulty_store)
        fleet = _fleet_incident(faulty_store, backend="process")
        assert fleet.violation_tick == baseline.violation_tick
        assert fleet.diagnosis.faulty == baseline.diagnosis.faulty
        assert (
            fleet.diagnosis.chain.links == baseline.diagnosis.chain.links
        )
