"""End-to-end online localization against the real diagnosis engine.

One module-scoped synthetic store (step fault on ``c0`` near the end)
drives every test: the online loop must raise exactly one incident
naming the culprit, and the verdict must match what the offline
``FChain.localize`` entry point produces on the same clean data.
"""

import pytest

from repro.core.config import FChainConfig
from repro.core.fchain import FChain
from repro.eval.bench import synthetic_store
from repro.monitoring.slo import LatencySLO
from repro.service import OnlinePipeline, StoreReplayFeed

SAMPLES = 1_500
FAULT_LEAD = 40


@pytest.fixture(scope="module")
def faulty_store():
    return synthetic_store(
        samples=SAMPLES, components=4, metrics=2, seed=7,
        fault_lead=FAULT_LEAD,
    )


def _performance(store):
    """Healthy latency until the fault manifests, then a breach."""
    onset = store.end - FAULT_LEAD + 5
    return {
        t: (0.5 if t >= onset else 0.01)
        for t in range(store.start, store.end)
    }


def _run_pipeline(store):
    feed = StoreReplayFeed(store, performance=_performance(store))
    pipeline = OnlinePipeline(feed, LatencySLO(0.1, sustain=5), seed=7)
    incidents = pipeline.run()
    return pipeline, incidents


class TestOnlineLocalization:
    def test_one_incident_with_correct_culprit(self, faulty_store):
        pipeline, incidents = _run_pipeline(faulty_store)
        assert pipeline.triggered == 1
        assert pipeline.dropped == 0
        assert not pipeline.failures
        assert len(incidents) == 1
        assert "c0" in incidents[0].faulty
        assert incidents[0].quality == "full"

    def test_online_matches_offline_verdict(self, faulty_store):
        """The loop's verdict is bit-identical to offline localization."""
        _, incidents = _run_pipeline(faulty_store)
        incident = incidents[0]
        offline_engine = FChain(FChainConfig(), None, seed=7)
        try:
            offline = offline_engine.localize(
                faulty_store, violation_time=incident.violation_tick
            )
        finally:
            offline_engine.close()
        online = incident.diagnosis
        assert online.faulty == offline.faulty
        assert online.external_factor == offline.external_factor
        assert online.skipped == offline.skipped
        assert online.chain.links == offline.chain.links

