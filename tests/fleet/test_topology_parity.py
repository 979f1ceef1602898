"""Topology-guided diagnosis inside the fleet layer.

A tenant whose spec enables topology learning must name the same
culprits a full-fan-out diagnosis names on the identical mesh feed —
scoping changes the work, never the verdict — and its learned graph
must relocate wholesale with the tenant snapshot instead of re-learning
from scratch on the target shard, co-movement windows included.
"""

import itertools
import pickle

import pytest

from repro.apps.mesh import MeshApplication
from repro.common.types import Metric
from repro.core.config import FChainConfig
from repro.faults.library import BottleneckFault
from repro.fleet.tenant import TenantRuntime, TenantSpec
from repro.monitoring.slo import LatencySLO
from repro.service.sources import SimFeed

SEED = 7
SERVICES = 20
FAULT_AT = 600
TICKS = 700


def _mesh():
    app = MeshApplication(seed=SEED, services=SERVICES, duration=1200)
    target = app.default_fault_target()
    app.inject(
        BottleneckFault(FAULT_AT, target, cap=app.bottleneck_cap(target))
    )
    return app, target


def _spec(app, config, *, halflife=None, origin=None):
    return TenantSpec(
        tenant="mesh",
        detector=LatencySLO(app.slo_threshold, sustain=10),
        config=config,
        seed=SEED,
        topology_halflife=halflife,
        origin=origin,
    )


def _run(runtime, app):
    incidents = []
    for batch in SimFeed(app, duration=TICKS):
        for trigger in runtime.process(batch):
            incidents.append(runtime.diagnose(trigger))
    return incidents


@pytest.fixture(scope="module")
def scoped_and_full():
    app, target = _mesh()
    scoped_rt = TenantRuntime(
        _spec(
            app,
            FChainConfig(topology_mode="neighborhood", topology_top_k=10),
            halflife=300.0,
            origin=app.gateway,
        )
    )
    scoped = _run(scoped_rt, app)

    app2, _ = _mesh()
    full_rt = TenantRuntime(_spec(app2, FChainConfig()))
    full = _run(full_rt, app2)
    return scoped_rt, scoped, full_rt, full, target


class TestFleetTopologyParity:
    def test_scoped_tenant_matches_full_fanout(self, scoped_and_full):
        scoped_rt, scoped, full_rt, full, target = scoped_and_full
        assert len(scoped) == len(full) == 1
        left, right = scoped[0], full[0]
        assert left.violation_tick == right.violation_tick
        assert left.diagnosis.faulty == right.diagnosis.faulty
        assert target in left.diagnosis.faulty
        assert left.diagnosis.chain.links == right.diagnosis.chain.links

    def test_scoped_tenant_analyzed_strict_subset(self, scoped_and_full):
        scoped_rt, scoped, *_ = scoped_and_full
        diagnosis = scoped[0].diagnosis
        assert not diagnosis.escalated
        assert len(diagnosis.analyzed) == 10
        assert diagnosis.analyzed < frozenset(scoped_rt.store.components)

    def test_tenant_without_halflife_learns_nothing(self, scoped_and_full):
        _, _, full_rt, _, _ = scoped_and_full
        assert full_rt.topology is None
        assert full_rt.fchain.master.topology is None

    def test_topology_relocates_with_snapshot(self, scoped_and_full):
        scoped_rt, *_ = scoped_and_full
        snapshot = pickle.loads(pickle.dumps(scoped_rt.export_state()))
        restored = TenantRuntime.from_state(snapshot)
        try:
            original = scoped_rt.topology.graph()
            relocated = restored.topology.graph()
            assert list(relocated.edges(data="weight")) == list(
                original.edges(data="weight")
            )
            # Diagnosis on the target shard uses the relocated graph.
            assert restored.fchain.master.topology is restored.topology

            # The learner's windows travel too, not just its graph: both
            # copies keep learning identically on the ticks that follow.
            app, _ = _mesh()
            later = itertools.islice(
                SimFeed(app, duration=TICKS + 50), TICKS, None
            )
            for batch in later:
                for topology in (scoped_rt.topology, restored.topology):
                    _learn(topology, batch)
            stayed, moved = scoped_rt.topology, restored.topology
            assert moved.tick == stayed.tick == TICKS + 49
            assert len(moved) == len(stayed)
            for src, dst in stayed.graph(min_confidence=0.0).edges:
                assert moved.confidence(src, dst) == stayed.confidence(src, dst)
        finally:
            scoped_rt.close()


def _learn(topology, batch):
    """Feed one tick to a learner the way the tick core does."""
    if batch.edges:
        topology.observe_traffic(batch.time, batch.edges)
    topology.observe_comovement(
        batch.time,
        {
            sample.component: sample.value
            for sample in batch.samples
            if sample.metric == Metric.NETWORK_OUT
        },
    )
