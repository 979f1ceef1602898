"""Tests for the online learned topology and topology-guided scoping."""

import networkx as nx
import pytest

from repro.apps.mesh import MeshApplication
from repro.core.config import FChainConfig
from repro.core.fchain import FChain
from repro.core.topology import (
    OnlineTopology,
    neighborhood_complete,
    rank_candidates,
)
from repro.faults.library import BottleneckFault


class TestOnlineTopology:
    def test_traffic_evidence_raises_confidence(self):
        topo = OnlineTopology(halflife=10.0)
        for t in range(100):
            topo.observe_traffic(t, {("a", "b"): 5.0})
        assert topo.confidence("a", "b") > 0.95
        assert topo.confidence("b", "a") == 0.0

    def test_silence_halves_confidence_per_halflife(self):
        topo = OnlineTopology(halflife=20.0)
        for t in range(200):
            topo.observe_traffic(t, {("a", "b"): 5.0})
        before = topo.confidence("a", "b")
        topo.observe_traffic(199 + 20, {("x", "y"): 1.0})
        assert topo.confidence("a", "b") == pytest.approx(before / 2, rel=0.05)

    def test_inactive_edge_not_created(self):
        topo = OnlineTopology()
        topo.observe_traffic(0, {("a", "b"): 0.0})
        assert len(topo) == 0

    def test_comovement_corroborates_known_edges_only(self):
        topo = OnlineTopology(halflife=10.0, comovement_window=8)
        topo.observe_traffic(0, {("a", "b"): 5.0})
        start = topo.confidence("a", "b")
        # Perfectly co-moving signals on a, b and an unrelated pair c, d.
        for t in range(1, 40):
            topo.observe_comovement(
                t, {"a": float(t % 7), "b": float(t % 7),
                    "c": float(t % 5), "d": float(t % 5)}
            )
        assert topo.confidence("a", "b") > start
        # Correlation alone cannot orient an edge: c -> d never appears.
        assert topo.confidence("c", "d") == 0.0

    def test_seed_then_decay(self):
        seed = nx.DiGraph()
        seed.add_edge("a", "b", weight=0.8)
        topo = OnlineTopology(halflife=5.0, seed_graph=seed)
        assert topo.confidence("a", "b") == pytest.approx(0.8)
        topo.observe_traffic(50, {("x", "y"): 1.0})
        assert topo.confidence("a", "b") < 0.01
        assert not topo.graph().has_edge("a", "b")

    def test_save_load_round_trip(self, tmp_path):
        topo = OnlineTopology(halflife=50.0)
        for t in range(100):
            topo.observe_traffic(
                t, {("a", "b"): 5.0, ("b", "c"): 3.0}
            )
        path = tmp_path / "topology.json"
        topo.save(path)
        restored = OnlineTopology.load(path, halflife=50.0)
        for edge in (("a", "b"), ("b", "c")):
            assert restored.confidence(*edge) == pytest.approx(
                topo.confidence(*edge), rel=1e-6
            )

    def test_graph_cutoff_drops_decayed_edges(self):
        topo = OnlineTopology(halflife=5.0, min_confidence=0.05)
        topo.observe_traffic(0, {("a", "b"): 5.0})
        topo.observe_traffic(100, {("x", "y"): 5.0})
        graph = topo.graph()
        assert not graph.has_edge("a", "b")
        # The node itself is remembered even when its edges decayed away.
        assert "a" in graph


class TestRankCandidates:
    def graph(self):
        g = nx.DiGraph()
        g.add_edge("gw", "a", weight=0.9)
        g.add_edge("gw", "b", weight=0.3)
        g.add_edge("a", "deep", weight=0.9)
        return g

    def test_origin_first_distance_then_confidence(self):
        ranked = rank_candidates(
            self.graph(), "gw", ["deep", "b", "a", "gw"]
        )
        assert ranked[0] == "gw"
        # Both a and b sit one hop out; a's hop carries more confidence.
        assert ranked[1:3] == ["a", "b"]
        assert ranked[3] == "deep"

    def test_unknown_components_rank_last(self):
        ranked = rank_candidates(
            self.graph(), "gw", ["island2", "a", "island1"]
        )
        assert ranked == ["gw", "a", "island1", "island2"]

    def test_unknown_origin_still_leads(self):
        ranked = rank_candidates(self.graph(), "ghost", ["a", "b"])
        assert ranked[0] == "ghost"

    def test_backpressure_counts_reverse_edges(self):
        # deep -> a -> gw only exists in the forward direction, but
        # propagation travels against request flow too.
        ranked = rank_candidates(self.graph(), "deep", ["gw", "a", "b"])
        assert ranked == ["deep", "a", "gw", "b"]


class TestNeighborhoodComplete:
    def test_interior_abnormal_is_complete(self):
        g = nx.DiGraph([("gw", "a"), ("a", "deep")])
        assert neighborhood_complete(g, ["a"], ["gw", "a", "deep"])

    def test_frontier_abnormal_is_incomplete(self):
        g = nx.DiGraph([("gw", "a"), ("a", "deep")])
        assert not neighborhood_complete(g, ["a"], ["gw", "a"])

    def test_unknown_abnormal_is_tolerated(self):
        g = nx.DiGraph([("gw", "a")])
        assert neighborhood_complete(g, ["island"], ["gw"])


@pytest.fixture(scope="module")
def mesh_run():
    """A 20-service mesh with a bottleneck on the canonical target,
    plus the topology learned live from its edge traffic."""
    app = MeshApplication(seed=7, services=20, duration=1200)
    target = app.default_fault_target()
    app.inject(
        BottleneckFault(600, target, cap=app.bottleneck_cap(target))
    )
    topology = OnlineTopology(halflife=300.0)
    for t in range(700):
        app.tick(t)
        app.time += 1
        topology.observe_traffic(t, app.edge_traffic())
    violation = app.slo.first_violation_after(600)
    assert violation is not None
    return app, topology, target, violation


class TestTopologyGuidedDiagnosis:
    def test_scoped_matches_full_fanout_on_strict_subset(self, mesh_run):
        app, topology, target, violation = mesh_run
        full = FChain(FChainConfig(), seed=7).localize(
            app.store, violation_time=violation
        )
        scoped = FChain(
            FChainConfig(topology_mode="neighborhood", topology_top_k=8),
            seed=7,
            topology=topology,
        ).localize(app.store, violation_time=violation, origin=app.gateway)
        assert target in full.faulty
        assert scoped.faulty == full.faulty
        assert not scoped.escalated
        assert len(scoped.analyzed) == 8
        assert scoped.analyzed < frozenset(app.store.components)

    def test_culprit_outside_top_k_widens_never_misses(self, mesh_run):
        app, topology, target, violation = mesh_run
        # Rank from the far end of the mesh with a tiny K, so the true
        # culprit falls outside the analysed neighborhood.
        far_origin = app.layers[-1][-1]
        ranked = rank_candidates(
            topology.graph(), far_origin, app.store.components
        )
        assert target not in ranked[:4]
        scoped = FChain(
            FChainConfig(topology_mode="neighborhood", topology_top_k=4),
            seed=7,
            topology=topology,
        ).localize(app.store, violation_time=violation, origin=far_origin)
        assert scoped.escalated
        assert target in scoped.faulty
        assert scoped.analyzed == frozenset(app.store.components)

    def test_full_mode_ignores_origin(self, mesh_run):
        app, topology, target, violation = mesh_run
        with_origin = FChain(
            FChainConfig(), seed=7, topology=topology
        ).localize(app.store, violation_time=violation, origin=app.gateway)
        assert with_origin.analyzed is None
        assert not with_origin.escalated
        assert target in with_origin.faulty
