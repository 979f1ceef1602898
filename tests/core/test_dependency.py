"""Tests for black-box dependency discovery."""

import networkx as nx

from repro.cloud.network import PacketEvent, PacketTrace, SyntheticPacketizer
import pytest

from repro.core.dependency import (
    discover_dependencies,
    extract_flows,
    load_graph,
    propagation_path_exists,
    save_graph,
)


class TestFlowExtraction:
    def test_distinct_flow_ids(self):
        events = [(0.0, 1), (0.001, 1), (5.0, 2), (5.001, 2)]
        flows = extract_flows(events, "a", "b")
        assert len(flows) == 2
        assert flows[0].packets == 2

    def test_gap_splits_reused_flow(self):
        events = [(0.0, 1), (0.01, 1), (10.0, 1), (10.01, 1)]
        flows = extract_flows(events, "a", "b", gap_threshold=0.1)
        assert len(flows) == 2

    def test_continuous_stream_single_flow(self):
        events = [(i * 0.01, 0) for i in range(1000)]
        flows = extract_flows(events, "a", "b", gap_threshold=0.1)
        assert len(flows) == 1

    def test_empty(self):
        assert extract_flows([], "a", "b") == []

    def test_sorted_by_start(self):
        events = [(5.0, 2), (0.0, 1)]
        flows = extract_flows(events, "a", "b")
        assert flows[0].start <= flows[1].start


class TestDiscovery:
    def _request_trace(self):
        trace = PacketTrace()
        pkt = SyntheticPacketizer(trace, streaming=False, seed_parts=("d", 1))
        for t in range(120):
            pkt.emit_path(t, [("client", "web"), ("web", "db")], 8.0)
        return trace

    def test_request_reply_graph_recovered(self):
        result = discover_dependencies(self._request_trace())
        assert result.discovered
        assert ("web", "db") in result.graph.edges
        assert "client" not in result.graph

    def test_streaming_trace_fails(self):
        trace = PacketTrace()
        pkt = SyntheticPacketizer(trace, streaming=True, seed_parts=("d", 2))
        for t in range(120):
            pkt.emit(t, "pe1", "pe2", 40.0)
        result = discover_dependencies(trace)
        assert not result.discovered
        assert result.flow_counts[("pe1", "pe2")] == 1

    def test_rare_traffic_rejected(self):
        trace = PacketTrace()
        trace.extend(
            [PacketEvent(float(i), "a", "b", flow=i) for i in range(5)]
        )
        result = discover_dependencies(trace, min_flows=20)
        assert not result.discovered

    def test_empty_trace(self):
        result = discover_dependencies(PacketTrace())
        assert not result.discovered


class TestPropagationPaths:
    def _graph(self):
        g = nx.DiGraph()
        g.add_edges_from([("web", "app1"), ("web", "app2"), ("app1", "db"),
                          ("app2", "db")])
        return g

    def test_downstream_path(self):
        assert propagation_path_exists(self._graph(), "web", "db")

    def test_back_pressure_reverse_path(self):
        assert propagation_path_exists(self._graph(), "db", "web")

    def test_siblings_have_no_path(self):
        """Fig. 5: app1 -> app2 propagation is spurious."""
        assert not propagation_path_exists(self._graph(), "app1", "app2")

    def test_self_path(self):
        assert propagation_path_exists(self._graph(), "db", "db")

    def test_unknown_node(self):
        assert not propagation_path_exists(self._graph(), "web", "ghost")


class TestWeightedGraphIO:
    def test_weighted_round_trip(self, tmp_path):
        g = nx.DiGraph()
        g.add_edge("web", "app1", weight=0.75)
        g.add_edge("app1", "db")  # unweighted edges stay pairs
        path = tmp_path / "graph.json"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.edges["web", "app1"]["weight"] == pytest.approx(0.75)
        assert "weight" not in loaded.edges["app1", "db"]
