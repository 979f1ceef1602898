"""Black-box inter-component dependency discovery from packet traces.

Implements the Sherlock-style approach the paper leverages (ref. [11]):

1. **Flow extraction** — per directed edge, packets are grouped into flows
   separated by idle gaps. Request/reply traffic yields many short flows;
   a continuous data stream yields one endless flow — which is precisely
   why the paper observes that this class of techniques *fails on stream
   processing systems* ("the stream application processes continuous data
   packets, which do not contain gaps between network packets").
2. **Edge acceptance** — an edge with enough distinct flows is a service
   communication edge ``A -> B`` (A depends on B as its backend).
3. **Chain correlation** — for accepted edges, the co-occurrence delay
   between flow starts on ``* -> A`` and ``A -> B`` is estimated, both as
   a sanity signal and to prune edges whose traffic is uncorrelated noise.

The discovery is run *offline* on a profiling trace and the resulting
graph is stored for diagnosis time, exactly as the paper does (Sec. II-C,
footnote 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.cloud.network import PacketTrace


@dataclass(frozen=True)
class Flow:
    """One extracted flow on a directed edge."""

    src: str
    dst: str
    start: float
    end: float
    packets: int


def extract_flows(
    events: Sequence[Tuple[float, int]],
    src: str,
    dst: str,
    gap_threshold: float = 0.1,
) -> List[Flow]:
    """Group one edge's packets into flows.

    Packets sharing a transport flow identity (ephemeral port) belong to
    one flow, further split at idle gaps (a pooled connection reused for
    separate requests). A persistent streaming connection carries a single
    flow identity with no idle gaps, so the whole edge collapses into one
    flow — the degenerate case the paper observes on System S.

    Args:
        events: ``(time, flow_id)`` pairs sorted by time.
        src: Edge source (recorded into the flows).
        dst: Edge destination.
        gap_threshold: Idle seconds that split a reused flow identity
            (100 ms default — far larger than intra-request packet
            spacing, far smaller than inter-request gaps).

    Returns:
        Flows sorted by start time.
    """
    if len(events) == 0:
        return []
    by_flow: Dict[int, List[float]] = {}
    for time, flow_id in events:
        by_flow.setdefault(flow_id, []).append(time)

    flows: List[Flow] = []
    for times in by_flow.values():
        times.sort()
        start = times[0]
        previous = times[0]
        count = 1
        for t in times[1:]:
            if t - previous > gap_threshold:
                flows.append(
                    Flow(src, dst, float(start), float(previous), count)
                )
                start = t
                count = 0
            count += 1
            previous = t
        flows.append(Flow(src, dst, float(start), float(previous), count))
    flows.sort(key=lambda f: f.start)
    return flows


def _co_occurrence(
    upstream_starts: np.ndarray, downstream_starts: np.ndarray, delay: float
) -> float:
    """Fraction of downstream flows starting within ``delay`` of an
    upstream flow start."""
    if len(downstream_starts) == 0 or len(upstream_starts) == 0:
        return 0.0
    idx = np.searchsorted(upstream_starts, downstream_starts, side="right") - 1
    valid = idx >= 0
    gaps = downstream_starts - upstream_starts[np.maximum(idx, 0)]
    hits = int(np.count_nonzero(valid & (gaps <= delay)))
    return hits / len(downstream_starts)


@dataclass
class DiscoveryResult:
    """Outcome of black-box dependency discovery.

    Attributes:
        graph: Directed dependency graph in request-flow direction
            (``A -> B``: A sends requests to / depends on B). External
            clients are excluded.
        flow_counts: Flows extracted per observed edge (diagnostics).
        discovered: False when no dependencies could be extracted at all —
            the stream-processing failure mode.
    """

    graph: nx.DiGraph
    flow_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def discovered(self) -> bool:
        return self.graph.number_of_edges() > 0


def discover_dependencies(
    trace: PacketTrace,
    *,
    gap_threshold: float = 0.1,
    min_flows: int = 20,
    co_occurrence_delay: float = 0.05,
    min_co_occurrence: float = 0.3,
    external_nodes: Tuple[str, ...] = ("client",),
) -> DiscoveryResult:
    """Discover the inter-component dependency graph from a packet trace.

    Args:
        trace: Profiling-run packet trace.
        gap_threshold: Flow-splitting idle gap (seconds).
        min_flows: Minimum distinct flows for an edge to count as a
            request/reply communication edge. A continuous stream yields a
            single flow per edge and is rejected — reproducing the paper's
            observed failure on System S.
        co_occurrence_delay: Window for upstream/downstream flow-start
            correlation.
        min_co_occurrence: Required correlation for edges that have
            upstream traffic (edges from origin services are kept as is).
        external_nodes: Node names treated as external clients; their
            edges inform correlation but are not part of the graph.

    Returns:
        The discovery result.
    """
    flows_by_edge: Dict[Tuple[str, str], List[Flow]] = {}
    for src, dst in trace.edges():
        events = trace.edge_events(src, dst)
        flows_by_edge[(src, dst)] = extract_flows(
            events, src, dst, gap_threshold
        )

    starts_into: Dict[str, List[float]] = {}
    for (src, dst), flows in flows_by_edge.items():
        starts_into.setdefault(dst, []).extend(f.start for f in flows)

    graph = nx.DiGraph()
    flow_counts: Dict[Tuple[str, str], int] = {}
    for (src, dst), flows in flows_by_edge.items():
        flow_counts[(src, dst)] = len(flows)
        if src in external_nodes or dst in external_nodes:
            continue
        if len(flows) < min_flows:
            continue  # gap-free or rare traffic: not a discoverable edge
        upstream = np.asarray(sorted(starts_into.get(src, [])))
        downstream = np.asarray(sorted(f.start for f in flows))
        if len(upstream):
            score = _co_occurrence(upstream, downstream, co_occurrence_delay)
            if score < min_co_occurrence:
                continue
        graph.add_edge(src, dst)
    return DiscoveryResult(graph=graph, flow_counts=flow_counts)


def save_graph(graph: nx.DiGraph, path) -> None:
    """Persist a discovered dependency graph to a JSON file.

    The paper performs discovery offline and stores the result in a file
    for later reference (Sec. II-C footnote 3); this is that file format.
    Edges carrying a ``weight`` attribute (an online-learned confidence,
    see :mod:`repro.core.topology`) are written as ``[src, dst, weight]``
    triples; unweighted edges stay ``[src, dst]`` pairs, so files written
    by older versions round-trip unchanged.
    """
    import json
    import pathlib

    edges = []
    for src, dst in sorted(graph.edges):
        weight = graph.edges[src, dst].get("weight")
        if weight is None:
            edges.append([src, dst])
        else:
            edges.append([src, dst, float(weight)])
    payload = {
        "nodes": sorted(graph.nodes),
        "edges": edges,
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_graph(path) -> nx.DiGraph:
    """Load a dependency graph stored by :func:`save_graph`.

    Accepts both the legacy ``[src, dst]`` edge entries and the weighted
    ``[src, dst, weight]`` extension.
    """
    import json
    import pathlib

    payload = json.loads(pathlib.Path(path).read_text())
    graph = nx.DiGraph()
    graph.add_nodes_from(payload["nodes"])
    for entry in payload["edges"]:
        if len(entry) >= 3:
            graph.add_edge(entry[0], entry[1], weight=float(entry[2]))
        else:
            graph.add_edge(entry[0], entry[1])
    return graph


def propagation_path_exists(
    graph: nx.DiGraph, source: str, target: str
) -> bool:
    """Whether an anomaly could propagate from ``source`` to ``target``.

    Propagation travels along request flow (a faulty backend starves or
    floods its downstream data consumers) or against it (back-pressure
    stalls upstream callers), but not in a zig-zag mixture: formally, a
    directed path must exist in the graph or in its reverse. In the
    paper's Fig. 5, app-server-1 ⇝ app-server-2 has neither, so that
    propagation is spurious; db ⇝ web has a reverse path (back-pressure)
    and is accepted.
    """
    if source == target:
        return True
    if source not in graph or target not in graph:
        return False
    return nx.has_path(graph, source, target) or nx.has_path(
        graph, target, source
    )

