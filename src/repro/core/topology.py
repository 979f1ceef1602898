"""Online learned, weighted dependency topology.

The paper discovers the inter-component dependency graph *offline* from a
profiling packet trace (Sec. II-C) and stores it in a file for diagnosis
time. This module promotes that artifact to a continuously learned one:
an :class:`OnlineTopology` watches normal operation tick by tick and
maintains a per-edge *confidence* in ``[0, 1]`` with exponential decay —
fresh traffic-correlation or metric co-movement evidence pushes an edge's
confidence toward 1, silence decays it toward 0, so the graph tracks
deployments, traffic shifts and retired call paths without a re-profiling
run (the direction of arXiv 2509.05511's end-to-end service topology).

Two evidence channels feed the learner:

* :meth:`OnlineTopology.observe_traffic` — per-tick packet/request counts
  per directed edge (the cheap channel when the platform exports edge
  traffic, e.g. the simulator's packet trace or a service mesh's
  telemetry);
* :meth:`OnlineTopology.observe_comovement` — per-tick metric values per
  component; candidate edges are corroborated by the correlation of the
  two endpoints' recent *changes* (the black-box channel when only
  per-VM metrics are visible, FChain's own observability assumption).

The learned graph plugs into diagnosis twice:

* its snapshot (:meth:`OnlineTopology.graph`) replaces the static
  dependency graph in ``pinpoint_faulty_components``: the
  spurious-propagation pruning is plain reachability over the edges still
  above ``min_confidence``, so decayed-away edges stop explaining
  anomalies, and
* :func:`rank_candidates` orders components by graph distance from the
  SLO-violating origin so the master can dispatch slaves for the top-K
  propagation neighborhood only, escalating to a full analysis whenever
  :func:`neighborhood_complete` shows the scoped result could have missed
  a culprit outside the frontier.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from repro.common.types import ComponentId
from repro.core.dependency import load_graph, save_graph

Edge = Tuple[ComponentId, ComponentId]


class OnlineTopology:
    """Continuously learned weighted dependency graph.

    Each directed edge carries a confidence in ``[0, 1]`` maintained as a
    per-tick exponential moving average of evidence: at every tick,
    ``confidence = decay * confidence + (1 - decay) * evidence`` with
    ``decay = 0.5 ** (1 / halflife)``. Ticks with no evidence contribute
    ``evidence = 0`` — applied lazily, so silent edges cost nothing until
    they are read. An edge observed every tick asymptotes to 1; an edge
    that falls silent halves every ``halflife`` ticks.

    Args:
        halflife: Ticks of silence after which an edge's confidence
            halves (and the averaging window of the evidence EWMA).
        min_confidence: Default cutoff below which edges are omitted from
            :meth:`graph` snapshots (decayed-away edges disappear).
        comovement_window: Samples of per-component signal history kept
            for the co-movement correlation channel.
        seed_graph: Offline-discovered graph (``discover_dependencies``)
            to seed the learner with; seeded edges start at their stored
            ``weight`` (1.0 without one) and then decay / refresh like
            any learned edge.
    """

    def __init__(
        self,
        *,
        halflife: float = 600.0,
        min_confidence: float = 0.05,
        comovement_window: int = 32,
        seed_graph: Optional[nx.DiGraph] = None,
    ) -> None:
        if halflife <= 0:
            raise ValueError("halflife must be positive")
        if not 0.0 <= min_confidence <= 1.0:
            raise ValueError("min_confidence must be in [0, 1]")
        if comovement_window < 4:
            raise ValueError("comovement_window must be >= 4")
        self.halflife = float(halflife)
        self.min_confidence = float(min_confidence)
        self.comovement_window = int(comovement_window)
        self._decay = 0.5 ** (1.0 / self.halflife)
        self._confidence: Dict[Edge, float] = {}
        self._last_update: Dict[Edge, int] = {}
        self._nodes: set = set()
        self._tick: int = 0
        self._signals: Dict[ComponentId, Deque[float]] = {}
        if seed_graph is not None:
            self.seed(seed_graph)

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """Latest tick the learner has observed."""
        return self._tick

    @property
    def nodes(self) -> frozenset:
        """Every component the learner has seen (as node or endpoint)."""
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._confidence)

    def confidence(self, src: ComponentId, dst: ComponentId) -> float:
        """Current confidence of the directed edge ``src -> dst``.

        Applies the lazy decay for ticks since the edge last saw
        evidence; unknown edges have confidence 0.
        """
        edge = (src, dst)
        stored = self._confidence.get(edge)
        if stored is None:
            return 0.0
        silent = self._tick - self._last_update[edge]
        return stored * self._decay**silent if silent > 0 else stored

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def seed(self, graph: nx.DiGraph) -> None:
        """Adopt an offline-discovered graph as the starting topology.

        Edges carrying a stored ``weight`` keep it; others start at full
        confidence. Seeded edges decay and refresh exactly like learned
        ones.
        """
        self._nodes.update(graph.nodes)
        for src, dst, data in graph.edges(data=True):
            weight = float(data.get("weight", 1.0))
            edge = (src, dst)
            self._confidence[edge] = min(1.0, max(0.0, weight))
            self._last_update[edge] = self._tick

    def observe_traffic(
        self, tick: int, counts: Mapping[Edge, float]
    ) -> None:
        """Feed one tick of per-edge traffic counts.

        Every directed edge with a positive count receives full evidence
        for this tick; every other known edge implicitly receives zero
        evidence through lazy decay.
        """
        self._advance(tick)
        for (src, dst), count in counts.items():
            if count <= 0:
                continue
            self._nodes.add(src)
            self._nodes.add(dst)
            self._bump((src, dst), 1.0)

    def observe_comovement(
        self, tick: int, signals: Mapping[ComponentId, float]
    ) -> None:
        """Feed one tick of per-component metric signals.

        Appends each signal to the component's rolling window and, for
        every *known* edge whose endpoints both have full windows,
        uses the positive correlation of the two endpoints' recent
        changes as this tick's evidence. Co-movement corroborates (or
        decays) edges that exist — from the offline seed or the traffic
        channel — it does not invent new ones: correlation alone cannot
        orient an edge, and all-pairs scanning is quadratic.
        """
        self._advance(tick)
        for component, value in signals.items():
            self._nodes.add(component)
            window = self._signals.get(component)
            if window is None:
                window = deque(maxlen=self.comovement_window)
                self._signals[component] = window
            window.append(float(value))
        for edge in list(self._confidence):
            src, dst = edge
            evidence = self._delta_correlation(src, dst)
            if evidence is None:
                continue
            self._bump(edge, evidence)

    def _delta_correlation(
        self, src: ComponentId, dst: ComponentId
    ) -> Optional[float]:
        """Positive Pearson correlation of the endpoints' signal deltas,
        or None when either window is not full yet."""
        a = self._signals.get(src)
        b = self._signals.get(dst)
        if (
            a is None
            or b is None
            or len(a) < self.comovement_window
            or len(b) < self.comovement_window
        ):
            return None
        da = np.diff(np.asarray(a, dtype=float))
        db = np.diff(np.asarray(b, dtype=float))
        sa = float(da.std())
        sb = float(db.std())
        if sa <= 0.0 or sb <= 0.0:
            return 0.0
        corr = float(np.corrcoef(da, db)[0, 1])
        if not np.isfinite(corr):
            return 0.0
        return max(0.0, corr)

    def _advance(self, tick: int) -> None:
        if tick > self._tick:
            self._tick = tick

    def _bump(self, edge: Edge, evidence: float) -> None:
        stored = self._confidence.get(edge, 0.0)
        last = self._last_update.get(edge, self._tick)
        # ``gap`` ticks passed since the last evidence; the EWMA step
        # itself advances one of them, leaving ``gap - 1`` silent ticks
        # of pure decay. Folding the step into ``decay**gap`` keeps an
        # every-tick edge asymptoting to 1 instead of double-decaying.
        gap = max(1, self._tick - last)
        updated = stored * self._decay**gap + (
            1.0 - self._decay
        ) * float(evidence)
        self._confidence[edge] = min(1.0, updated)
        self._last_update[edge] = self._tick

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def graph(self, min_confidence: Optional[float] = None) -> nx.DiGraph:
        """Weighted snapshot of the current topology.

        Every node the learner has seen is included; edges with current
        confidence at least ``min_confidence`` (default: the learner's
        cutoff) appear with their confidence as the ``weight`` attribute
        — the format the extended ``save_graph`` understands.
        """
        cutoff = self.min_confidence if min_confidence is None else min_confidence
        graph = nx.DiGraph()
        graph.add_nodes_from(sorted(self._nodes))
        for (src, dst) in sorted(self._confidence):
            weight = self.confidence(src, dst)
            if weight >= cutoff and weight > 0.0:
                graph.add_edge(src, dst, weight=weight)
        return graph

    def save(self, path) -> None:
        """Persist the current weighted snapshot (``save_graph`` format)."""
        save_graph(self.graph(), path)

    @classmethod
    def load(cls, path, **kwargs) -> "OnlineTopology":
        """Restore a learner from a snapshot written by :meth:`save`.

        Stored edge weights become the starting confidences; learning
        resumes from tick 0.
        """
        return cls(seed_graph=load_graph(path), **kwargs)

    # ------------------------------------------------------------------
    # Candidate ranking
    # ------------------------------------------------------------------
    def neighborhood(
        self,
        origin: ComponentId,
        components: Iterable[ComponentId],
        k: Optional[int] = None,
    ) -> List[ComponentId]:
        """Components ranked by propagation distance from ``origin``.

        Delegates to :func:`rank_candidates` on the current snapshot;
        ``k`` truncates the ranking (None returns it whole).
        """
        ranked = rank_candidates(self.graph(), origin, components)
        return ranked if k is None else ranked[: max(1, k)]


def rank_candidates(
    graph: nx.DiGraph,
    origin: ComponentId,
    components: Iterable[ComponentId],
) -> List[ComponentId]:
    """Rank ``components`` by graph distance from ``origin``.

    Distance is undirected hop count — propagation travels with request
    flow and against it (back-pressure), so both directions count. Ties
    break by best path confidence (product of edge ``weight`` attributes,
    treating each undirected hop as the better of its two directions),
    then by name for determinism. Components the graph knows nothing
    about rank last (sorted): they cannot be reached by any learned
    propagation path, but they are not ruled out — the caller's
    escalation logic covers them.

    The origin always ranks first, whether or not the graph knows it.
    """
    components = list(dict.fromkeys(components))
    if origin not in components:
        components = [origin] + components
    member = set(components)

    # Undirected adjacency with per-hop best confidence.
    adjacency: Dict[ComponentId, Dict[ComponentId, float]] = {}
    for src, dst, data in graph.edges(data=True):
        weight = float(data.get("weight", 1.0))
        adjacency.setdefault(src, {})
        adjacency.setdefault(dst, {})
        adjacency[src][dst] = max(adjacency[src].get(dst, 0.0), weight)
        adjacency[dst][src] = max(adjacency[dst].get(src, 0.0), weight)

    distance: Dict[ComponentId, int] = {origin: 0}
    path_conf: Dict[ComponentId, float] = {origin: 1.0}
    frontier = [origin]
    hops = 0
    while frontier:
        hops += 1
        next_frontier: Dict[ComponentId, float] = {}
        for node in frontier:
            for neighbor, weight in adjacency.get(node, {}).items():
                if neighbor in distance:
                    continue
                candidate = path_conf[node] * weight
                if candidate > next_frontier.get(neighbor, -1.0):
                    next_frontier[neighbor] = candidate
        for neighbor, conf in next_frontier.items():
            distance[neighbor] = hops
            path_conf[neighbor] = conf
        frontier = sorted(next_frontier)

    reached = [c for c in components if c in distance]
    reached.sort(key=lambda c: (distance[c], -path_conf[c], c))
    unreached = sorted(c for c in components if c not in distance)
    ranked = reached + unreached
    # The origin leads even when the graph does not know it.
    ranked.remove(origin)
    return [origin] + [c for c in ranked if c in member]


def neighborhood_complete(
    graph: nx.DiGraph,
    abnormal: Iterable[ComponentId],
    analyzed: Iterable[ComponentId],
) -> bool:
    """Whether a scoped analysis covered every plausible propagation hop.

    True when every undirected graph neighbor of every abnormal component
    was itself analysed — no anomaly sits at the frontier of the analysed
    set with an unexamined neighbor its anomaly could have arrived from
    (or spread to). When False, a culprit outside the neighborhood cannot
    be ruled out and the caller must widen the search.
    """
    analyzed_set = set(analyzed)
    for component in abnormal:
        if component not in graph:
            continue
        neighbors = set(graph.successors(component)) | set(
            graph.predecessors(component)
        )
        if not neighbors <= analyzed_set:
            return False
    return True


__all__ = [
    "OnlineTopology",
    "neighborhood_complete",
    "rank_candidates",
]
