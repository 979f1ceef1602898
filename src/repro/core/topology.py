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

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import networkx as nx
import numpy as np

from repro.common.types import ComponentId
from repro.core.dependency import load_graph, save_graph

Edge = Tuple[ComponentId, ComponentId]


def _doubled(array: np.ndarray) -> np.ndarray:
    """``array`` with twice the rows; the new rows are zero."""
    grown = np.zeros((2 * len(array),) + array.shape[1:], dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class OnlineTopology:
    """Continuously learned weighted dependency graph.

    Each directed edge carries a confidence in ``[0, 1]`` maintained as a
    per-tick exponential moving average of evidence: at every tick,
    ``confidence = decay * confidence + (1 - decay) * evidence`` with
    ``decay = 0.5 ** (1 / halflife)``. Ticks with no evidence contribute
    ``evidence = 0`` — applied lazily, so silent edges cost nothing until
    they are read. An edge observed every tick asymptotes to 1; an edge
    that falls silent halves every ``halflife`` ticks.

    Each piece of evidence is one step: an edge last updated ``gap``
    ticks ago becomes
    ``min(1, stored * decay**max(1, gap) + (1 - decay) * evidence)``.
    When both channels feed the same edge in one tick, the second step
    finds ``gap == 0`` and still decays once, so that edge takes two
    EWMA steps in that tick, not one.

    State is arrays, not per-edge objects. Every component seen (signal
    source or edge endpoint) owns one row of a ``[rows, comovement_window]``
    float64 ring with its own fill counter — a component absent from a
    tick appends nothing, so a row is that component's own sequence, not
    a time-aligned column. Every edge owns one slot of the parallel
    ``_src`` / ``_dst`` (rows), ``_confidence`` and ``_last_update``
    arrays. A tick of either channel is then a handful of numpy calls
    over all of its edges at once.

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
        self._tick: int = 0
        # Components: row index into the signal ring and its fill counter.
        self._rows: Dict[ComponentId, int] = {}
        self._ring = np.zeros((8, self.comovement_window))
        self._filled = np.zeros(8, dtype=np.int64)
        # Edges: slot index into the parallel edge arrays.
        self._edges: Dict[Edge, int] = {}
        self._src = np.zeros(16, dtype=np.intp)
        self._dst = np.zeros(16, dtype=np.intp)
        self._confidence = np.zeros(16)
        self._last_update = np.zeros(16, dtype=np.int64)
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
        return frozenset(self._rows)

    def __len__(self) -> int:
        return len(self._edges)

    def confidence(self, src: ComponentId, dst: ComponentId) -> float:
        """Current confidence of the directed edge ``src -> dst``.

        Applies the lazy decay for ticks since the edge last saw
        evidence; unknown edges have confidence 0.
        """
        index = self._edges.get((src, dst))
        if index is None:
            return 0.0
        silent = self._tick - int(self._last_update[index])
        return float(self._confidence[index]) * self._decay**silent

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def seed(self, graph: nx.DiGraph) -> None:
        """Adopt an offline-discovered graph as the starting topology.

        Edges carrying a stored ``weight`` keep it; others start at full
        confidence. Seeded edges decay and refresh exactly like learned
        ones.
        """
        for node in graph.nodes:
            self._row(node)
        for src, dst, data in graph.edges(data=True):
            weight = float(data.get("weight", 1.0))
            index = self._edge((src, dst))
            self._confidence[index] = min(1.0, max(0.0, weight))
            self._last_update[index] = self._tick

    def observe_traffic(
        self, tick: int, counts: Mapping[Edge, float]
    ) -> None:
        """Feed one tick of per-edge traffic counts.

        Every directed edge with a positive count receives full evidence
        for this tick; every other known edge implicitly receives zero
        evidence through lazy decay.
        """
        self._advance(tick)
        hits = []
        for edge, count in counts.items():
            if count <= 0:
                continue
            hits.append(self._edge(edge))
        if hits:
            self._bump(np.array(hits, dtype=np.intp), 1.0)

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

        Evidence is 0 when either endpoint's changes are constant or the
        correlation is not finite (NaN or infinite samples).
        """
        self._advance(tick)
        rows = list(map(self._rows.get, signals))
        if None in rows:
            rows = [self._row(component) for component in signals]
        rows = np.array(rows, dtype=np.intp)
        window = self.comovement_window
        filled = self._filled
        self._ring[rows, filled[rows] % window] = np.fromiter(
            signals.values(), float, len(rows)
        )
        filled[rows] += 1

        n_rows, n_edges = len(self._rows), len(self._edges)
        full = filled[:n_rows] >= window
        src, dst = self._src[:n_edges], self._dst[:n_edges]
        scored = np.flatnonzero(full[src] & full[dst])
        if not scored.size:
            return
        # Each row oldest-first (a full row's oldest sample sits at its
        # next write position), then its mean-centred changes.
        order = (filled[:n_rows, None] + np.arange(window)) % window
        a, b = src[scored], dst[scored]
        with np.errstate(all="ignore"):
            deltas = np.diff(
                np.take_along_axis(self._ring[:n_rows], order, axis=1), axis=1
            )
            centred = deltas - deltas.mean(axis=1, keepdims=True)
            norms = np.sqrt(np.einsum("ij,ij->i", centred, centred))
            corr = np.einsum("ij,ij->i", centred[a], centred[b]) / (
                norms[a] * norms[b]
            )
        # A constant endpoint has norm 0, so its correlation is 0/0; a
        # NaN or infinite sample makes it NaN.
        evidence = np.where(np.isfinite(corr), np.clip(corr, 0.0, 1.0), 0.0)
        self._bump(scored, evidence)

    def _row(self, component: ComponentId) -> int:
        """The component's ring row, allocated on first sight."""
        row = self._rows.get(component)
        if row is None:
            row = self._rows[component] = len(self._rows)
            if row == len(self._filled):
                self._ring = _doubled(self._ring)
                self._filled = _doubled(self._filled)
        return row

    def _edge(self, edge: Edge) -> int:
        """The edge's slot, allocated on first sight at confidence 0.

        A zero confidence makes the slot's last-update tick irrelevant
        until the caller's first step sets it.
        """
        index = self._edges.get(edge)
        if index is None:
            index = self._edges[edge] = len(self._edges)
            if index == len(self._confidence):
                self._src = _doubled(self._src)
                self._dst = _doubled(self._dst)
                self._confidence = _doubled(self._confidence)
                self._last_update = _doubled(self._last_update)
            src, dst = edge
            self._src[index] = self._row(src)
            self._dst[index] = self._row(dst)
        return index

    def _advance(self, tick: int) -> None:
        if tick > self._tick:
            self._tick = tick

    def _bump(self, index: np.ndarray, evidence) -> None:
        """One EWMA step of the edges at ``index`` toward ``evidence``."""
        # ``gap`` ticks passed since the last evidence; the EWMA step
        # itself advances one of them, leaving ``gap - 1`` silent ticks
        # of pure decay. Folding the step into ``decay**gap`` keeps an
        # every-tick edge asymptoting to 1 instead of double-decaying.
        gap = np.maximum(1, self._tick - self._last_update[index])
        updated = self._confidence[index] * self._decay**gap + (
            1.0 - self._decay
        ) * evidence
        self._confidence[index] = np.minimum(1.0, updated)
        self._last_update[index] = self._tick

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
        graph.add_nodes_from(sorted(self._rows))
        edges = list(self._edges)
        n = len(edges)
        silent = self._tick - self._last_update[:n]
        weights = self._confidence[:n] * self._decay**silent
        kept = np.flatnonzero((weights >= cutoff) & (weights > 0.0))
        graph.add_weighted_edges_from(
            sorted((*edges[i], float(weights[i])) for i in kept)
        )
        return graph

    def save(self, path) -> None:
        """Persist the current weighted snapshot (``save_graph`` format).

        Only what :meth:`graph` holds is written: the nodes and the edges
        at or above ``min_confidence`` with their current weight. Ticks
        and co-movement windows are not; pickling keeps the whole
        learner.
        """
        save_graph(self.graph(), path)

    @classmethod
    def load(cls, path, **kwargs) -> "OnlineTopology":
        """Restore a learner from a snapshot written by :meth:`save`.

        Stored edge weights become the starting confidences; learning
        resumes from tick 0 with empty co-movement windows.
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
