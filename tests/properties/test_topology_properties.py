"""Property-based proof that the array-backed topology learner is the
per-edge rule it replaced.

:class:`~repro.core.topology.OnlineTopology` keeps its state as arrays —
one signal ring row per component, parallel confidence / last-update
arrays per edge — and scores every known edge of a tick at once. The
reference below is the per-edge learner written out plainly: a dict of
confidences, a deque of signals per component, one ``np.corrcoef`` and
one scalar EWMA step per edge. Whatever schedule of ticks both are fed,
every edge's confidence must agree within 1e-12, every last-update tick
exactly, and ``graph()`` must hold the same edges.

The strategies aim at the places the vectorised path could diverge:
components that skip ticks (rows fill unevenly, so some edges have one
full endpoint and one not), constant and linearly ramping components
(zero-variance changes), NaN and ±inf samples, edges the traffic channel
adds mid-stream next to seeded ones, and ticks that repeat or go
backwards (the learner's clock only moves forward).
"""

import math
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.topology import OnlineTopology

COMPONENTS = [f"c{i}" for i in range(10)]  # more than the initial 8 ring rows
TOLERANCE = 1e-12


class _Reference:
    """The per-edge learner: dict state and one step per edge."""

    def __init__(self, *, halflife, comovement_window, seed_graph=None):
        self.min_confidence = 0.05
        self.window = comovement_window
        self.decay = 0.5 ** (1.0 / halflife)
        self.confidence_of = {}
        self.last_update = {}
        self.nodes = set()
        self.tick = 0
        self.signals = {}
        if seed_graph is not None:
            self.nodes.update(seed_graph.nodes)
            for src, dst, data in seed_graph.edges(data=True):
                weight = float(data.get("weight", 1.0))
                self.confidence_of[(src, dst)] = min(1.0, max(0.0, weight))
                self.last_update[(src, dst)] = self.tick

    def confidence(self, src, dst):
        stored = self.confidence_of.get((src, dst))
        if stored is None:
            return 0.0
        silent = self.tick - self.last_update[(src, dst)]
        return stored * self.decay**silent if silent > 0 else stored

    def observe_traffic(self, tick, counts):
        self.tick = max(self.tick, tick)
        for (src, dst), count in counts.items():
            if count <= 0:
                continue
            self.nodes.update((src, dst))
            self._bump((src, dst), 1.0)

    def observe_comovement(self, tick, signals):
        self.tick = max(self.tick, tick)
        for component, value in signals.items():
            self.nodes.add(component)
            window = self.signals.setdefault(component, deque(maxlen=self.window))
            window.append(float(value))
        for edge in list(self.confidence_of):
            evidence = self._delta_correlation(*edge)
            if evidence is not None:
                self._bump(edge, evidence)

    def _delta_correlation(self, src, dst):
        a = self.signals.get(src)
        b = self.signals.get(dst)
        if a is None or b is None or len(a) < self.window or len(b) < self.window:
            return None
        with np.errstate(all="ignore"):
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

    def _bump(self, edge, evidence):
        stored = self.confidence_of.get(edge, 0.0)
        last = self.last_update.get(edge, self.tick)
        gap = max(1, self.tick - last)
        updated = stored * self.decay**gap + (1.0 - self.decay) * float(evidence)
        self.confidence_of[edge] = min(1.0, updated)
        self.last_update[edge] = self.tick

    def graph_edges(self):
        return {
            edge
            for edge in self.confidence_of
            if self.confidence(*edge) >= self.min_confidence
            and self.confidence(*edge) > 0.0
        }


def _assert_same(learner, reference):
    assert len(learner) == len(reference.confidence_of)
    assert learner.tick == reference.tick
    assert learner.nodes == frozenset(reference.nodes)
    for edge, index in learner._edges.items():
        assert learner.confidence(*edge) == pytest.approx(
            reference.confidence(*edge), abs=TOLERANCE, rel=0
        ), edge
        assert int(learner._last_update[index]) == reference.last_update[edge]
    assert set(learner.graph().edges) == reference.graph_edges()


edges = st.tuples(st.sampled_from(COMPONENTS), st.sampled_from(COMPONENTS))

# Exact quarter-steps three times in four, NaN or ±inf otherwise: often
# enough to poison some windows, rarely enough to leave others clean.
grid = st.integers(-40, 40).map(lambda v: v / 4.0)
samples = st.one_of(
    grid, grid, grid, st.sampled_from([math.nan, math.inf, -math.inf])
)

# How each component emits: a drawn sample, one constant value, or a
# ramp (constant changes) — the last two have zero-variance deltas.
styles = st.lists(
    st.sampled_from(["free", "free", "constant", "ramp"]),
    min_size=len(COMPONENTS),
    max_size=len(COMPONENTS),
)

traffic_step = st.tuples(
    st.just("traffic"),
    st.integers(-2, 3),
    st.dictionaries(edges, st.sampled_from([-1.0, 0.0, 1.0, 4.0]), max_size=6),
)

comovement_step = st.tuples(
    st.just("comovement"),
    st.integers(-2, 3),
    st.dictionaries(st.sampled_from(COMPONENTS), samples, max_size=len(COMPONENTS)),
)

schedules = st.lists(
    st.one_of(traffic_step, comovement_step, comovement_step), max_size=60
)

seeds = st.dictionaries(
    edges, st.one_of(st.none(), st.floats(0.0, 1.5)), max_size=4
)


def _seed_graph(seeded):
    graph = nx.DiGraph()
    for (src, dst), weight in seeded.items():
        if weight is None:
            graph.add_edge(src, dst)
        else:
            graph.add_edge(src, dst, weight=weight)
    return graph


@settings(max_examples=200, deadline=None)
@given(
    halflife=st.sampled_from([2.0, 7.5, 40.0]),
    window=st.integers(4, 6),
    seeded=seeds,
    component_styles=styles,
    schedule=schedules,
)
def test_array_learner_matches_per_edge_reference(
    halflife, window, seeded, component_styles, schedule
):
    seed = _seed_graph(seeded) if seeded else None
    learner = OnlineTopology(
        halflife=halflife, comovement_window=window, seed_graph=seed
    )
    reference = _Reference(
        halflife=halflife, comovement_window=window, seed_graph=seed
    )
    style_of = dict(zip(COMPONENTS, component_styles))
    emitted = dict.fromkeys(COMPONENTS, 0)
    tick = 0
    for kind, step, payload in schedule:
        tick = max(0, tick + step)
        if kind == "traffic":
            learner.observe_traffic(tick, payload)
            reference.observe_traffic(tick, payload)
        else:
            signals = {}
            for component, value in payload.items():
                style = style_of[component]
                if style == "constant":
                    value = 2.5
                elif style == "ramp":
                    value = 0.5 * emitted[component]
                emitted[component] += 1
                signals[component] = value
            learner.observe_comovement(tick, signals)
            reference.observe_comovement(tick, signals)
        _assert_same(learner, reference)


def test_same_tick_double_step_is_pinned():
    """Traffic and co-movement evidence in one tick are two EWMA steps.

    With halflife 10 and a 4-sample window, 29 ticks of ``a -> b``
    traffic take 29 steps, and perfectly co-moving signals add one more
    per tick from the fourth tick on: 55 steps in all, ``1 - d**55``,
    against ``1 - d**29`` with traffic alone.
    """
    both = OnlineTopology(halflife=10.0, comovement_window=4)
    traffic_only = OnlineTopology(halflife=10.0, comovement_window=4)
    reference = _Reference(halflife=10.0, comovement_window=4)
    for t in range(29):
        for learner in (both, traffic_only, reference):
            learner.observe_traffic(t, {("a", "b"): 5.0})
        signals = {"a": float(t * t), "b": float(t * t)}
        both.observe_comovement(t, signals)
        reference.observe_comovement(t, signals)
    decay = 0.5 ** (1 / 10.0)
    assert both.confidence("a", "b") == pytest.approx(0.97790, abs=5e-6)
    assert both.confidence("a", "b") == pytest.approx(1 - decay**55, rel=1e-12)
    assert both.confidence("a", "b") == pytest.approx(
        reference.confidence("a", "b"), abs=TOLERANCE
    )
    assert traffic_only.confidence("a", "b") == pytest.approx(0.86603, abs=5e-6)
    assert traffic_only.confidence("a", "b") == pytest.approx(
        1 - decay**29, rel=1e-12
    )
