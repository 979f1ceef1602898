"""The layer ledger: spans around each layer's public calls.

The traced run replays a fixed prefix of a workload's inputs
single-threaded, hop by hop, through the same public functions the
online loop calls — ``HttpRequest.json`` → ``decode_json_push`` →
``MetricStore.ingest`` → ``OnlineTopology.observe_*`` →
``FChainSlave.sync_with_store`` → ``SLODetector.observe`` →
``FChain.localize`` → ``IncidentStoreSink`` — with a span around each.
The spans live in the benchmark's own files: nothing inside ``src/`` is
instrumented, and the program's internal ``repro.obs`` spans are
deliberately not read (breaking ``core.localize`` into CUSUM / bootstrap
/ burst-FFT needs spans inside the program and is a later issue).

A layer's *self time* is its spans' duration minus the part their child
spans cover. ``journey.*`` spans are the replay harness itself (the
hand-written stand-in for the loop's glue) and belong to no layer.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.types import Metric
from repro.core.fchain import FChain
from repro.edge.http import HttpRequest
from repro.edge.ingest import decode_json_push
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import IngestBatch, MetricStore
from repro.service.incident import Incident

#: Span names of the replay harness (not a layer of the program).
HARNESS_PUSH = "journey.push"
HARNESS_TICK = "journey.tick"

JSON_PARSE = "edge.json_parse"
DECODE = "edge.decode"
INCIDENT_APPEND = "edge.incident_append"
STORE_INGEST = "monitoring.store_ingest"
SLO_OBSERVE = "monitoring.slo_observe"
WARM_SYNC = "core.warm_sync"
TOPOLOGY_TRAFFIC = "core.topology_traffic"
TOPOLOGY_COMOVEMENT = "core.topology_comovement"
LOCALIZE = "core.localize"

#: Hops that run inside ``OnlinePipeline.process`` / ``TenantRuntime.process``.
TICK_HOPS = (
    STORE_INGEST,
    TOPOLOGY_TRAFFIC,
    TOPOLOGY_COMOVEMENT,
    WARM_SYNC,
    SLO_OBSERVE,
)


class _Span:
    """Context manager recording one span into its recorder."""

    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "SpanRecorder", record: list) -> None:
        self.recorder = recorder
        self.record = record

    def __enter__(self) -> "_Span":
        self.recorder._stack.append(self.record[0])
        self.record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.record[3] = time.perf_counter()
        self.recorder._stack.pop()


class SpanRecorder:
    """In-memory spans: (id, name, start, end, parent id, tick id)."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, tick: Optional[int] = None) -> _Span:
        stack = self._stack
        record = [
            len(self.records), name, 0.0, 0.0, stack[-1] if stack else None, tick,
        ]
        self.records.append(record)
        return _Span(self, record)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name: duration minus child coverage."""
        own = [record[3] - record[2] for record in self.records]
        for record in self.records:
            if record[4] is not None:
                own[record[4]] -= record[3] - record[2]
        totals: Dict[str, float] = defaultdict(float)
        for record, seconds in zip(self.records, own):
            totals[record[1]] += seconds
        return dict(totals)

    def durations(self, name: str, until_tick: Optional[int] = None) -> List[float]:
        """Durations of the spans called ``name`` (on ticks below
        ``until_tick``, when given)."""
        return [
            r[3] - r[2]
            for r in self.records
            if r[1] == name and (until_tick is None or r[5] < until_tick)
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for ident, name, start, end, parent, tick in self.records:
                handle.write(
                    json.dumps(
                        {
                            "id": ident,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "tick": tick,
                        }
                    )
                    + "\n"
                )


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullRecorder:
    """Same surface, records nothing: the untraced twin of a replay."""

    _SPAN = _NullSpan()

    def span(self, name: str, tick: Optional[int] = None) -> _NullSpan:
        return self._SPAN


class HopReplay:
    """One tick loop, re-played hop by hop through the public calls.

    Args:
        recorder: Where spans go (``NullRecorder`` for the untraced twin).
        config: The workload's ``FChainConfig``.
        seed: Seed label of the diagnosis engine.
        detector: A fresh SLO detector.
        dispatch_at: ``{dispatched_tick: violation_tick}`` as the
            end-to-end run dispatched them — the replay localizes at
            exactly those ticks instead of re-deriving the trigger rules.
        topology: Online topology to learn (mesh only).
        origin: SLO origin for neighborhood-scoped diagnosis.
        sink: Incident sink called after each verdict.
    """

    def __init__(
        self,
        recorder,
        *,
        config,
        seed,
        detector,
        dispatch_at: Dict[int, int],
        topology=None,
        origin=None,
        sink=None,
    ) -> None:
        self.recorder = recorder
        self.store = MetricStore(policy=DataQualityPolicy())
        self.fchain = FChain(config, seed=seed, topology=topology)
        self.detector = detector
        self.dispatch_at = dispatch_at
        self.topology = topology
        self.origin = origin
        self.sink = sink
        self.incidents: List[Incident] = []
        self.samples = 0
        self.ticks = 0
        self.edges_seen = 0

    def push(self, indexed_body: Tuple[int, bytes]) -> None:
        """One ``POST /v1/ingest`` body: parse, decode, then every tick."""
        index, body = indexed_body
        span = self.recorder.span
        with span(HARNESS_PUSH, index):
            request = HttpRequest(
                "POST",
                "/v1/ingest",
                headers={"content-type": "application/json"},
                body=body,
            )
            with span(JSON_PARSE, index):
                payload = request.json()
            with span(DECODE, index):
                push = decode_json_push(payload)
            for batch in push.batches:
                self.tick(batch)

    def tick(self, batch) -> None:
        """One tick through store → topology → warm sync → SLO → verdict."""
        span = self.recorder.span
        t = int(batch.time)
        store = self.store
        with span(HARNESS_TICK, t):
            with span(STORE_INGEST, t):
                store.ingest(IngestBatch(samples=batch.samples, watermark=t + 1))
            if self.topology is not None:
                if batch.edges:
                    with span(TOPOLOGY_TRAFFIC, t):
                        self.topology.observe_traffic(t, batch.edges)
                    self.edges_seen += len(batch.edges)
                signals = {
                    sample.component: sample.value
                    for sample in batch.samples
                    if sample.metric == Metric.NETWORK_OUT
                }
                if signals:
                    with span(TOPOLOGY_COMOVEMENT, t):
                        self.topology.observe_comovement(t, signals)
            with span(WARM_SYNC, t):
                self.fchain.master.slave.sync_with_store(store, store.end)
            if batch.performance is not None:
                with span(SLO_OBSERVE, t):
                    self.detector.observe(t, batch.performance)
            violation = self.dispatch_at.get(t)
            if violation is not None:
                with span(LOCALIZE, t):
                    diagnosis = self.fchain.localize(
                        store, violation_time=violation, origin=self.origin
                    )
                incident = Incident(
                    index=len(self.incidents),
                    violation_tick=violation,
                    dispatched_tick=t,
                    trigger_latency_seconds=diagnosis.latency_seconds,
                    diagnosis=diagnosis,
                    quality=diagnosis.confidence,
                )
                self.incidents.append(incident)
                if self.sink is not None:
                    with span(INCIDENT_APPEND, t):
                        self.sink(incident)
        self.samples += len(batch.samples)
        self.ticks += 1

    def close(self) -> None:
        self.fchain.close()


def interleave(lanes: Sequence[Tuple[Callable, Sequence, int]]) -> List[float]:
    """Drive several passes over their feeds in turns; wall seconds each.

    Each lane is ``(step, feed, chunk)``: ``step(item)`` is called for
    every item of ``feed``, ``chunk`` items per turn, the lanes taking
    turns. Passes that are to be compared (a traced replay, its untraced
    twin, whole ``process()`` calls) then see the same host conditions —
    on a shared host whose speed drifts by 10 % within a minute, passes
    made one after the other differ by more than the glue they are meant
    to reveal.
    """
    totals = [0.0] * len(lanes)
    turns = max(math.ceil(len(feed) / chunk) for _, feed, chunk in lanes)
    clock = time.perf_counter
    for turn in range(turns):
        for lane, (step, feed, chunk) in enumerate(lanes):
            part = feed[turn * chunk : (turn + 1) * chunk]
            before = clock()
            for item in part:
                step(item)
            totals[lane] += clock() - before
    return totals


def _per(total_seconds: float, count: float, scale: float) -> float:
    return total_seconds * scale / count if count else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    replays: Sequence[HopReplay],
    *,
    traced_wall: float,
    untraced_wall: float,
    e2e_wall: float,
    whole_process_seconds: float,
    whole_process_until: int,
) -> Dict[str, float]:
    """The hop-derived per-layer metrics of one traced replay.

    Args:
        recorder: Spans of the traced replay.
        replays: The replay(s) that produced them (one per tenant on the
            fleet workload).
        traced_wall: Wall seconds of the traced replay.
        untraced_wall: Wall seconds of the same replay with spans off.
        e2e_wall: Wall seconds the end-to-end run spent on the same
            inputs.
        whole_process_seconds: Wall of whole ``process()`` calls (with
            a detector that never trips, so that no diagnosis thread
            runs beside them) over every replay's ticks below ...
        whole_process_until: ... this tick. The loop's own glue is that
            minus the hops of the same ticks.
    """
    own = recorder.self_seconds()
    samples = sum(r.samples for r in replays)
    ticks = sum(r.ticks for r in replays)
    edges = sum(r.edges_seen for r in replays)
    incidents = [i for r in replays for i in r.incidents]
    analyzed = [
        len(i.diagnosis.analyzed or i.diagnosis.reports) for i in incidents
    ]
    localize = recorder.durations(LOCALIZE)
    appends = recorder.durations(INCIDENT_APPEND)

    def seconds(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    def share(*names: str) -> float:
        return seconds(*names) / traced_wall

    hop_seconds = sum(
        value for name, value in own.items() if not name.startswith("journey.")
    )
    same_ticks = recorder.durations(HARNESS_TICK, whole_process_until)
    process_per_tick = whole_process_seconds / len(same_ticks)
    glue_per_tick = process_per_tick - sum(
        sum(recorder.durations(hop, whole_process_until)) for hop in TICK_HOPS
    ) / len(same_ticks)
    return {
        "edge.json_parse_us_per_sample": _per(seconds(JSON_PARSE), samples, 1e6),
        "edge.decode_us_per_sample": _per(seconds(DECODE), samples, 1e6),
        "edge.decode_share": share(JSON_PARSE, DECODE),
        "edge.incident_append_ms": statistics.median(appends) * 1e3 if appends else 0.0,
        "monitoring.store_ingest_us_per_sample": _per(
            seconds(STORE_INGEST), samples, 1e6
        ),
        "monitoring.store_ingest_share": share(STORE_INGEST),
        "monitoring.slo_observe_us_per_tick": _per(seconds(SLO_OBSERVE), ticks, 1e6),
        # One series per sample per tick: every tick syncs each series once.
        "core.warm_sync_us_per_series": _per(seconds(WARM_SYNC), samples, 1e6),
        "core.warm_sync_share": share(WARM_SYNC),
        "core.topology_traffic_us_per_edge": _per(
            seconds(TOPOLOGY_TRAFFIC), edges, 1e6
        ),
        "core.topology_comovement_us_per_edge": _per(
            seconds(TOPOLOGY_COMOVEMENT), edges, 1e6
        ),
        "core.topology_share": share(TOPOLOGY_TRAFFIC, TOPOLOGY_COMOVEMENT),
        "core.localize_ms_p50": statistics.median(localize) * 1e3 if localize else 0.0,
        "core.localize_ms_per_component": _per(sum(localize), sum(analyzed), 1e3),
        "core.localize_share": share(LOCALIZE),
        "core.analyzed_components": statistics.mean(analyzed) if analyzed else 0.0,
        "core.escalations": float(sum(i.diagnosis.escalated for i in incidents)),
        "service.process_us_per_tick": process_per_tick * 1e6,
        "service.glue_share": glue_per_tick * ticks / traced_wall,
        "ledger.coverage": hop_seconds / e2e_wall,
        "ledger.trace_overhead_share": traced_wall / untraced_wall - 1.0,
    }
