"""The long-running online localization loop.

This is the paper's deployment shape (Sec. II-A): FChain runs *behind* a
client-side SLO detector, its slave models stay warm on the live 1 Hz
metric stream, and the master is invoked the moment a sustained
violation is declared. The per-tick rules — tolerant watermarked ingest,
topology learning, try-lock warm sync, rising-edge + cooldown dedup,
analysis-grace wait, incident stamping — live in
:class:`~repro.service.tick.TickCore`, shared with the fleet layer.
:class:`OnlinePipeline` is the single-application *driver* around that
core: it pulls batches off a feed, wraps each tick in a ``service_tick``
span, pushes the triggers the core releases into a bounded queue, and
runs one background worker that hands them back to the core for
diagnosis and delivers the incidents to the sinks.

Backpressure invariant: **ingest never blocks on diagnosis.** The
dispatch queue is bounded (``service_queue_depth``); when it is full, a
new trigger is *shed* with a counted drop rather than making the feed
wait. (The core's warm-up sync likewise skips, never waits, while a
diagnosis holds the slave.)

Shutdown is graceful: :meth:`OnlinePipeline.close` flushes triggers
still waiting for grace data, drains the queue, joins the worker and
closes the sinks — also when the feed or a tick raises out of
:meth:`OnlinePipeline.run`.
"""

from __future__ import annotations

import queue
import threading
from typing import List, Optional, Tuple

import networkx as nx

from repro.common.errors import ReproError
from repro.common.types import ComponentId
from repro.core.config import FChainConfig
from repro.core.fchain import FChain
from repro.core.topology import OnlineTopology
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.slo import SLODetector
from repro.monitoring.store import MetricStore
from repro.obs.trace import (
    STAGE_DISPATCH,
    STAGE_DRAIN,
    STAGE_SERVICE_TICK,
    make_tracer,
)
from repro.service.incident import Incident, ServiceMetrics
from repro.service.sources import TickBatch
from repro.service.tick import TickCore, Trigger

#: Queue item that tells the diagnosis worker to exit.
_SENTINEL = None


class OnlinePipeline:
    """Continuous ingest → SLO detection → triggered localization.

    Args:
        feed: Iterable of :class:`~repro.service.sources.TickBatch`
            (see :mod:`repro.service.sources`).
        detector: The SLO detector evaluating the feed's performance
            signal. Use a dedicated instance (with a ``retention``
            window for long runs), not one shared with a simulated app.
        config: FChain configuration; ``service_cooldown`` and
            ``service_queue_depth`` parameterize the loop itself.
        dependency_graph: Optional offline-discovered dependency graph
            for integrated pinpointing.
        seed: Deterministic seed label for the diagnosis engine.
        store: The store to ingest into; defaults to a fresh tolerant
            store. A caller-supplied store must carry a
            :class:`~repro.monitoring.quality.DataQualityPolicy`.
        sinks: Callables receiving each finished
            :class:`~repro.service.incident.Incident`; sinks with a
            ``close()`` method are closed at drain time.
        registry: Metrics registry for the incident/drop counters
            (defaults to the process-wide registry).
        topology: Optional :class:`~repro.core.topology.OnlineTopology`
            the loop keeps learning while it ingests: each batch's
            ``edges`` feed :meth:`~repro.core.topology.OnlineTopology.observe_traffic`
            and the per-component ``network_out`` samples corroborate
            known edges via co-movement. Diagnoses snapshot the learned
            graph (and, in ``topology_mode="neighborhood"``, scope the
            slave fan-out around ``origin``).
        origin: Component the SLO signal is observed at (e.g. a mesh
            gateway) — the ranking origin for neighborhood-scoped
            diagnosis. Ignored in ``topology_mode="full"``.

    Attributes:
        incidents: Finished incidents, in completion order.
        failures: ``(violation_tick, exception)`` pairs from diagnoses
            or sinks that raised (the loop keeps running).
        ticks: Batches processed.
        triggered: Triggers created (after edge/cooldown dedup).
        dropped: Triggers shed because the dispatch queue was full.
        warm_sync_skipped: Ticks whose warm-up sync was skipped because
            a diagnosis held the slave.
    """

    def __init__(
        self,
        feed,
        detector: SLODetector,
        *,
        config: Optional[FChainConfig] = None,
        dependency_graph: Optional[nx.DiGraph] = None,
        seed: object = 0,
        store: Optional[MetricStore] = None,
        sinks=(),
        registry=None,
        topology: Optional[OnlineTopology] = None,
        origin: Optional[ComponentId] = None,
    ) -> None:
        self.config = (config or FChainConfig()).validate()
        self.feed = iter(feed)
        self.detector = detector
        if store is None:
            store = MetricStore(policy=DataQualityPolicy())
        elif store.policy is None:
            raise ReproError(
                "the online pipeline ingests through the tolerant path: "
                "construct the store with MetricStore(policy=...)"
            )
        self.store = store
        self.fchain = FChain(
            self.config, dependency_graph, seed=seed, topology=topology
        )
        self.core = TickCore(store, self.fchain, detector, origin=origin)
        self.sinks = list(sinks)
        self.tracer = make_tracer(self.config.telemetry, registry=registry)
        self._registry = registry
        self._metrics: Optional[ServiceMetrics] = None

        self._queue: "queue.Queue" = queue.Queue(
            maxsize=self.config.service_queue_depth
        )
        self._worker: Optional[threading.Thread] = None
        self._closed = False

        self.incidents: List[Incident] = []
        self.failures: List[Tuple[int, Exception]] = []
        self.dropped = 0

    @property
    def topology(self) -> Optional[OnlineTopology]:
        return self.core.topology

    @property
    def ticks(self) -> int:
        return self.core.ticks

    @property
    def triggered(self) -> int:
        return self.core.triggered

    @property
    def warm_sync_skipped(self) -> int:
        return self.core.warm_sync_skipped

    # ------------------------------------------------------------------
    # Driving the loop
    # ------------------------------------------------------------------
    def run(self, max_ticks: Optional[int] = None) -> List[Incident]:
        """Consume the feed (optionally bounded), drain, return incidents.

        The drain also runs when the feed or a tick raises (the
        exception still propagates): already-dispatched incidents reach
        the sinks, the worker is joined and the sinks are closed.
        """
        processed = 0
        backlog = getattr(self.feed, "qsize", None)
        try:
            for batch in self.feed:
                self.process(
                    batch, queued=backlog is not None and backlog() > 0
                )
                processed += 1
                if max_ticks is not None and processed >= max_ticks:
                    break
        finally:
            self.close()
        return list(self.incidents)

    def process(self, batch: TickBatch, *, queued: bool = False) -> None:
        """Feed one tick's batch through the core, dispatch what is ready.

        ``queued``: the caller already holds its next batch, so the warm
        sync may be deferred (see :meth:`TickCore.process`).
        """
        if self._closed:
            raise ReproError("the pipeline is closed")
        tracer = self.tracer
        with tracer.span(STAGE_SERVICE_TICK, tick=int(batch.time)) as tick_span:
            for trigger in self.core.process(batch, tick_span, queued=queued):
                self._dispatch(trigger, tick_span)
        if tracer.enabled:
            tracer.observe(tick_span)

    def __enter__(self) -> "OnlinePipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drain in-flight work, join the worker, close the sinks."""
        if self._closed:
            return
        self._closed = True
        tracer = self.tracer
        with tracer.span(STAGE_DRAIN) as drain_span:
            # Triggers still waiting for grace data will never see it —
            # diagnose on what was recorded. Ingest has stopped, so a
            # blocking put cannot stall anything but the drain itself.
            pending = self.core.flush_pending()
            for trigger in pending:
                self._ensure_worker()
                self._queue.put(trigger)
            drain_span.count("pending_flushed", len(pending))
            if self._worker is not None:
                self._queue.put(_SENTINEL)
                self._worker.join()
                self._worker = None
            drain_span.count("incidents", len(self.incidents))
            drain_span.count("triggers_dropped", self.dropped)
        if tracer.enabled:
            tracer.observe(drain_span)
        self.fchain.close()
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, trigger: Trigger, tick_span) -> None:
        """Enqueue one ready trigger — or shed it if the queue is full."""
        with tick_span.child(
            STAGE_DISPATCH, violation_tick=trigger.violation_tick
        ) as dispatch_span:
            self._ensure_worker()
            try:
                self._queue.put_nowait(trigger)
                dispatch_span.tag(queued=True)
            except queue.Full:
                self.dropped += 1
                self._service_metrics().dropped.inc(1)
                dispatch_span.tag(queued=False)

    # ------------------------------------------------------------------
    # Diagnosis worker
    # ------------------------------------------------------------------
    def _ensure_worker(self) -> None:
        if self._worker is None:
            self._worker = threading.Thread(
                target=self._worker_loop, name="fchain-dispatch", daemon=True
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            trigger = self._queue.get()
            try:
                if trigger is _SENTINEL:
                    return
                self._diagnose(trigger)
            finally:
                self._queue.task_done()

    def _diagnose(self, trigger: Trigger) -> None:
        try:
            incident = self.core.diagnose(trigger)
        except Exception as error:  # keep the loop alive
            self.failures.append((trigger.violation_tick, error))
            return
        self.incidents.append(incident)
        self._service_metrics().incidents.inc(1, quality=incident.quality)
        for sink in self.sinks:
            try:
                sink(incident)
            except Exception as error:
                self.failures.append((trigger.violation_tick, error))

    def _service_metrics(self) -> ServiceMetrics:
        if self._metrics is None:
            self._metrics = ServiceMetrics(self._registry)
        return self._metrics


__all__ = ["OnlinePipeline"]
