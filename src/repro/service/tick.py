"""The per-tick state machine of the online loop — stated once.

The paper runs one loop per application (Sec. II-A, Fig. 1): the slaves
model every 1 Hz sample, an SLO detector watches the performance signal,
and a sustained violation invokes the master. :class:`TickCore` is that
loop's rule set with no thread, queue or sink of its own:

1. **Ingest** — every :class:`~repro.service.sources.TickBatch` goes
   through the tolerant, watermarked :meth:`MetricStore.ingest` path, so
   gaps, NaN readings, clock skew and late delivery are handled by the
   store, not by the loop.
2. **Learn** — an optional :class:`~repro.core.topology.OnlineTopology`
   is fed the batch's traffic counts, then its ``network_out``
   co-movement.
3. **Warm-up** — the persistent slave's Markov models are synced with
   the store (``sync_with_store``) under a *try*-lock: a tick that finds
   a diagnosis on another thread holding the slave (the pipeline's
   worker) skips the sync with a counted skip instead of waiting, so
   ingest never blocks on diagnosis. A tick loop whose next input is
   already queued defers the sync until the models owe a block (see
   :meth:`TickCore.process`).
4. **Detect** — the batch's performance signal feeds the SLO detector; a
   *rising edge* outside the ``service_cooldown`` window creates one
   :class:`Trigger`.
5. **Release** — a trigger becomes ready once the post-violation
   ``analysis_grace`` data has been recorded; :meth:`TickCore.process`
   returns the ready triggers, stamped with their dispatch tick.

What happens to a ready trigger is the driver's business:
:class:`~repro.service.pipeline.OnlinePipeline` feeds a bounded queue
drained by one worker thread, a fleet shard
(:mod:`repro.fleet.worker`) diagnoses on its own serve thread, fairly
across its :class:`~repro.fleet.tenant.TenantRuntime` tenants, between
commands. Both hand the
trigger back to :meth:`TickCore.diagnose`, which is the only place an
:class:`~repro.service.incident.Incident` is built.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.common.types import ComponentId, Metric, TickSamples
from repro.core.fchain import FChain
from repro.core.topology import OnlineTopology
from repro.monitoring.slo import SLODetector
from repro.monitoring.store import IngestBatch, MetricStore
from repro.obs.trace import NULL_SPAN, STAGE_SLO_EVAL, STAGE_STORE_SYNC
from repro.service.incident import Incident
from repro.service.sources import TickBatch

#: Samples a tick loop with queued input lets its models owe before it
#: syncs them. A 12-series tenant then syncs every ~85 ticks, in one
#: block of the bank's time axis instead of 85 per-tick syncs that are
#: mostly fixed cost. Measured on the journey's ``steady_push`` (48
#: series, three runs each): at 256 a sync owes 5 ticks, under the
#: slave's 8-tick block floor, and throughput drops to 111k-147k
#: samples/s from 142k-194k; at 4096 one sync holds the GIL across
#: pushes and the push tail rises to 5.1-8.6 ms from 3.5-4.9 ms.
DEFER_SAMPLES = 1024


@dataclass
class Trigger:
    """One deduplicated violation awaiting (or undergoing) diagnosis."""

    violation_tick: int
    detected_at: float  # time.monotonic() at SLO detection
    #: Newest recorded tick when the trigger was released for diagnosis
    #: (stamped by the grace flush or the drain-time flush).
    dispatched_tick: Optional[int] = None


class TickCore:
    """One application's tick state: store, engine, detector, dedup.

    Args:
        store: The tolerant store (built with a ``DataQualityPolicy``)
            to ingest into.
        fchain: The diagnosis engine whose persistent slave stays warm;
            its ``topology``, when set, keeps learning from the batches.
        detector: The SLO detector evaluating the performance signal.
        origin: Component the SLO signal is observed at — the ranking
            origin for neighborhood-scoped diagnosis.

    Attributes:
        pending: Triggers still waiting for their grace data.
        last_trigger: Tick of the newest trigger (cooldown anchor).
        violating: The detector's verdict on the previous tick.
        ticks: Batches processed.
        triggered: Triggers created (after edge/cooldown dedup).
        warm_sync_skipped: Ticks whose warm-up sync was skipped because
            a diagnosis held the slave.
        incident_count: Diagnoses completed (the next incident index).
        owed: Samples ingested since the last warm-up sync that ran.
    """

    def __init__(
        self,
        store: MetricStore,
        fchain: FChain,
        detector: SLODetector,
        *,
        origin: Optional[ComponentId] = None,
    ) -> None:
        self.store = store
        self.fchain = fchain
        self.detector = detector
        self.origin = origin
        self.config = fchain.config
        # Serializes slave-state mutation between the ingest side's
        # warm-up sync and a diagnosis on another thread (the
        # pipeline's worker; a fleet shard runs both on one). The
        # ingest side only ever try-acquires it — see warm_sync.
        self._slave_lock = threading.Lock()
        self.pending: List[Trigger] = []
        self.last_trigger: Optional[int] = None
        self.violating = False
        self.ticks = 0
        self.triggered = 0
        self.warm_sync_skipped = 0
        self.incident_count = 0
        self.owed = 0
        # (components, metrics, names, positions) of network_out in the
        # last tick's series layout.
        self._signal_layout: Optional[tuple] = None

    @property
    def topology(self) -> Optional[OnlineTopology]:
        """The online topology being learned — the engine's own, so a
        diagnosis always snapshots the graph the ticks fed."""
        return self.fchain.topology

    # ------------------------------------------------------------------
    # Ingest side (one call per tick)
    # ------------------------------------------------------------------
    def process(
        self, batch: TickBatch, span=NULL_SPAN, *, queued: bool = False
    ) -> List[Trigger]:
        """One tick: ingest → learn → warm sync → SLO edge → grace flush.

        Returns the triggers whose post-violation grace data arrived
        this tick, ``dispatched_tick`` already stamped — the caller owns
        queueing them (with its own bounds and fairness rules).

        ``queued`` tells the core that the caller already holds its next
        input. The warm sync then waits until the models owe
        :data:`DEFER_SAMPLES` samples and catches them up in one block;
        a caller that passes nothing syncs every tick. What the models
        compute does not depend on when they sync, with one exception:
        a gap slot that a late sample backfills after its tick but
        before the deferred sync is learned repaired, where a per-tick
        sync learned the gap — as a sync skipped under a running
        diagnosis already does. The diagnosis reads the repaired store
        either way.
        """
        t = int(batch.time)
        tick = TickSamples.of(batch.samples)
        samples = batch.samples if tick is None else tick
        self.store.ingest(IngestBatch(samples=samples, watermark=t + 1))
        span.count("samples_ingested", len(batch.samples))
        self._learn_topology(t, batch, tick)
        self.owed += len(batch.samples)
        if not queued or self.owed >= DEFER_SAMPLES:
            self.warm_sync(span)
        with span.child(STAGE_SLO_EVAL) as slo_span:
            rising = False
            if batch.performance is not None:
                status = self.detector.observe(t, batch.performance)
                rising = status.violated and not self.violating
                self.violating = status.violated
                slo_span.tag(violated=status.violated)
        if rising:
            self._on_violation(t)
        ready = self._flush_ready()
        self.ticks += 1
        return ready

    def _learn_topology(
        self, t: int, batch: TickBatch, tick: Optional[TickSamples]
    ) -> None:
        """Feed one tick's evidence into the online topology, if any.

        Traffic counts are the primary channel (they create and refresh
        edges); the per-component ``network_out`` samples corroborate
        already-known edges through delta co-movement. Both run on the
        ingest side, so the learned graph is always current when a
        diagnosis snapshots it. The ``network_out`` positions of a
        tick's columns are found once per series layout, which is
        matched against the previous tick's by list equality, as the
        store does.
        """
        topology = self.topology
        if topology is None:
            return
        if batch.edges:
            topology.observe_traffic(t, batch.edges)
        if tick is None:
            signals = {
                sample.component: sample.value
                for sample in batch.samples
                if sample.metric == Metric.NETWORK_OUT
            }
        else:
            layout = self._signal_layout
            if (
                layout is None
                or tick.components != layout[0]
                or tick.metrics != layout[1]
            ):
                positions = [
                    i
                    for i, metric in enumerate(tick.metrics)
                    if metric == Metric.NETWORK_OUT
                ]
                names = [tick.components[i] for i in positions]
                layout = self._signal_layout = (
                    tick.components[:],
                    tick.metrics[:],
                    names,
                    positions,
                )
            values = tick.values
            signals = dict(zip(layout[2], [values[i] for i in layout[3]]))
        if signals:
            topology.observe_comovement(t, signals)

    def warm_sync(self, span=NULL_SPAN) -> None:
        """Keep the slave's models caught up — without ever waiting.

        A diagnosis holds ``_slave_lock`` for its whole duration;
        blocking here would stall ingest behind it, which is exactly the
        backpressure inversion the loop must not have. A skipped sync
        costs nothing: ``analyze`` syncs the look-back window itself,
        and the next free tick catches the rest up.
        """
        if not self._slave_lock.acquire(blocking=False):
            self.warm_sync_skipped += 1
            return
        try:
            with span.child(STAGE_STORE_SYNC):
                self.fchain.master.slave.sync_with_store(
                    self.store, self.store.end
                )
            self.owed = 0
        finally:
            self._slave_lock.release()

    def warm_state(self):
        """Copies of the slave's learned state (see
        :meth:`~repro.core.fchain.FChainSlave.warm_state`), taken under
        the slave lock. A fleet shard exports on its one thread, so
        there no diagnosis can be syncing that state meanwhile."""
        with self._slave_lock:
            return self.fchain.master.slave.warm_state()

    def _on_violation(self, t: int) -> None:
        """A rising violation edge: dedup against the cooldown window."""
        if (
            self.last_trigger is not None
            and t - self.last_trigger < self.config.service_cooldown
        ):
            return  # flapping within the window folds into the incident
        self.last_trigger = t
        self.triggered += 1
        self.pending.append(
            Trigger(violation_tick=t, detected_at=time.monotonic())
        )

    def _flush_ready(self) -> List[Trigger]:
        """Release triggers whose post-violation grace data arrived."""
        if not self.pending:
            return []
        newest = self.store.end - 1
        grace = self.config.analysis_grace
        ready: List[Trigger] = []
        waiting: List[Trigger] = []
        for trigger in self.pending:
            if newest >= trigger.violation_tick + grace:
                trigger.dispatched_tick = newest
                ready.append(trigger)
            else:
                waiting.append(trigger)
        self.pending = waiting
        return ready

    def flush_pending(self) -> List[Trigger]:
        """Drain-time flush: grace data will never arrive — release
        every waiting trigger to be diagnosed on what was recorded."""
        pending, self.pending = self.pending, []
        for trigger in pending:
            trigger.dispatched_tick = self.store.end - 1
        return pending

    # ------------------------------------------------------------------
    # Diagnosis side (on the thread that runs the diagnoses)
    # ------------------------------------------------------------------
    def diagnose(self, trigger: Trigger) -> Incident:
        """Run one localization; raises on engine failure."""
        with self._slave_lock:
            diagnosis = self.fchain.localize(
                self.store,
                violation_time=trigger.violation_tick,
                origin=self.origin,
            )
        incident = Incident(
            index=self.incident_count,
            violation_tick=trigger.violation_tick,
            dispatched_tick=trigger.dispatched_tick,
            trigger_latency_seconds=time.monotonic() - trigger.detected_at,
            diagnosis=diagnosis,
            quality=diagnosis.confidence,
        )
        self.incident_count += 1
        return incident


__all__ = ["DEFER_SAMPLES", "TickCore", "Trigger"]
