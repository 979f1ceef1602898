"""Per-tenant state of the fleet: spec, runtime, relocation snapshot.

A *tenant* is one monitored application: its own tolerant
:class:`~repro.monitoring.store.MetricStore`, its own warm
:class:`~repro.core.fchain.FChain` slave models and its own SLO
detector, ticked by the same :class:`~repro.service.tick.TickCore` the
single-app :class:`~repro.service.pipeline.OnlinePipeline` drives — one
rule set, two drivers. Where the pipeline diagnoses a released trigger
right after its tick, :class:`TenantRuntime` leaves that to its caller:
``process()`` returns the triggers the core released and
``diagnose()`` runs one, so the shard worker can dispatch *fairly
across its tenants* (see :mod:`repro.fleet.worker`). Every tick a
tenant processes defers its warm sync until the models owe a block or
the tenant is diagnosed, on either backend. What the runtime adds to
the core is how a tenant is built from its picklable
:class:`TenantSpec`, and relocation.

Relocation ships the warm state rather than rebuilding it:
:meth:`TenantRuntime.export_state` hands over the store itself and
copies of the slave's model bank, row map and error streams, next to
the small auxiliary state (detector, dedup state, pending triggers,
counters, learned topology). :meth:`TenantRuntime.from_state` installs
all of it on the receiving shard and replays nothing, so the moved
tenant's models are the ones that never moved — also after the store's
ring has wrapped past history the models learned from, and when the
source had deferred its last syncs (the snapshot carries what they owe,
and the next sync catches it up exactly). The thread backend passes the
snapshot as an object; the process backend pickles it over its queues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.types import ComponentId
from repro.core.config import FChainConfig
from repro.core.fchain import FChain
from repro.core.topology import OnlineTopology
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.slo import SLODetector
from repro.monitoring.store import DEFAULT_RETENTION, MetricStore
from repro.service.incident import Incident
from repro.service.sources import TickBatch
from repro.service.tick import TickCore, Trigger


@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to (re)build one tenant's runtime on any shard.

    Picklable by construction: specs travel over the shard command
    queues of the process backend and inside relocation snapshots.

    Attributes:
        tenant: Unique tenant id — the consistent-hash routing key.
        detector: SLO detector instance evaluating the tenant's
            performance signal (plain-list state, picklable).
        config: FChain configuration for this tenant's diagnosis engine.
        seed: Deterministic seed label for the diagnosis engine.
        retention: Ring retention of the tenant's store.
        start: First tick of the tenant's timeline.
        topology_halflife: When set, the tenant learns an
            :class:`~repro.core.topology.OnlineTopology` with this edge
            confidence half-life from its batches' ``edges`` evidence;
            the learned graph feeds diagnosis (weighted pruning, and
            neighborhood scoping when the config asks for it). ``None``
            disables topology learning (the historical behaviour).
        origin: Component the tenant's SLO signal is observed at — the
            ranking origin for neighborhood-scoped diagnosis.
    """

    tenant: str
    detector: SLODetector
    config: FChainConfig = field(default_factory=FChainConfig)
    seed: object = 0
    retention: int = DEFAULT_RETENTION
    start: int = 0
    topology_halflife: Optional[float] = None
    origin: Optional[ComponentId] = None


@dataclass
class TenantSnapshot:
    """A relocating tenant's full state, in transit between shards.

    ``store`` is the tenant's store itself — the source gives it up at
    export — and ``warm`` copies of its slave's learned state (see
    :meth:`~repro.core.fchain.FChainSlave.warm_state`).
    """

    spec: TenantSpec
    store: MetricStore
    warm: tuple
    detector: SLODetector
    violating: bool
    last_trigger: Optional[int]
    pending: List[Trigger]
    counters: Dict[str, int]
    #: The learned online topology, carried wholesale.
    topology: Optional[OnlineTopology] = None


class TenantRuntime:
    """One tenant's live tick core on a shard worker.

    Attributes:
        core: The tenant's :class:`~repro.service.tick.TickCore` (tick
            rules, dedup state, counters).
    """

    def __init__(
        self,
        spec: TenantSpec,
        *,
        store: Optional[MetricStore] = None,
        detector: Optional[SLODetector] = None,
    ) -> None:
        self.spec = spec
        self.store = store if store is not None else MetricStore(
            start=spec.start,
            policy=DataQualityPolicy(),
            retention=spec.retention,
        )
        self.fchain = FChain(
            spec.config,
            seed=spec.seed,
            topology=(
                OnlineTopology(halflife=spec.topology_halflife)
                if spec.topology_halflife is not None
                else None
            ),
        )
        self.core = TickCore(
            self.store,
            self.fchain,
            detector if detector is not None else spec.detector,
            origin=spec.origin,
        )

    @property
    def topology(self) -> Optional[OnlineTopology]:
        return self.core.topology

    def process(self, batch: TickBatch) -> List[Trigger]:
        """One tick of the core; returns the ready triggers — the
        caller owns queueing them (with its own budget and fairness).

        A shard tenant always defers its warm sync: its models sync
        when they owe a block, and :meth:`diagnose` and relocation catch
        up whatever is still owed, so neither the verdict nor a move
        depends on where the syncs fell (see
        :meth:`~repro.service.tick.TickCore.process`)."""
        return self.core.process(batch, queued=True)

    def diagnose(self, trigger: Trigger) -> Incident:
        """Run one localization; raises on engine failure."""
        return self.core.diagnose(trigger)

    # ------------------------------------------------------------------
    # Relocation
    # ------------------------------------------------------------------
    def export_state(self) -> TenantSnapshot:
        """Snapshot this tenant for relocation to another shard.

        The snapshot takes the store itself, so this runtime must not
        ingest again: the caller closes it.
        """
        core = self.core
        return TenantSnapshot(
            spec=self.spec,
            store=self.store,
            warm=self.fchain.master.slave.warm_state(),
            detector=core.detector,
            violating=core.violating,
            last_trigger=core.last_trigger,
            pending=list(core.pending),
            counters={
                "ticks": core.ticks,
                "triggered": core.triggered,
                "incident_count": core.incident_count,
                "owed": core.owed,
            },
            topology=core.topology,
        )

    @classmethod
    def from_state(cls, snapshot: TenantSnapshot) -> "TenantRuntime":
        """Install a relocation snapshot as a live runtime."""
        runtime = cls(
            snapshot.spec, store=snapshot.store, detector=snapshot.detector
        )
        runtime.fchain.master.slave.adopt(snapshot.store, snapshot.warm)
        core = runtime.core
        core.violating = snapshot.violating
        core.last_trigger = snapshot.last_trigger
        core.pending = list(snapshot.pending)
        core.ticks = snapshot.counters["ticks"]
        core.triggered = snapshot.counters["triggered"]
        core.incident_count = snapshot.counters["incident_count"]
        core.owed = snapshot.counters["owed"]
        if snapshot.topology is not None:
            # The learned graph relocates wholesale: edge confidences
            # are part of diagnosis state, and re-learning from scratch
            # on the target shard would widen every scoped diagnosis
            # until the graph re-converged.
            runtime.fchain.master.topology = snapshot.topology
        return runtime

    def close(self) -> None:
        self.fchain.close()


__all__ = [
    "TenantRuntime",
    "TenantSnapshot",
    "TenantSpec",
]
