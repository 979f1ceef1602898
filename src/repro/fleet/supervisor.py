"""The fleet supervisor: many tenants, few long-lived shard workers.

:class:`FleetSupervisor` is the parent-side owner of a tenant fleet:

* **placement** — tenants are consistently hashed onto shards
  (:class:`~repro.fleet.ring.HashRing`), so adding or removing a shard
  relocates only ~1/N of the fleet;
* **routing** — ``ingest()`` hands one tenant's tick batch to its shard;
* **incidents** — every shard reports finished incidents to the
  supervisor, which fans them out to per-tenant sinks, fleet-wide sinks
  and tenant-labeled Prometheus counters;
* **rebalance** — ``add_shard()`` / ``remove_shard()`` / ``move_tenant()``
  relocate live tenants: the source shard gives up the tenant's store
  and copies of its warm models, and the target installs them as they
  are, so the moved tenant is bit-identical to one that never moved
  (see ``tests/fleet/test_rebalance.py``).

Two interchangeable backends run the same
:class:`~repro.fleet.worker.ShardWorker` code, and on both a shard
diagnoses every trigger a tick released before its next command:

* ``"thread"`` (default) — a shard is a worker driven on the caller's
  thread. ``ingest()`` returns once the tick, and any diagnosis it
  released, have run and their incidents have reached the sinks; moves
  and drains complete within the call. No thread and no queue: under
  one interpreter lock a shard thread added no parallelism, only
  hand-offs and up to a queue's worth of lag behind the caller.
* ``"process"`` — shards are forked worker processes, so one shard's
  ticks and diagnoses do not contend with another's, or the caller's,
  for the GIL. Batches and relocation snapshots are pickled over bounded
  per-shard command queues; a full queue sheds the batch with a counted
  drop after ``route_timeout`` (one tick of one tenant's telemetry,
  repaired later by the tolerant ingest path) rather than stalling the
  caller. Shards report on one shared event queue, which a collector
  thread drains into the sinks while it refreshes the per-shard
  queue-depth gauges.

Supervisor methods (``add_tenant``/``ingest``/``move_tenant``/``close``)
are driver-facing and expected to be called from one thread; the
process backend's collector thread only touches the incident/event
state and the gauges.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, ReproError
from repro.fleet.ring import HashRing
from repro.fleet.tenant import TenantSnapshot, TenantSpec
from repro.fleet.worker import ShardWorker, shard_worker_main
from repro.service.incident import Incident
from repro.service.sources import TickBatch

#: How long the collector waits for an event before it refreshes gauges.
_EVENT_POLL_SECONDS = 0.2
#: Ceiling on one process shard's relocation step (export or import
#: acknowledgement).
_MOVE_TIMEOUT_SECONDS = 60.0


def fork_available() -> bool:
    """Whether the ``fork`` multiprocessing start method exists here.

    The process backend forks its shard workers, so they inherit the
    imported modules instead of re-importing them. POSIX platforms have
    it; Windows (and some sandboxed runtimes) do not.
    """
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level tunables (per-tenant knobs live on the TenantSpec).

    Attributes:
        shards: Number of shard workers.
        backend: ``"thread"`` or ``"process"`` (see module docstring).
        queue_depth: Bound of each process shard's command queue. Thread
            shards have no queue and ignore it.
        route_timeout: Seconds ``ingest()`` waits on a full process
            shard queue before shedding the batch with a counted drop.
            ``0`` sheds immediately. Thread shards never shed a batch
            and ignore it.
    """

    shards: int = 4
    backend: str = "thread"
    queue_depth: int = 1024
    route_timeout: float = 0.5

    def validate(self) -> "FleetConfig":
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.backend not in ("thread", "process"):
            raise ConfigurationError(
                f"backend={self.backend!r} is not supported: choose "
                "'thread' or 'process'"
            )
        if self.backend == "process" and not fork_available():
            raise ConfigurationError(
                "backend='process' needs the 'fork' multiprocessing "
                "start method, which this platform does not provide; "
                "use backend='thread'"
            )
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        if self.route_timeout < 0:
            raise ConfigurationError("route_timeout must be >= 0 seconds")
        return self


class FleetMetrics:
    """Fleet-wide gauges/counters on a :mod:`repro.obs` registry."""

    def __init__(self, registry=None) -> None:
        if registry is None:
            from repro.obs.registry import default_registry

            registry = default_registry()
        self.tenants = registry.gauge(
            "fchain_fleet_tenants", "Tenants currently registered"
        )
        self.queue_depth = registry.gauge(
            "fchain_fleet_shard_queue_depth",
            "Commands waiting on each process shard's queue",
            ("shard",),
        )
        self.ingest_dropped = registry.counter(
            "fchain_fleet_ingest_dropped_total",
            "Tick batches shed because a process shard queue stayed full",
            ("shard",),
        )
        self.incidents = registry.counter(
            "fchain_fleet_incidents_total",
            "Incidents diagnosed per tenant",
            ("tenant",),
        )


class _InlineShard:
    """A thread-backend shard: its worker runs on the caller's thread."""

    def __init__(self, index: int, config: FleetConfig, events) -> None:
        self.worker = ShardWorker(index, events)

    def send(self, command, timeout: Optional[float] = None) -> bool:
        self.worker.handle(command)
        return True

    def join(self) -> None:
        pass


class _ProcessShard:
    """A process-backend shard: a bounded command queue into a forked
    worker."""

    def __init__(self, index: int, config: FleetConfig, events) -> None:
        context = multiprocessing.get_context("fork")
        self.commands = context.Queue(maxsize=config.queue_depth)
        self.runner = context.Process(
            target=shard_worker_main,
            args=(index, self.commands, events),
            name=f"fchain-fleet-shard-{index}",
            daemon=True,
        )
        self.runner.start()

    def send(self, command, timeout: Optional[float] = None) -> bool:
        """Queue one command; False when the queue stayed full for
        ``timeout`` seconds (``None`` waits for room, ``0`` does not)."""
        try:
            if timeout is None:
                self.commands.put(command)
            elif timeout > 0:
                self.commands.put(command, timeout=timeout)
            else:
                self.commands.put_nowait(command)
        except queue.Full:
            return False
        return True

    def depth(self) -> int:
        try:
            return self.commands.qsize()
        except NotImplementedError:  # pragma: no cover - macOS mp.Queue
            return 0

    def join(self) -> None:
        self.runner.join()


class FleetSupervisor:
    """Owner of the shard pool, tenant placement and the incident bus.

    Args:
        config: Fleet-level configuration.
        sinks: Fleet-wide callables receiving ``(tenant, incident)``.
        registry: Metrics registry (defaults to the process-wide one).

    Attributes:
        incidents: Finished incidents per tenant, in completion order.
        failures: ``(shard, tenant, error repr)`` from shard errors.
        ingest_dropped: Batches shed by routing backpressure, per shard.
    """

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        *,
        sinks=(),
        registry=None,
    ) -> None:
        self.config = (config or FleetConfig()).validate()
        self._collector: Optional[threading.Thread] = None
        if self.config.backend == "process":
            self._shard_type = _ProcessShard
            self._events = multiprocessing.get_context("fork").Queue()
            self._ack_seconds = _MOVE_TIMEOUT_SECONDS
        else:
            # A thread shard acknowledges before its call returns.
            self._shard_type = _InlineShard
            self._events = self._handle_event
            self._ack_seconds = 0.0
        self.ring = HashRing(range(self.config.shards))
        self._shards = {
            index: self._shard_type(index, self.config, self._events)
            for index in range(self.config.shards)
        }
        self._next_shard_index = self.config.shards
        self._specs: Dict[str, TenantSpec] = {}
        self._routing: Dict[str, int] = {}
        self._tenant_sinks: Dict[str, List[Callable]] = {}
        self.sinks = list(sinks)
        self.metrics = FleetMetrics(registry)

        self.incidents: Dict[str, List[Incident]] = {}
        self.failures: List[Tuple[int, Optional[str], str]] = []
        self.ingest_dropped: Dict[int, int] = {}
        self.tenant_stats: Dict[str, Dict] = {}
        self.shard_stats: Dict[int, Dict] = {}

        #: Tenants mid-relocation: batches buffered until the move lands.
        self._moving: Dict[str, List[TickBatch]] = {}
        self._move_events: Dict[str, threading.Event] = {}
        self._move_payloads: Dict[str, TenantSnapshot] = {}
        self._import_events: Dict[str, threading.Event] = {}
        self._closed = False

        if self.config.backend == "process":
            self._collector_stop = threading.Event()
            self._collector = threading.Thread(
                target=self._collect_events,
                name="fchain-fleet-collector",
                daemon=True,
            )
            self._collector.start()

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def add_tenant(self, spec: TenantSpec, *, sinks=()) -> int:
        """Register one tenant; returns the shard it landed on."""
        if self._closed:
            raise ReproError("the fleet is closed")
        if spec.tenant in self._specs:
            raise ConfigurationError(
                f"tenant {spec.tenant!r} is already registered"
            )
        shard = self.ring.shard_for(spec.tenant)
        self._specs[spec.tenant] = spec
        self._routing[spec.tenant] = shard
        if sinks:
            self._tenant_sinks[spec.tenant] = list(sinks)
        self._shards[shard].send(("add", spec))
        self.metrics.tenants.set(len(self._specs))
        return shard

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._specs

    def shard_of(self, tenant: str) -> int:
        return self._routing[tenant]

    def shard_map(self) -> Dict[int, List[str]]:
        """Current placement: shard index -> sorted tenant ids."""
        placement: Dict[int, List[str]] = {
            index: [] for index in self._shards
        }
        for tenant, shard in self._routing.items():
            placement[shard].append(tenant)
        for tenants in placement.values():
            tenants.sort()
        return placement

    # ------------------------------------------------------------------
    # Ingest routing
    # ------------------------------------------------------------------
    def ingest(self, tenant: str, batch: TickBatch) -> bool:
        """Route one tick batch; returns False when it was shed.

        On the thread backend the tick runs before this returns, and so
        does every diagnosis it released; only a process shard's full
        queue sheds."""
        if self._closed:
            raise ReproError("the fleet is closed")
        if tenant in self._moving:
            self._moving[tenant].append(batch)
            return True
        shard = self._routing.get(tenant)
        if shard is None:
            raise ConfigurationError(f"tenant {tenant!r} is not registered")
        if self._shards[shard].send(
            ("ingest", tenant, batch), self.config.route_timeout
        ):
            return True
        self.ingest_dropped[shard] = self.ingest_dropped.get(shard, 0) + 1
        self.metrics.ingest_dropped.inc(1, shard=str(shard))
        return False

    # ------------------------------------------------------------------
    # Rebalance
    # ------------------------------------------------------------------
    def move_tenant(self, tenant: str, target: int) -> None:
        """Relocate one live tenant, ring-buffer state and all.

        Protocol (each step acknowledged by a shard event, which a
        thread shard reports before its call returns):

        1. buffer the tenant's inbound batches in the supervisor;
        2. ``export`` on the source shard — hand over the store, copies
           of the warm models and the aux state, close the old runtime;
        3. ``add(snapshot)`` on the target — install the snapshot as a
           live runtime, ack ``imported``;
        4. reroute and flush the buffered batches to the target.
        """
        if target not in self._shards:
            raise ConfigurationError(f"shard {target} does not exist")
        source = self._routing.get(tenant)
        if source is None:
            raise ConfigurationError(f"tenant {tenant!r} is not registered")
        if source == target:
            return
        self._moving[tenant] = []
        exported = self._move_events[tenant] = threading.Event()
        self._shards[source].send(("export", tenant))
        if not exported.wait(self._ack_seconds):
            del self._moving[tenant]
            raise ReproError(
                f"shard {source} did not export tenant {tenant!r} in time"
            )
        snapshot = self._move_payloads.pop(tenant)
        del self._move_events[tenant]
        imported = self._import_events[tenant] = threading.Event()
        self._shards[target].send(("add", snapshot))
        if not imported.wait(self._ack_seconds):
            raise ReproError(
                f"shard {target} did not import tenant {tenant!r} in time"
            )
        del self._import_events[tenant]
        self._routing[tenant] = target
        buffered = self._moving.pop(tenant)
        for batch in buffered:
            self.ingest(tenant, batch)

    def add_shard(self) -> int:
        """Grow the pool by one shard and relocate the ~1/N tenants
        whose ring position moved. Returns the new shard's index."""
        index = self._next_shard_index
        self._next_shard_index += 1
        before = dict(self._routing)
        self._shards[index] = self._shard_type(index, self.config, self._events)
        self.ring.add_shard(index)
        after = self.ring.assignments(list(before))
        for tenant, shard in after.items():
            if shard != before[tenant]:
                self.move_tenant(tenant, shard)
        return index

    def remove_shard(self, index: int) -> None:
        """Shrink the pool: relocate the shard's tenants, then drain it."""
        if index not in self._shards:
            raise ConfigurationError(f"shard {index} does not exist")
        if len(self._shards) == 1:
            raise ConfigurationError("cannot remove the last shard")
        self.ring.remove_shard(index)
        for tenant, shard in list(self._routing.items()):
            if shard == index:
                self.move_tenant(tenant, self.ring.shard_for(tenant))
        handle = self._shards.pop(index)
        handle.send(("drain",))
        handle.join()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _collect_events(self) -> None:
        """Process backend: drain the shared event queue, refresh gauges."""
        while not self._collector_stop.is_set():
            try:
                event = self._events.get(timeout=_EVENT_POLL_SECONDS)
            except queue.Empty:
                pass
            else:
                self._handle_event(event)
            # Here, not on the route path, where it cost as much as a put.
            for index, handle in list(self._shards.items()):
                self.metrics.queue_depth.set(handle.depth(), shard=str(index))

    def _handle_event(self, event) -> None:
        kind = event[0]
        if kind == "incident":
            _, shard, tenant, incident = event
            self.incidents.setdefault(tenant, []).append(incident)
            self.metrics.incidents.inc(1, tenant=tenant)
            for sink in self._tenant_sinks.get(tenant, ()):
                try:
                    sink(incident)
                except Exception as error:
                    self.failures.append((shard, tenant, repr(error)))
            for sink in self.sinks:
                try:
                    sink(tenant, incident)
                except Exception as error:
                    self.failures.append((shard, tenant, repr(error)))
        elif kind == "exported":
            _, _, tenant, snapshot = event
            self._move_payloads[tenant] = snapshot
            signal = self._move_events.get(tenant)
            if signal is not None:
                signal.set()
        elif kind == "imported":
            _, _, tenant = event
            signal = self._import_events.get(tenant)
            if signal is not None:
                signal.set()
        elif kind == "drained":
            _, shard, stats = event
            self.shard_stats[shard] = stats
            self.tenant_stats.update(stats["tenants"])
        elif kind == "error":
            _, shard, tenant, message = event
            self.failures.append((shard, tenant, message))

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain every shard, collect final stats, close the sinks."""
        if self._closed:
            return
        self._closed = True
        for handle in self._shards.values():
            handle.send(("drain",))
        for handle in self._shards.values():
            handle.join()
        if self._collector is not None:
            # The workers are gone; drain what is still on the bus.
            while True:
                try:
                    event = self._events.get_nowait()
                except queue.Empty:
                    break
                self._handle_event(event)
            self._collector_stop.set()
            self._collector.join()
        for sinks in self._tenant_sinks.values():
            for sink in sinks:
                close = getattr(sink, "close", None)
                if callable(close):
                    close()
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["FleetConfig", "FleetMetrics", "FleetSupervisor"]
