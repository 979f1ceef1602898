"""One shard: many tenant runtimes behind a single command dispatcher.

A :class:`ShardWorker` owns the :class:`~repro.fleet.tenant.TenantRuntime`
of every tenant hashed onto it. :meth:`ShardWorker.handle` applies one
command tuple (``add``, ``ingest``, ``export``, ``drain``) and the worker
reports event tuples to a receiver, so the same class serves both fleet
backends (the supervisor picks):

* **thread** — the supervisor calls :meth:`ShardWorker.handle` on its
  own thread and the events go straight to it. A thread shard is a
  call: there is no shard thread and no queue, so the supervisor's
  ``ingest`` returns once the tick, and any diagnosis it released, have
  run.
* **process** — :meth:`ShardWorker.serve` is a forked worker's loop that
  handles the commands of a bounded queue one after another.

Either way a shard has one rule, the single-app pipeline's: an ingest
diagnoses every trigger its tick released before it returns, so no
trigger ever waits between commands. ``OnlinePipeline.process`` plus its
inline diagnosis is :meth:`ShardWorker._handle_ingest` for one tenant. A
tenant defers its warm sync until its models owe a block or it is
diagnosed (see :meth:`~repro.service.tick.TickCore.process`). A tenant's
diagnosis storm is folded by its own service cooldown, and a diagnosis
holds only its own shard.

The trade-off: a diagnosis (~10–80 ms of ``localize``) holds its shard's
ingest meanwhile — on the thread backend, the caller's ``ingest``. A
second thread per shard bought no parallelism here: ingest and diagnosis
share one interpreter lock, so it only added hand-offs and a queue of
lag. The process backend (one process per shard, see
:mod:`repro.fleet.supervisor`) keeps shards from contending with each
other and with the caller.
"""

from __future__ import annotations

from typing import Dict

from repro.fleet.tenant import TenantRuntime, TenantSnapshot, TenantSpec
from repro.service.tick import Trigger


class ShardWorker:
    """Command dispatch and inline diagnosis for one shard's tenants.

    Args:
        shard: This shard's index (stamped on every event).
        events: Receiver of event tuples: an object with a ``put``
            method (a queue) or a plain callable.
    """

    def __init__(self, shard: int, events) -> None:
        self.shard = shard
        self.emit = getattr(events, "put", events)
        self.runtimes: Dict[str, TenantRuntime] = {}
        self.diagnosed = 0
        self.ingest_ignored = 0

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def handle(self, command) -> bool:
        """Apply one command; returns False once it was ``drain``."""
        kind = command[0]
        if kind == "ingest":
            self._handle_ingest(command[1], command[2])
        elif kind == "add":
            self._handle_add(command[1])
        elif kind == "export":
            self._handle_export(command[1])
        elif kind == "drain":
            self._handle_drain()
            return False
        else:  # pragma: no cover - supervisor never sends others
            self.emit(("error", self.shard, None, f"unknown command {kind!r}"))
        return True

    def serve(self, commands) -> None:
        """Process backend: handle commands until ``drain``."""
        while self.handle(commands.get()):
            pass

    def _handle_ingest(self, tenant: str, batch) -> None:
        runtime = self.runtimes.get(tenant)
        if runtime is None:
            # Routed here after an export or before an add — the
            # supervisor buffers during moves, so this is exceptional.
            self.ingest_ignored += 1
            return
        try:
            ready = runtime.process(batch)
        except Exception as error:  # keep the shard alive
            self.emit(("error", self.shard, tenant, repr(error)))
            return
        for trigger in ready:
            self._diagnose(tenant, runtime, trigger)

    def _handle_add(self, payload) -> None:
        try:
            if isinstance(payload, TenantSnapshot):
                tenant = payload.spec.tenant
                runtime = TenantRuntime.from_state(payload)
                self.runtimes[tenant] = runtime
                self.emit(("imported", self.shard, tenant))
            else:
                spec: TenantSpec = payload
                self.runtimes[spec.tenant] = TenantRuntime(spec)
        except Exception as error:
            tenant = getattr(
                payload, "tenant", getattr(payload, "spec", None)
            )
            name = getattr(tenant, "tenant", tenant)
            self.emit(("error", self.shard, name, repr(error)))

    def _handle_export(self, tenant: str) -> None:
        runtime = self.runtimes.get(tenant)
        if runtime is None:
            self.emit(
                ("error", self.shard, tenant, "export of unknown tenant")
            )
            return
        # Every released trigger was diagnosed by its ingest, so the
        # snapshot carries only the triggers still waiting for grace data.
        try:
            snapshot = runtime.export_state()
        except Exception as error:  # keep serving in place
            self.emit(("error", self.shard, tenant, repr(error)))
            return
        del self.runtimes[tenant]
        runtime.close()
        self.emit(("exported", self.shard, tenant, snapshot))

    def _handle_drain(self) -> None:
        for tenant, runtime in self.runtimes.items():
            for trigger in runtime.core.flush_pending():
                self._diagnose(tenant, runtime, trigger)
        stats = self._stats()
        for runtime in self.runtimes.values():
            runtime.close()
        self.runtimes.clear()
        self.emit(("drained", self.shard, stats))

    def _diagnose(
        self, tenant: str, runtime: TenantRuntime, trigger: Trigger
    ) -> None:
        try:
            incident = runtime.diagnose(trigger)
        except Exception as error:
            self.emit(("error", self.shard, tenant, repr(error)))
            return
        self.diagnosed += 1
        self.emit(("incident", self.shard, tenant, incident))

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _stats(self) -> Dict:
        tenants: Dict[str, Dict] = {}
        for tenant, runtime in self.runtimes.items():
            core = runtime.core
            tenants[tenant] = {
                "ticks": core.ticks,
                "triggered": core.triggered,
                "incidents": core.incident_count,
                # Both read by the journey benchmark; both always 0.
                "warm_sync_skipped": 0,
                "shed": 0,
            }
        return {
            "shard": self.shard,
            "diagnosed": self.diagnosed,
            "ingest_ignored": self.ingest_ignored,
            "tenants": tenants,
        }


def shard_worker_main(shard: int, commands, events) -> None:
    """Process-backend entry point (module-level for fork picklability)."""
    ShardWorker(shard, events).serve(commands)


__all__ = ["ShardWorker", "shard_worker_main"]
