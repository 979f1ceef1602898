"""One shard: many tenant runtimes behind a single command loop.

A :class:`ShardWorker` owns the :class:`~repro.fleet.tenant.TenantRuntime`
of every tenant hashed onto it. It is transport-agnostic: :meth:`serve`
consumes command tuples from a queue-like object and emits event tuples
to another, so the same class runs on a thread (queue.Queue) or in a
forked worker process (multiprocessing.Queue) — the supervisor picks.

**One thread per shard.** :meth:`serve` is the shard's only thread: it
handles the commands and runs the diagnoses too. When no command is
waiting it diagnoses the next ready trigger; otherwise it handles one
command, then diagnoses at most one trigger. A trigger an ingest
releases is therefore localized before the shard's next command, not
after ingest ends. While more commands are queued behind an ingest, the
tenant defers its warm sync until its models owe a block (see
:meth:`~repro.service.tick.TickCore.process`). Two mechanisms keep one
tenant's diagnosis storm from starving its neighbours:

* **bounded per-tenant budget** — each tenant may have at most
  ``tenant_budget`` triggers waiting; excess triggers are shed with a
  counted drop (the storm folds into the incidents that do run);
* **fair round-robin dispatch** — the loop cycles over tenants that
  have work, taking one trigger per visit, so a tenant with a deep
  backlog cannot monopolize the shard's diagnoses.

The trade-off: a diagnosis (~50–80 ms of ``localize``) holds its
shard's ingest meanwhile. The bounded command queue and the
supervisor's ``route_timeout`` are the back-pressure, as for any slow
tick. A separate diagnosis thread bought no parallelism here — ingest
and diagnosis share one interpreter lock, so it only interleaved the
two — and it let diagnoses back up behind ingest until ingest ended.
The process backend (one process per shard, see
:mod:`repro.fleet.supervisor`) keeps shards from contending with each
other and with the caller.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Optional, Tuple

from repro.fleet.tenant import TenantRuntime, TenantSnapshot, TenantSpec
from repro.service.tick import Trigger


class ShardWorker:
    """Serve loop + fair diagnosis for one shard's tenants.

    Args:
        shard: This shard's index (stamped on every event).
        events: Queue-like object receiving event tuples.
        tenant_budget: Max triggers one tenant may have queued before
            new ones are shed.
    """

    def __init__(self, shard: int, events, *, tenant_budget: int = 4) -> None:
        self.shard = shard
        self.events = events
        self.tenant_budget = tenant_budget
        self.runtimes: Dict[str, TenantRuntime] = {}
        # Only tenants with queued triggers, in round-robin order: an
        # empty queue is dropped, so "is any trigger ready" is one test.
        self._queues: "OrderedDict[str, Deque[Trigger]]" = OrderedDict()
        self.shed: Dict[str, int] = {}
        self.diagnosed = 0
        self.ingest_ignored = 0

    # ------------------------------------------------------------------
    # Command loop
    # ------------------------------------------------------------------
    def serve(self, commands) -> None:
        """Consume commands until ``drain``, diagnosing ready triggers
        between them; then flush and return."""
        while True:
            if self._queues and not _backlogged(commands):
                self._diagnose_next()
                continue
            command = commands.get()
            kind = command[0]
            if kind == "ingest":
                self._handle_ingest(
                    command[1], command[2], queued=_backlogged(commands)
                )
            elif kind == "add":
                self._handle_add(command[1])
            elif kind == "remove":
                self._handle_remove(command[1])
            elif kind == "export":
                self._handle_export(command[1])
            elif kind == "drain":
                self._handle_drain()
                return
            else:  # pragma: no cover - supervisor never sends others
                self.events.put(
                    ("error", self.shard, None, f"unknown command {kind!r}")
                )
            if self._queues:
                self._diagnose_next()

    def _handle_ingest(
        self, tenant: str, batch, *, queued: bool = False
    ) -> None:
        runtime = self.runtimes.get(tenant)
        if runtime is None:
            # Routed here after an export or before an add — the
            # supervisor buffers during moves, so this is exceptional.
            self.ingest_ignored += 1
            return
        try:
            ready = runtime.process(batch, queued=queued)
        except Exception as error:  # keep the shard alive
            self.events.put(("error", self.shard, tenant, repr(error)))
            return
        for trigger in ready:
            self._enqueue(tenant, trigger)

    def _handle_add(self, payload) -> None:
        try:
            if isinstance(payload, TenantSnapshot):
                tenant = payload.spec.tenant
                runtime = TenantRuntime.from_state(payload)
                self.runtimes[tenant] = runtime
                self.events.put(("imported", self.shard, tenant))
            else:
                spec: TenantSpec = payload
                self.runtimes[spec.tenant] = TenantRuntime(spec)
        except Exception as error:
            tenant = getattr(
                payload, "tenant", getattr(payload, "spec", None)
            )
            name = getattr(tenant, "tenant", tenant)
            self.events.put(("error", self.shard, name, repr(error)))

    def _handle_remove(self, tenant: str) -> None:
        runtime = self.runtimes.pop(tenant, None)
        if runtime is not None:
            runtime.close()
        self._queues.pop(tenant, None)

    def _handle_export(self, tenant: str) -> None:
        runtime = self.runtimes.get(tenant)
        if runtime is None:
            self.events.put(
                ("error", self.shard, tenant, "export of unknown tenant")
            )
            return
        # Triggers already released here are diagnosed here, so the
        # snapshot's incident count includes them; the snapshot itself
        # carries only the triggers still waiting for grace data.
        for trigger in self._queues.pop(tenant, ()):
            self._diagnose(tenant, runtime, trigger)
        try:
            snapshot = runtime.export_state()
        except Exception as error:  # keep serving in place
            self.events.put(("error", self.shard, tenant, repr(error)))
            return
        del self.runtimes[tenant]
        runtime.close()
        self.events.put(("exported", self.shard, tenant, snapshot))

    def _handle_drain(self) -> None:
        for tenant, runtime in self.runtimes.items():
            for trigger in runtime.core.flush_pending():
                # Drain-time triggers bypass the budget, mirroring the
                # pipeline's blocking put on close().
                self._enqueue(tenant, trigger, budgeted=False)
        while self._queues:
            self._diagnose_next()
        stats = self._stats()
        for runtime in self.runtimes.values():
            runtime.close()
        self.runtimes.clear()
        self.events.put(("drained", self.shard, stats))

    # ------------------------------------------------------------------
    # Fair diagnosis
    # ------------------------------------------------------------------
    def _enqueue(
        self, tenant: str, trigger: Trigger, *, budgeted: bool = True
    ) -> None:
        pending = self._queues.get(tenant)
        if pending is None:
            pending = self._queues[tenant] = deque()
        elif budgeted and len(pending) >= self.tenant_budget:
            self.shed[tenant] = self.shed.get(tenant, 0) + 1
            return
        pending.append(trigger)

    def _next_trigger(self) -> Optional[Tuple[str, Trigger]]:
        """Round-robin: the first tenant with work, rotated to the back."""
        if not self._queues:
            return None
        tenant, pending = next(iter(self._queues.items()))
        trigger = pending.popleft()
        if pending:
            self._queues.move_to_end(tenant)
        else:
            del self._queues[tenant]
        return tenant, trigger

    def _diagnose_next(self) -> None:
        tenant, trigger = self._next_trigger()
        self._diagnose(tenant, self.runtimes[tenant], trigger)

    def _diagnose(
        self, tenant: str, runtime: TenantRuntime, trigger: Trigger
    ) -> None:
        try:
            incident = runtime.diagnose(trigger)
        except Exception as error:
            self.events.put(("error", self.shard, tenant, repr(error)))
            return
        self.diagnosed += 1
        self.events.put(("incident", self.shard, tenant, incident))

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
                # Read by the journey benchmark; always 0.
                "warm_sync_skipped": 0,
                "shed": self.shed.get(tenant, 0),
            }
        return {
            "shard": self.shard,
            "diagnosed": self.diagnosed,
            "shed_total": sum(self.shed.values()),
            "ingest_ignored": self.ingest_ignored,
            "tenants": tenants,
        }


def _backlogged(commands) -> bool:
    """Whether more commands are already waiting on the shard's queue."""
    try:
        return commands.qsize() > 0
    except NotImplementedError:  # multiprocessing queues on macOS
        return False


def shard_worker_main(
    shard: int, commands, events, tenant_budget: int
) -> None:
    """Process-backend entry point (module-level for fork picklability)."""
    ShardWorker(shard, events, tenant_budget=tenant_budget).serve(commands)


__all__ = ["ShardWorker", "shard_worker_main"]
