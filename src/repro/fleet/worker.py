"""One shard: many tenant runtimes behind a single command dispatcher.

A :class:`ShardWorker` owns the :class:`~repro.fleet.tenant.TenantRuntime`
of every tenant hashed onto it. :meth:`ShardWorker.handle` applies one
command tuple (``add``, ``ingest``, ``export``, ``drain``) and the worker
reports event tuples to a receiver, so the same class serves both fleet
backends (the supervisor picks):

* **thread** — :meth:`ShardWorker.call` runs one command on the
  caller's thread and then diagnoses every trigger it released; the
  events go straight to the supervisor. A thread shard is a call: there
  is no shard thread and no queue, so the supervisor's ``ingest``
  returns once the tick, and any diagnosis it released, have run.
* **process** — :meth:`ShardWorker.serve` is a forked worker's loop over
  a bounded command queue. When no command is waiting it diagnoses the
  next ready trigger; otherwise it handles one command, then diagnoses
  at most one trigger.

Either way the shard's one thread runs its commands and its diagnoses,
and a tenant defers its warm sync until its models owe a block or it is
diagnosed (see :meth:`~repro.service.tick.TickCore.process`). Two
mechanisms keep one tenant's diagnosis storm from starving its
neighbours:

* **bounded per-tenant budget** — each tenant may have at most
  ``tenant_budget`` triggers waiting; excess triggers are shed with a
  counted drop (the storm folds into the incidents that do run);
* **fair round-robin dispatch** — the worker cycles over tenants that
  have work, taking one trigger per visit, so a tenant with a deep
  backlog cannot monopolize the shard's diagnoses.

The trade-off: a diagnosis (~10–80 ms of ``localize``) holds its shard's
ingest meanwhile — on the thread backend, the caller's ``ingest``. A
second thread per shard bought no parallelism here: ingest and diagnosis
share one interpreter lock, so it only added hand-offs and a queue of
lag. The process backend (one process per shard, see
:mod:`repro.fleet.supervisor`) keeps shards from contending with each
other and with the caller.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Optional, Tuple

from repro.fleet.tenant import TenantRuntime, TenantSnapshot, TenantSpec
from repro.service.tick import Trigger


class ShardWorker:
    """Command dispatch + fair diagnosis for one shard's tenants.

    Args:
        shard: This shard's index (stamped on every event).
        events: Receiver of event tuples: an object with a ``put``
            method (a queue) or a plain callable.
        tenant_budget: Max triggers one tenant may have queued before
            new ones are shed.
    """

    def __init__(self, shard: int, events, *, tenant_budget: int = 4) -> None:
        self.shard = shard
        self.emit = getattr(events, "put", events)
        self.tenant_budget = tenant_budget
        self.runtimes: Dict[str, TenantRuntime] = {}
        # Only tenants with queued triggers, in round-robin order: an
        # empty queue is dropped, so "is any trigger ready" is one test.
        self._queues: "OrderedDict[str, Deque[Trigger]]" = OrderedDict()
        self.shed: Dict[str, int] = {}
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

    def call(self, command) -> None:
        """Thread backend: one command on the caller's thread, then every
        trigger it released, round-robin. No further command can be
        queued while the caller waits in here, so this is
        :meth:`serve`'s idle rule."""
        self.handle(command)
        while self._queues:
            self._diagnose_next()

    def serve(self, commands) -> None:
        """Process backend: consume commands until ``drain``, diagnosing
        ready triggers between them (one per command while more are
        queued, all of them when idle); then flush and return."""
        while True:
            if self._queues and not _backlogged(commands):
                self._diagnose_next()
                continue
            if not self.handle(commands.get()):
                return
            if self._queues:
                self._diagnose_next()

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
            self._enqueue(tenant, trigger)

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
        # Triggers already released here are diagnosed here, so the
        # snapshot's incident count includes them; the snapshot itself
        # carries only the triggers still waiting for grace data.
        for trigger in self._queues.pop(tenant, ()):
            self._diagnose(tenant, runtime, trigger)
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
                # Drain-time triggers bypass the budget, mirroring the
                # pipeline's blocking put on close().
                self._enqueue(tenant, trigger, budgeted=False)
        while self._queues:
            self._diagnose_next()
        stats = self._stats()
        for runtime in self.runtimes.values():
            runtime.close()
        self.runtimes.clear()
        self.emit(("drained", self.shard, stats))

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
