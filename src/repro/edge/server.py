"""The network edge: async push-ingest API + REST query surface.

:class:`EdgeServer` is the process boundary the ROADMAP's "heavy
traffic" north star needs: external collectors push batched telemetry at
``POST /v1/ingest`` and query diagnoses back out of ``GET
/v1/incidents``, while the existing online machinery —
:class:`~repro.service.pipeline.OnlinePipeline` in single-tenant mode or
a :class:`~repro.fleet.supervisor.FleetSupervisor` in multi-tenant mode
— runs unchanged behind it.

Threading model (two lanes, one bounded hand-off)::

    HTTP clients ──> asyncio event loop ──> bounded queue ──> engine
                     (parse + validate,     (put_nowait,      thread
                      never blocks)          429 on full)     (ingest, SLO,
                                                              diagnosis)
                                                                  │
                                      sinks: IncidentStore, webhooks

The engine thread is the pipeline's ``run()`` in pipeline mode; in
fleet mode it feeds ``(tenant, batch)`` pairs to
``FleetSupervisor.ingest``, which with thread shards ticks and
diagnoses right there, on the engine thread. Either engine diagnoses on
its ingest thread, so this queue is where back-pressure lands: *the
event loop never blocks on the engine*.
Ingest hand-off is ``put_nowait`` only — a full queue (say, behind a
running diagnosis) sheds the push with a counted ``429`` +
``Retry-After`` instead of stalling the reactor, so ``/healthz``,
``/v1/metrics`` and incident queries stay responsive under any flood.

Every endpoint is observable: ``fchain_edge_requests_total``,
``fchain_edge_request_seconds``, ingest/shed counters, and (when
telemetry is on) an ``edge_request`` span per request.
"""

from __future__ import annotations

import asyncio
import contextlib
import queue
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, ReproError
from repro.edge.http import (
    DEFAULT_MAX_BODY_BYTES,
    HttpRequest,
    HttpResponse,
    ProtocolError,
    Router,
    error_response,
    json_response,
    read_request,
    text_response,
)
from repro.edge.ingest import Push, decode_push
from repro.edge.store import (
    IncidentStore,
    IncidentStoreSink,
    MemoryIncidentStore,
    StoredIncident,
)
from repro.obs.trace import STAGE_EDGE_REQUEST, make_tracer
from repro.service.sources import TickBatch

#: Queue item that ends the pipeline feed.
_SENTINEL = None


@dataclass
class EdgeConfig:
    """Knobs of the HTTP edge itself (the engines keep their own).

    Attributes:
        host: Bind address.
        port: Bind port (0 = ephemeral; see ``EdgeServer.port``).
        queue_depth: Bounded in-flight batches between the event loop
            and the engine thread; the backpressure knob.
        max_body_bytes: Reject larger request bodies with 413.
        retry_after_seconds: Advisory ``Retry-After`` on 429 sheds.
        allow_shutdown: Expose ``POST /v1/shutdown`` (CI and operators;
            disable on exposed deployments).
        telemetry: ``repro.obs`` tracing level for request spans.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    queue_depth: int = 256
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    retry_after_seconds: float = 1.0
    allow_shutdown: bool = True
    telemetry: str = "off"

    def validate(self) -> "EdgeConfig":
        if self.queue_depth < 1:
            raise ConfigurationError("queue_depth must be >= 1")
        if self.max_body_bytes < 1:
            raise ConfigurationError("max_body_bytes must be >= 1")
        return self


class QueueFeed:
    """A bounded, thread-safe feed the HTTP side pushes into.

    The engine thread blocks on :meth:`__next__`; the event loop only
    ever calls :meth:`put_nowait`, which raises ``queue.Full`` instead
    of waiting — the caller turns that into a 429.
    """

    def __init__(self, maxsize: int) -> None:
        self._queue: "queue.Queue" = queue.Queue(maxsize=maxsize)
        self._closed = False

    def put_nowait(self, batch: TickBatch) -> None:
        if self._closed:
            raise ReproError("the feed is closed")
        self._queue.put_nowait(batch)

    def qsize(self) -> int:
        return self._queue.qsize()

    def close(self, timeout: float = 10.0) -> None:
        """End the feed: the consumer sees StopIteration after the tail."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._queue.put_nowait(_SENTINEL)
                return
            except queue.Full:
                if time.monotonic() >= deadline:
                    # Consumer is gone or wedged; drop one queued batch to
                    # make room so shutdown still terminates.
                    with contextlib.suppress(queue.Empty):
                        self._queue.get_nowait()
                time.sleep(0.01)

    def __iter__(self) -> "QueueFeed":
        return self

    def __next__(self) -> TickBatch:
        item = self._queue.get()
        if item is _SENTINEL:
            raise StopIteration
        return item


class _EdgeMetrics:
    """Request/ingest counters every endpoint reports into."""

    def __init__(self, registry=None) -> None:
        if registry is None:
            from repro.obs.registry import default_registry

            registry = default_registry()
        self.requests = registry.counter(
            "fchain_edge_requests_total",
            "HTTP requests served by the edge, by route and status",
            ("route", "method", "status"),
        )
        self.request_seconds = registry.histogram(
            "fchain_edge_request_seconds",
            "Wall-clock seconds per edge request",
            ("route",),
        )
        self.ingest_samples = registry.counter(
            "fchain_edge_ingest_samples_total",
            "Metric samples accepted through POST /v1/ingest",
        )
        self.ingest_batches = registry.counter(
            "fchain_edge_ingest_batches_total",
            "Tick batches accepted through POST /v1/ingest",
        )
        self.shed_batches = registry.counter(
            "fchain_edge_shed_batches_total",
            "Tick batches shed with 429 because the ingest queue was full",
        )


class EdgeServer:
    """HTTP front end over one pipeline or one fleet.

    Build it, attach an engine (:meth:`attach_pipeline` or
    :meth:`attach_fleet`), then :meth:`start` / :meth:`serve_forever`.

    Args:
        config: Edge knobs (bind address, queue depth, limits).
        incident_store: Durable store the REST surface reads and the
            engine's sink writes (defaults to in-memory).
        registry: Metrics registry (defaults to the process-wide one).
    """

    def __init__(
        self,
        config: Optional[EdgeConfig] = None,
        *,
        incident_store: Optional[IncidentStore] = None,
        registry=None,
    ) -> None:
        self.config = (config or EdgeConfig()).validate()
        self.store = incident_store or MemoryIncidentStore()
        self._registry = registry
        self.metrics = _EdgeMetrics(registry)
        self.tracer = make_tracer(self.config.telemetry, registry=registry)

        self.router = Router()
        self._register_routes()

        self._feed: Optional[QueueFeed] = None
        self.pipeline = None
        self.supervisor = None
        self._webhooks: List = []
        self._pipeline_thread: Optional[threading.Thread] = None
        self._fleet_thread: Optional[threading.Thread] = None
        self.pipeline_error: Optional[str] = None
        self.routed_batches = 0

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._asyncio_server: Optional[asyncio.base_events.Server] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._shutdown = threading.Event()
        self._stopped = False

        self.port: Optional[int] = None
        self.enqueued_batches = 0
        self.shed_batches = 0
        self.accepted_samples = 0

    # ------------------------------------------------------------------
    # Engine attachment
    # ------------------------------------------------------------------
    def attach_pipeline(
        self,
        detector,
        *,
        fchain_config=None,
        seed: object = 0,
        sinks=(),
    ) -> None:
        """Single-tenant mode: pushes feed one online pipeline."""
        from repro.service.pipeline import OnlinePipeline

        if self.pipeline is not None or self.supervisor is not None:
            raise ConfigurationError("an engine is already attached")
        self._feed = QueueFeed(self.config.queue_depth)
        self._webhooks = [s for s in sinks if hasattr(s, "breaker_state")]
        self.pipeline = OnlinePipeline(
            self._feed,
            detector,
            config=fchain_config,
            seed=seed,
            sinks=[IncidentStoreSink(self.store), *sinks],
            registry=self._registry,
        )

    def attach_fleet(self, supervisor, *, sinks=()) -> None:
        """Multi-tenant mode: pushes route by tenant into a fleet.

        Pushes reach the supervisor through the same bounded feed as in
        pipeline mode, now of ``(tenant, batch)`` pairs, consumed by one
        engine thread that calls ``supervisor.ingest``. The server adds
        an ``IncidentStoreSink(self.store)`` to the supervisor's sinks
        when it has none, so incidents always reach the REST surface.
        """
        if self.pipeline is not None or self.supervisor is not None:
            raise ConfigurationError("an engine is already attached")
        self._feed = QueueFeed(self.config.queue_depth)
        self.supervisor = supervisor
        self._webhooks = [s for s in sinks if hasattr(s, "breaker_state")]
        wired = any(
            isinstance(sink, IncidentStoreSink) and sink.store is self.store
            for sink in supervisor.sinks
        )
        if not wired:
            supervisor.sinks.append(IncidentStoreSink(self.store))
        for sink in sinks:
            if sink not in supervisor.sinks:
                supervisor.sinks.append(sink)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind, start serving, start the engine thread; returns bound."""
        if self.pipeline is None and self.supervisor is None:
            raise ConfigurationError(
                "attach_pipeline(...) or attach_fleet(...) before start()"
            )
        if self._loop_thread is not None:
            raise ConfigurationError("the server is already started")
        if self.pipeline is not None:
            self._pipeline_thread = threading.Thread(
                target=self._pipeline_loop,
                name="fchain-edge-pipeline",
                daemon=True,
            )
            self._pipeline_thread.start()
        else:
            self._fleet_thread = threading.Thread(
                target=self._fleet_loop, name="fchain-edge-fleet", daemon=True
            )
            self._fleet_thread.start()
        self._loop_thread = threading.Thread(
            target=self._serve_loop, name="fchain-edge-http", daemon=True
        )
        self._loop_thread.start()
        if not self._started.wait(timeout=10.0):
            raise ReproError("the edge server did not start within 10s")
        if self._start_error is not None:
            raise ReproError(
                f"the edge server failed to bind: {self._start_error!r}"
            )

    def serve_forever(self) -> None:
        """Start (if needed) and block until shutdown is requested."""
        if self._loop_thread is None:
            self.start()
        try:
            self._shutdown.wait()
        except KeyboardInterrupt:
            pass
        self.stop()

    def request_shutdown(self) -> None:
        """Ask ``serve_forever`` to unwind (idempotent, non-blocking)."""
        self._shutdown.set()

    def stop(self) -> None:
        """Graceful teardown: stop accepting, drain the engine, flush."""
        if self._stopped:
            return
        self._stopped = True
        self._shutdown.set()
        # 1. Stop the HTTP side: no new pushes can arrive.
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._begin_loop_shutdown)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)
        # 2. End the feed; the engine drains the queued tail. The
        #    pipeline's run() then closes the pipeline (pending
        #    triggers, sinks); the fleet is closed here once its feed
        #    thread is done.
        if self._feed is not None:
            self._feed.close()
        if self._pipeline_thread is not None:
            self._pipeline_thread.join(timeout=60.0)
        if self._fleet_thread is not None:
            self._fleet_thread.join(timeout=60.0)
        if self._fleet_thread is not None and self._fleet_thread.is_alive():
            # Still inside ``ingest``: a thread shard has no queue to
            # serialize a drain behind it, so leave the fleet open.
            self.pipeline_error = "the fleet engine did not stop within 60s"
        elif self.supervisor is not None and not getattr(
            self.supervisor, "_closed", False
        ):
            self.supervisor.close()
        for webhook in self._webhooks:
            close = getattr(webhook, "close", None)
            if callable(close):
                close()
        self.store.flush()

    def close(self) -> None:
        self.stop()
        self.store.close()

    def __enter__(self) -> "EdgeServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def ready(self) -> bool:
        """Whether pushes currently have a live engine behind them."""
        if self.pipeline is not None:
            return (
                self._pipeline_thread is not None
                and self._pipeline_thread.is_alive()
                and self.pipeline_error is None
            )
        if self.supervisor is not None:
            return (
                self._fleet_thread is not None
                and self._fleet_thread.is_alive()
                and self.pipeline_error is None
                and not getattr(self.supervisor, "_closed", False)
            )
        return False

    # ------------------------------------------------------------------
    # Pipeline thread
    # ------------------------------------------------------------------
    def _pipeline_loop(self) -> None:
        try:
            self.pipeline.run()
        except Exception as error:  # noqa: BLE001 - surfaced via /readyz
            self.pipeline_error = repr(error)

    def _fleet_loop(self) -> None:
        try:
            for tenant, batch in self._feed:
                self.supervisor.ingest(tenant, batch)
                self.routed_batches += 1
        except Exception as error:  # noqa: BLE001 - surfaced via /readyz
            self.pipeline_error = repr(error)

    # ------------------------------------------------------------------
    # Event-loop thread
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_connection, self.config.host, self.config.port
                )
            )
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            self._start_error = error
            self._started.set()
            loop.close()
            return
        self._asyncio_server = server
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def _begin_loop_shutdown(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
        self._loop.stop()

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body_bytes
                    )
                except ProtocolError as error:
                    writer.write(
                        error_response(error.status, str(error)).encode(
                            keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                response = self._respond(request)
                keep_alive = request.keep_alive
                writer.write(response.encode(keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.TimeoutError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled this connection; absorb so the
            # task finishes clean instead of logging at shutdown.
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    def _respond(self, request: HttpRequest) -> HttpResponse:
        started = time.perf_counter()
        route, params, allowed = self.router.resolve(
            request.method, request.path
        )
        label = route.template if route is not None else "unmatched"
        tracer = self.tracer
        with tracer.span(
            STAGE_EDGE_REQUEST, route=label, method=request.method
        ) as span:
            if route is None:
                if allowed:
                    response = error_response(
                        405,
                        f"{request.method} not allowed on {request.path}",
                        Allow=", ".join(sorted(set(allowed))),
                    )
                else:
                    response = error_response(
                        404, f"no route for {request.path}"
                    )
            else:
                try:
                    response = route.handler(request, **params)
                except ProtocolError as error:
                    response = error_response(error.status, str(error))
                except Exception as error:  # noqa: BLE001 - 500, keep serving
                    response = error_response(
                        500, f"internal error: {type(error).__name__}: {error}"
                    )
            span.tag(status=response.status)
        if tracer.enabled:
            tracer.observe(span)
        self.metrics.requests.inc(
            1, route=label, method=request.method, status=str(response.status)
        )
        self.metrics.request_seconds.observe(
            time.perf_counter() - started, route=label
        )
        return response

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _register_routes(self) -> None:
        add = self.router.add
        add("POST", "/v1/ingest", self._handle_ingest)
        add("GET", "/v1/incidents", self._handle_incident_list)
        add("GET", "/v1/incidents/{incident_id}", self._handle_incident_get)
        add("GET", "/v1/diagnoses/{incident_id}", self._handle_diagnosis_get)
        add("GET", "/v1/metrics", self._handle_metrics)
        add("GET", "/v1/stats", self._handle_stats)
        add("GET", "/healthz", self._handle_healthz)
        add("GET", "/readyz", self._handle_readyz)
        add("POST", "/v1/shutdown", self._handle_shutdown)

    def _handle_ingest(self, request: HttpRequest) -> HttpResponse:
        push = decode_push(request)
        if self.supervisor is None and push.tenant:
            raise ProtocolError(
                400,
                "tenant-routed pushes need fleet mode "
                "(this edge fronts a single pipeline)",
            )
        if self.supervisor is not None and not push.tenant:
            raise ProtocolError(
                400,
                "fleet mode: name the tenant in the push body or "
                "?tenant= query parameter",
            )
        if not self.ready():
            return error_response(
                503,
                "the ingest engine is not running"
                + (f": {self.pipeline_error}" if self.pipeline_error else ""),
            )
        accepted = self._route_batches(push)
        rejected = len(push.batches) - accepted
        accepted_samples = sum(
            len(batch.samples) for batch in push.batches[:accepted]
        )
        self.enqueued_batches += accepted
        self.accepted_samples += accepted_samples
        if accepted:
            self.metrics.ingest_batches.inc(accepted)
        if accepted_samples:
            self.metrics.ingest_samples.inc(accepted_samples)
        if rejected:
            self.shed_batches += rejected
            self.metrics.shed_batches.inc(rejected)
            return json_response(
                {
                    "error": "ingest queue full",
                    "accepted_batches": accepted,
                    "rejected_batches": rejected,
                    "retry_after_seconds": self.config.retry_after_seconds,
                },
                429,
                **{"Retry-After": str(max(1, int(self.config.retry_after_seconds)))},
            )
        return json_response(
            {
                "accepted_batches": accepted,
                "accepted_samples": accepted_samples,
                "tenant": push.tenant,
            },
            202,
        )

    def _route_batches(self, push: Push) -> int:
        """Enqueue batches in tick order; returns how many were accepted.

        Both modes are **all-or-nothing**: a push either fits in the
        queue's free space or is shed whole, so a client that retries a
        429'd push verbatim never double-ingests the accepted prefix.
        The check-then-put is race-free because the event loop is the
        queue's only producer and the consumer only frees space.

        Fleet mode checks the tenant first (404 when unknown) and queues
        ``(tenant, batch)`` pairs.
        """
        if self.supervisor is not None:
            if push.tenant not in self.supervisor:
                raise ProtocolError(404, f"tenant {push.tenant!r} is not registered")
            push = replace(
                push, batches=[(push.tenant, batch) for batch in push.batches]
            )
        if len(push.batches) > self.config.queue_depth:
            raise ProtocolError(
                413,
                f"push of {len(push.batches)} ticks exceeds the ingest "
                f"queue capacity of {self.config.queue_depth}: split "
                "the push",
            )
        if len(push.batches) > self.config.queue_depth - self._feed.qsize():
            return 0
        for batch in push.batches:
            self._feed.put_nowait(batch)
        return len(push.batches)

    # -- query surface -------------------------------------------------
    @staticmethod
    def _summary(record: StoredIncident) -> Dict:
        return {
            "id": record.id,
            "tenant": record.tenant,
            "created_at": record.created_at,
            "violation_tick": record.violation_tick,
            "faulty": record.incident.get("faulty", []),
            "external_factor": record.incident.get("external_factor", False),
            "quality": record.incident.get("quality", ""),
        }

    def _handle_incident_list(self, request: HttpRequest) -> HttpResponse:
        def _int_param(name: str) -> Optional[int]:
            raw = request.query.get(name)
            if raw is None or raw == "":
                return None
            try:
                return int(raw)
            except ValueError:
                raise ProtocolError(
                    400, f"query parameter {name} must be an integer"
                ) from None

        records = self.store.query(
            tenant=request.query.get("tenant"),
            since=_int_param("since"),
            until=_int_param("until"),
            limit=_int_param("limit"),
        )
        return json_response(
            {
                "incidents": [self._summary(record) for record in records],
                "count": len(records),
            }
        )

    def _get_record(self, incident_id: str) -> StoredIncident:
        try:
            numeric = int(incident_id)
        except ValueError:
            raise ProtocolError(
                400, f"incident id must be an integer, got {incident_id!r}"
            ) from None
        record = self.store.get(numeric)
        if record is None:
            raise ProtocolError(404, f"no incident {numeric}")
        return record

    def _handle_incident_get(
        self, request: HttpRequest, incident_id: str
    ) -> HttpResponse:
        return json_response(self._get_record(incident_id).to_dict())

    def _handle_diagnosis_get(
        self, request: HttpRequest, incident_id: str
    ) -> HttpResponse:
        record = self._get_record(incident_id)
        return json_response(
            {
                "id": record.id,
                "tenant": record.tenant,
                "diagnosis": record.diagnosis,
            }
        )

    def _handle_metrics(self, request: HttpRequest) -> HttpResponse:
        from repro.obs.registry import default_registry

        registry = self._registry or default_registry()
        return text_response(registry.render_prometheus())

    def _handle_stats(self, request: HttpRequest) -> HttpResponse:
        stats: Dict = {
            "mode": "fleet" if self.supervisor is not None else "pipeline",
            "ready": self.ready(),
            "enqueued_batches": self.enqueued_batches,
            "shed_batches": self.shed_batches,
            "accepted_samples": self.accepted_samples,
            "queue_depth": self._feed.qsize() if self._feed else 0,
            "queue_capacity": self.config.queue_depth,
            "incidents": self.store.count(),
            "store_backend": self.store.backend,
        }
        if self.pipeline is not None:
            pipeline = self.pipeline
            stats["pipeline"] = {
                "ticks": pipeline.ticks,
                "triggered": pipeline.triggered,
                "inflight_triggers": (
                    pipeline.triggered
                    - len(pipeline.incidents)
                    - len(pipeline.failures)
                ),
                "error": self.pipeline_error,
            }
        if self.supervisor is not None:
            supervisor = self.supervisor
            stats["fleet"] = {
                "backend": supervisor.config.backend,
                "tenants": len(getattr(supervisor, "_specs", {})),
                # Handed to ``supervisor.ingest``: with thread shards,
                # ticked and diagnosed; process shards only queued them
                # and report nothing back before ``close()``.
                "ticks": self.routed_batches,
                "error": self.pipeline_error,
                # A copy: the engine thread may add a tenant's list.
                "incidents": sum(map(len, list(supervisor.incidents.values()))),
                "ingest_dropped": sum(
                    supervisor.ingest_dropped.values()
                ),
                "failures": len(supervisor.failures),
            }
        if self._webhooks:
            stats["webhooks"] = [
                {
                    "endpoints": {
                        url: sink.breaker_state(url) for url in sink.endpoints
                    },
                    "delivered": sink.stats.delivered,
                    "dead_lettered": sink.stats.dead_lettered,
                }
                for sink in self._webhooks
            ]
        return json_response(stats)

    def _handle_healthz(self, request: HttpRequest) -> HttpResponse:
        return json_response({"status": "ok"})

    def _handle_readyz(self, request: HttpRequest) -> HttpResponse:
        if self.ready():
            return json_response({"status": "ready"})
        return error_response(
            503,
            "not ready"
            + (f": {self.pipeline_error}" if self.pipeline_error else ""),
        )

    def _handle_shutdown(self, request: HttpRequest) -> HttpResponse:
        if not self.config.allow_shutdown:
            raise ProtocolError(404, "shutdown endpoint is disabled")
        self.request_shutdown()
        return json_response({"status": "shutting down"}, 202)


__all__ = ["EdgeConfig", "EdgeServer", "QueueFeed"]
