"""Webhook incident notifications: retry, circuit breaking, dead letter.

A :class:`WebhookSink` POSTs every finished incident as JSON to one or
more HTTP endpoints. Delivery is fully asynchronous: the sink's
``__call__`` (invoked from the pipeline thread or the fleet collector)
only enqueues — the actual network I/O runs on a dedicated thread
driving its own asyncio event loop, so a slow or dead endpoint can
never back up into diagnosis.

Per-delivery state machine::

    queued -> attempt -> 2xx ........................ delivered
                      -> failure -> backoff sleep -> attempt (retry)
                      -> breaker open -> counted as a failed attempt
    attempts exhausted .............................. dead letter (JSONL)

Failures back off exponentially (``backoff_base * 2**attempt``, capped
at ``backoff_cap``). Each endpoint owns a circuit breaker: after
``breaker_threshold`` *consecutive* failures the breaker opens and every
attempt short-circuits (no connection is even tried) until
``breaker_reset`` seconds pass, at which point one half-open probe is
allowed through; success closes the breaker, failure re-opens it.
Deliveries that exhaust their attempts are appended — fsync'd — to the
dead-letter JSONL file with the terminal error, so no acknowledged
incident notification is ever silently dropped.
"""

from __future__ import annotations

import asyncio
import ssl as ssl_module
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union
from urllib.parse import urlsplit

from repro.common.errors import ConfigurationError
from repro.common.jsonl import JsonlWriter
from repro.edge.http import json_response

#: Outcome labels used on the ``fchain_webhook_deliveries_total`` counter.
OUTCOME_DELIVERED = "delivered"
OUTCOME_DEAD_LETTERED = "dead_lettered"


class _CircuitBreaker:
    """Consecutive-failure breaker guarding one endpoint."""

    def __init__(self, threshold: int, reset_seconds: float) -> None:
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0

    @property
    def is_open(self) -> bool:
        return self.opened_at is not None

    def allow(self, now: float) -> bool:
        """Whether an attempt may try the network right now."""
        if self.opened_at is None:
            return True
        if now - self.opened_at >= self.reset_seconds:
            return True  # half-open: let one probe through
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            if self.opened_at is None:
                self.trips += 1
            self.opened_at = now


@dataclass
class WebhookStats:
    """Aggregate delivery counters (mirrored onto ``repro.obs``)."""

    enqueued: int = 0
    delivered: int = 0
    retried: int = 0
    dead_lettered: int = 0
    breaker_trips: int = 0
    short_circuited: int = 0


async def _post_json(
    url: str, body: bytes, timeout: float
) -> int:
    """POST ``body`` to ``url`` over a raw asyncio stream; returns status."""
    split = urlsplit(url)
    if split.scheme not in ("http", "https"):
        raise ConfigurationError(f"unsupported webhook scheme in {url!r}")
    host = split.hostname
    if not host:
        raise ConfigurationError(f"webhook URL {url!r} has no host")
    port = split.port or (443 if split.scheme == "https" else 80)
    ssl_context = (
        ssl_module.create_default_context() if split.scheme == "https" else None
    )
    path = split.path or "/"
    if split.query:
        path += f"?{split.query}"

    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port, ssl=ssl_context), timeout
    )
    try:
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {split.netloc}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await asyncio.wait_for(writer.drain(), timeout)
        status_line = await asyncio.wait_for(reader.readline(), timeout)
        parts = status_line.decode("latin-1", "replace").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise OSError(f"malformed status line {status_line!r}")
        return int(parts[1])
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ssl_module.SSLError):  # pragma: no cover - teardown
            pass


class WebhookSink:
    """Async HTTP callback sink with retry, breaker and dead letter.

    Args:
        endpoints: Webhook URL or list of URLs; every incident goes to
            every endpoint independently.
        max_attempts: Total tries per delivery per endpoint (>= 1).
        backoff_base: First retry delay in seconds; doubles per attempt.
        backoff_cap: Upper bound on a single backoff sleep.
        breaker_threshold: Consecutive failures that open the breaker.
        breaker_reset: Seconds an open breaker blocks attempts before a
            half-open probe is allowed.
        timeout: Per-request network timeout in seconds.
        dead_letter_path: JSONL file for exhausted deliveries (fsync'd).
            None disables persistence (exhausted deliveries still count).
        registry: Metrics registry (defaults to the process-wide one).
    """

    def __init__(
        self,
        endpoints: Union[str, Sequence[str]],
        *,
        max_attempts: int = 5,
        backoff_base: float = 0.25,
        backoff_cap: float = 30.0,
        breaker_threshold: int = 5,
        breaker_reset: float = 30.0,
        timeout: float = 5.0,
        dead_letter_path=None,
        registry=None,
    ) -> None:
        if isinstance(endpoints, str):
            endpoints = [endpoints]
        self.endpoints = list(endpoints)
        if not self.endpoints:
            raise ConfigurationError("WebhookSink needs at least one endpoint")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.timeout = float(timeout)
        self.stats = WebhookStats()
        self._breakers: Dict[str, _CircuitBreaker] = {
            url: _CircuitBreaker(breaker_threshold, breaker_reset)
            for url in self.endpoints
        }
        self._dead_letter: Optional[JsonlWriter] = (
            JsonlWriter(dead_letter_path, fsync=True)
            if dead_letter_path is not None
            else None
        )
        self._metrics = _WebhookMetrics(registry)
        self._lock = threading.Lock()
        self._pending = 0
        self._drained = threading.Condition(self._lock)
        self._closed = False

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="fchain-webhook", daemon=True
        )
        self._thread.start()

    # -- sink surface --------------------------------------------------
    def __call__(self, *args) -> None:
        """Enqueue one incident — ``(incident)`` or ``(tenant, incident)``."""
        if len(args) == 1:
            tenant, incident = "", args[0]
        elif len(args) == 2:
            tenant, incident = str(args[0]), args[1]
        else:
            raise TypeError("WebhookSink takes (incident) or (tenant, incident)")
        if self._closed:
            raise ConfigurationError("the webhook sink is closed")
        payload = {"tenant": tenant, **incident.to_dict()}
        body = json_response(payload).body
        with self._lock:
            self._pending += len(self.endpoints)
            self.stats.enqueued += len(self.endpoints)
        for url in self.endpoints:
            self._loop.call_soon_threadsafe(
                lambda u=url, b=body, p=payload: self._loop.create_task(
                    self._deliver(u, b, p)
                )
            )

    def breaker_state(self, url: str) -> Dict:
        """Operator view of one endpoint's breaker (``/v1/stats``)."""
        breaker = self._breakers[url]
        return {
            "open": breaker.is_open,
            "consecutive_failures": breaker.failures,
            "trips": breaker.trips,
        }

    def flush(self, timeout: Optional[float] = 30.0) -> bool:
        """Block until every enqueued delivery reached a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._drained:
            while self._pending > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._drained.wait(remaining)
        return True

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Drain, stop the delivery loop, close the dead-letter file."""
        if self._closed:
            return
        self.flush(timeout)
        self._closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if self._dead_letter is not None:
            self._dead_letter.close()

    # -- delivery machinery --------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    async def _deliver(self, url: str, body: bytes, payload: Dict) -> None:
        breaker = self._breakers[url]
        error = "unknown"
        try:
            for attempt in range(self.max_attempts):
                now = time.monotonic()
                if not breaker.allow(now):
                    error = "circuit breaker open"
                    with self._lock:
                        self.stats.short_circuited += 1
                else:
                    try:
                        status = await _post_json(url, body, self.timeout)
                    except (OSError, asyncio.TimeoutError, ValueError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        self._record_failure(breaker, url)
                    else:
                        if 200 <= status < 300:
                            breaker.record_success()
                            self._finish(url, OUTCOME_DELIVERED)
                            return
                        error = f"HTTP {status}"
                        self._record_failure(breaker, url)
                if attempt + 1 < self.max_attempts:
                    with self._lock:
                        self.stats.retried += 1
                    await asyncio.sleep(self._backoff(attempt))
            self._dead_letter_delivery(url, payload, error)
            self._finish(url, OUTCOME_DEAD_LETTERED)
        except Exception as exc:  # noqa: BLE001 - never lose the pending count
            self._dead_letter_delivery(url, payload, f"internal: {exc!r}")
            self._finish(url, OUTCOME_DEAD_LETTERED)

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_base * (2.0 ** attempt), self.backoff_cap)

    def _record_failure(self, breaker: _CircuitBreaker, url: str) -> None:
        trips_before = breaker.trips
        breaker.record_failure(time.monotonic())
        if breaker.trips > trips_before:
            with self._lock:
                self.stats.breaker_trips += 1
            self._metrics.breaker_trips.inc(1, endpoint=url)

    def _dead_letter_delivery(self, url: str, payload: Dict, error: str) -> None:
        with self._lock:
            self.stats.dead_lettered += 1
        if self._dead_letter is not None:
            self._dead_letter.write(
                {
                    "endpoint": url,
                    "error": error,
                    "attempts": self.max_attempts,
                    "abandoned_at": time.time(),
                    "incident": payload,
                }
            )

    def _finish(self, url: str, outcome: str) -> None:
        if outcome == OUTCOME_DELIVERED:
            with self._lock:
                self.stats.delivered += 1
        self._metrics.deliveries.inc(1, endpoint=url, outcome=outcome)
        with self._drained:
            self._pending -= 1
            if self._pending <= 0:
                self._drained.notify_all()


class _WebhookMetrics:
    """Lazy Prometheus counters for webhook delivery outcomes."""

    def __init__(self, registry=None) -> None:
        if registry is None:
            from repro.obs.registry import default_registry

            registry = default_registry()
        self.deliveries = registry.counter(
            "fchain_webhook_deliveries_total",
            "Webhook deliveries by terminal outcome",
            ("endpoint", "outcome"),
        )
        self.breaker_trips = registry.counter(
            "fchain_webhook_breaker_trips_total",
            "Circuit-breaker opens per webhook endpoint",
            ("endpoint",),
        )


__all__ = [
    "OUTCOME_DEAD_LETTERED",
    "OUTCOME_DELIVERED",
    "WebhookSink",
    "WebhookStats",
]
