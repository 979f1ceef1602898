"""A small blocking client for the edge API.

Built on stdlib :mod:`http.client` so tests, the CI load script and the
ingest benchmark all talk to the server the same way a real collector
would — over a TCP socket, not through in-process shortcuts. Blocking
is fine here: clients live on their own threads, never on the server's
event loop.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ReproError


class EdgeResponse:
    """Status + parsed body of one API call.

    Attributes:
        status: HTTP status code.
        headers: Response headers (lower-cased names).
        body: Raw body bytes.
    """

    def __init__(self, status: int, headers: Dict[str, str], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body

    def json(self):
        return json.loads(self.body.decode("utf-8"))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class EdgeClient:
    """Talks to one edge server; one connection, keep-alive reused.

    Args:
        host: Server host.
        port: Server port.
        timeout: Socket timeout per request, seconds.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "EdgeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> EdgeResponse:
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers or {})
            raw = conn.getresponse()
            payload = raw.read()
        except (http.client.HTTPException, OSError):
            # Stale keep-alive connection; reconnect once.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers or {})
            raw = conn.getresponse()
            payload = raw.read()
        return EdgeResponse(
            raw.status,
            {name.lower(): value for name, value in raw.getheaders()},
            payload,
        )

    # -- ingest --------------------------------------------------------
    def push_json(
        self,
        samples: List[Dict],
        *,
        performance: Optional[List[Dict]] = None,
        tenant: str = "",
    ) -> EdgeResponse:
        """POST a JSON push; returns the raw response (429s included)."""
        payload: Dict = {"samples": samples}
        if performance is not None:
            payload["performance"] = performance
        if tenant:
            payload["tenant"] = tenant
        return self.request(
            "POST",
            "/v1/ingest",
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )

    def push_batches(self, batches, *, tenant: str = "") -> EdgeResponse:
        """POST in-process :class:`~repro.service.sources.TickBatch`\\ es
        as one JSON push (floats survive the round trip exactly)."""
        samples = [
            {
                "component": sample.component,
                "metric": sample.metric.value,
                "time": sample.time,
                "value": sample.value,
            }
            for batch in batches
            for sample in batch.samples
        ]
        performance = [
            {"time": batch.time, "value": batch.performance}
            for batch in batches
            if batch.performance is not None
        ]
        return self.push_json(samples, performance=performance, tenant=tenant)

    def push_csv(self, text: str, *, tenant: str = "") -> EdgeResponse:
        path = "/v1/ingest"
        if tenant:
            path += f"?tenant={tenant}"
        return self.request(
            "POST",
            path,
            body=text.encode("utf-8"),
            headers={"Content-Type": "text/csv"},
        )

    def push_json_retrying(
        self,
        samples: List[Dict],
        *,
        performance: Optional[List[Dict]] = None,
        tenant: str = "",
        max_tries: int = 200,
    ) -> EdgeResponse:
        """Push, honouring 429 ``Retry-After`` until accepted.

        The client-side half of the backpressure contract: a shed is not
        an error, it is an instruction to slow down.
        """
        for _ in range(max_tries):
            response = self.push_json(
                samples, performance=performance, tenant=tenant
            )
            if response.status != 429:
                return response
            retry_after = float(response.headers.get("retry-after", "1"))
            time.sleep(min(retry_after, 0.05))
        raise ReproError(f"push still shed after {max_tries} tries")

    # -- queries -------------------------------------------------------
    def incidents(self, **query) -> List[Dict]:
        path = "/v1/incidents"
        if query:
            path += "?" + "&".join(f"{k}={v}" for k, v in query.items())
        response = self.request("GET", path)
        if not response.ok:
            raise ReproError(f"GET {path} -> {response.status}")
        return response.json()["incidents"]

    def incident(self, incident_id: int) -> Dict:
        response = self.request("GET", f"/v1/incidents/{incident_id}")
        if not response.ok:
            raise ReproError(f"GET incident {incident_id} -> {response.status}")
        return response.json()

    def diagnosis(self, incident_id: int) -> Dict:
        response = self.request("GET", f"/v1/diagnoses/{incident_id}")
        if not response.ok:
            raise ReproError(
                f"GET diagnosis {incident_id} -> {response.status}"
            )
        return response.json()

    def stats(self) -> Dict:
        response = self.request("GET", "/v1/stats")
        if not response.ok:
            raise ReproError(f"GET /v1/stats -> {response.status}")
        return response.json()

    def metrics_text(self) -> str:
        response = self.request("GET", "/v1/metrics")
        if not response.ok:
            raise ReproError(f"GET /v1/metrics -> {response.status}")
        return response.body.decode("utf-8")

    def healthz(self) -> bool:
        return self.request("GET", "/healthz").ok

    def readyz(self) -> bool:
        return self.request("GET", "/readyz").ok

    def shutdown(self) -> EdgeResponse:
        return self.request("POST", "/v1/shutdown")

    # -- synchronisation ----------------------------------------------
    def wait_drained(self, pushed_ticks: int, *, timeout: float = 120.0) -> Dict:
        """Block until the engine consumed ``pushed_ticks`` ticks and no
        diagnosis is in flight; returns the final stats payload. In fleet
        mode the ticks are all tenants' batches handed to the fleet.

        The over-the-wire analogue of ``OnlinePipeline.close()``'s drain:
        push, wait, then read ``/v1/incidents`` knowing the answer is
        complete. That holds in pipeline mode and on thread shards, which
        tick and diagnose a batch inside the engine's ``ingest`` call.
        Process shards report no progress before the fleet closes, so a
        process fleet raises :class:`ReproError` here rather than return
        before its incidents exist.
        """
        deadline = time.monotonic() + timeout
        while True:
            stats = self.stats()
            if stats.get("fleet", {}).get("backend") == "process":
                raise ReproError(
                    "process shards report no progress before the fleet "
                    "closes; wait_drained cannot tell when they are done"
                )
            pipeline = stats.get("pipeline") or stats.get("fleet") or {}
            if (
                pipeline.get("ticks", 0) >= pushed_ticks
                and stats.get("queue_depth", 0) == 0
                and pipeline.get("inflight_triggers", 0) <= 0
            ):
                return stats
            if pipeline.get("error"):
                raise ReproError(f"pipeline failed: {pipeline['error']}")
            if time.monotonic() >= deadline:
                raise ReproError(
                    f"pipeline did not drain within {timeout}s: {stats}"
                )
            time.sleep(0.05)


def split_address(address: str) -> Tuple[str, int]:
    """``host:port`` or ``http://host:port`` -> ``(host, port)``."""
    stripped = address.strip()
    for prefix in ("http://", "https://"):
        if stripped.startswith(prefix):
            stripped = stripped[len(prefix):]
    stripped = stripped.rstrip("/")
    host, sep, port_text = stripped.rpartition(":")
    if not sep:
        raise ReproError(f"address {address!r} needs host:port")
    try:
        return host, int(port_text)
    except ValueError as error:
        raise ReproError(f"bad port in address {address!r}") from error


__all__ = ["EdgeClient", "EdgeResponse", "split_address"]
