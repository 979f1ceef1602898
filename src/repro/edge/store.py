"""Durable incident stores behind one pluggable interface.

An :class:`IncidentStore` persists every diagnosed
:class:`~repro.service.incident.Incident` so the REST surface can serve
``GET /v1/incidents`` after the pipeline — or the process — that
produced them is gone. Two backends implement the same five-method
interface and are contract-tested to return *identical* results for the
same append sequence (``tests/edge/test_store.py``):

* :class:`JsonlIncidentStore` — append-only JSON-lines segments in a
  directory, rotated at a byte threshold, every append fsync'd through
  the shared :class:`~repro.common.jsonl.JsonlWriter`. Crash-safe by
  construction: a torn final line is dropped on recovery, everything
  before it survives.
* :class:`SqliteIncidentStore` — a stdlib ``sqlite3`` database in WAL
  mode with ``synchronous=FULL``, indexed by tenant and violation tick
  so time-range queries stay cheap as history grows.

:class:`MemoryIncidentStore` is the in-process null backend (tests,
``--store memory``). :class:`IncidentStoreSink` adapts any backend into
a pipeline or fleet incident sink.

Record identity: ids are assigned by the store, sequentially from 1, in
append order — the contract tests pin that both durable backends hand
out the same ids for the same sequence.
"""

from __future__ import annotations

import json
import pathlib
import re
import sqlite3
import threading
import time as time_module
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.common.errors import ConfigurationError
from repro.common.jsonl import JsonlWriter, read_jsonl

PathLike = Union[str, pathlib.Path]

#: Rotate a JSONL segment once it holds this many bytes.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^incidents-(\d{8})\.jsonl$")


def diagnosis_payload(diagnosis) -> Dict:
    """JSON-safe detail view of a diagnosis (``GET /v1/diagnoses/{id}``).

    Built defensively with ``getattr`` so sinks fed by stubbed engines
    (tests) or future diagnosis shapes still store something useful.
    """
    if diagnosis is None:
        return {}
    payload: Dict = {
        "faulty": sorted(getattr(diagnosis, "faulty", ()) or ()),
        "external_factor": bool(getattr(diagnosis, "external_factor", False)),
        "skipped": sorted(getattr(diagnosis, "skipped", ()) or ()),
        "confidence": getattr(diagnosis, "confidence", "full"),
        "latency_seconds": float(getattr(diagnosis, "latency_seconds", 0.0)),
        "violation_time": getattr(diagnosis, "violation_time", None),
        "validated": bool(getattr(diagnosis, "validated", False)),
    }
    reasons = getattr(diagnosis, "skipped_reasons", None)
    if reasons:
        payload["skipped_reasons"] = dict(reasons)
    chain = getattr(diagnosis, "chain", None)
    links = getattr(chain, "links", None)
    if links:
        payload["chain"] = [
            {"component": component, "onset": int(onset)}
            for component, onset in links
        ]
    summary = getattr(diagnosis, "summary", None)
    if callable(summary):
        try:
            payload["summary"] = summary()
        except Exception:  # noqa: BLE001 - stub diagnoses may half-exist
            pass
    return payload


@dataclass
class StoredIncident:
    """One persisted incident.

    Attributes:
        id: Store-assigned sequence number (1-based, append order).
        tenant: Owning tenant (empty in single-pipeline mode).
        created_at: Unix timestamp the record was appended.
        incident: The ``Incident.to_dict()`` summary payload.
        diagnosis: The :func:`diagnosis_payload` detail payload.
    """

    id: int
    tenant: str
    created_at: float
    incident: Dict = field(default_factory=dict)
    diagnosis: Dict = field(default_factory=dict)

    @property
    def violation_tick(self) -> int:
        return int(self.incident.get("violation_tick", 0))

    def to_dict(self) -> Dict:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "created_at": self.created_at,
            "incident": self.incident,
            "diagnosis": self.diagnosis,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "StoredIncident":
        return cls(
            id=int(payload["id"]),
            tenant=payload.get("tenant", ""),
            created_at=float(payload.get("created_at", 0.0)),
            incident=payload.get("incident", {}),
            diagnosis=payload.get("diagnosis", {}),
        )


class IncidentStore:
    """The pluggable durable-store interface.

    Appends are crash-safe (each backend defines how); queries filter by
    tenant and by *violation tick* range — the time axis diagnoses live
    on — newest first, with an optional limit.
    """

    backend = "abstract"

    def __init__(self) -> None:
        # Serializes id assignment against the append that consumes it;
        # backends layer their own storage lock underneath.
        self._append_mutex = threading.Lock()

    def append(
        self, incident, *, tenant: str = "", created_at: Optional[float] = None
    ) -> StoredIncident:
        """Persist one incident; returns the stored record with its id."""
        with self._append_mutex:
            record = self._make_record(incident, tenant, created_at)
            self._append(record)
        return record

    def get(self, incident_id: int) -> Optional[StoredIncident]:
        raise NotImplementedError

    def query(
        self,
        *,
        tenant: Optional[str] = None,
        since: Optional[int] = None,
        until: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[StoredIncident]:
        """Newest-first records, filtered by tenant and violation tick.

        ``since``/``until`` bound the violation tick inclusively.
        """
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError

    def flush(self) -> None:
        """Make every completed append durable (no-op where implicit)."""

    def close(self) -> None:
        """Release file handles/connections; the store stays readable."""

    def _append(self, record: StoredIncident) -> None:
        raise NotImplementedError

    def _make_record(
        self, incident, tenant: str, created_at: Optional[float]
    ) -> StoredIncident:
        if isinstance(incident, StoredIncident):
            raise ConfigurationError(
                "append takes a service Incident, not a StoredIncident"
            )
        payload = incident.to_dict()
        return StoredIncident(
            id=self._next_id(),
            tenant=tenant,
            created_at=(
                time_module.time() if created_at is None else float(created_at)
            ),
            incident=payload,
            diagnosis=diagnosis_payload(getattr(incident, "diagnosis", None)),
        )

    def _next_id(self) -> int:
        raise NotImplementedError

    def __enter__(self) -> "IncidentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _match(
    record: StoredIncident,
    tenant: Optional[str],
    since: Optional[int],
    until: Optional[int],
) -> bool:
    if tenant is not None and record.tenant != tenant:
        return False
    tick = record.violation_tick
    if since is not None and tick < since:
        return False
    if until is not None and tick > until:
        return False
    return True


class MemoryIncidentStore(IncidentStore):
    """Volatile in-process backend (the contract-test reference)."""

    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._records: List[StoredIncident] = []
        self._lock = threading.Lock()

    def _next_id(self) -> int:
        return len(self._records) + 1

    def _append(self, record: StoredIncident) -> None:
        with self._lock:
            self._records.append(record)

    def get(self, incident_id: int) -> Optional[StoredIncident]:
        with self._lock:
            if 1 <= incident_id <= len(self._records):
                return self._records[incident_id - 1]
        return None

    def query(self, *, tenant=None, since=None, until=None, limit=None):
        with self._lock:
            matched = [
                record
                for record in reversed(self._records)
                if _match(record, tenant, since, until)
            ]
        return matched[:limit] if limit is not None else matched

    def count(self) -> int:
        with self._lock:
            return len(self._records)


class JsonlIncidentStore(IncidentStore):
    """Append-only JSONL segments with rotation; every append is fsync'd.

    Args:
        directory: Segment directory (created if missing).
        segment_bytes: Rotate to a fresh segment once the active one
            reaches this many bytes.

    Recovery: on open, every segment is read in name order; a truncated
    final line (crash mid-append) is dropped by
    :func:`~repro.common.jsonl.read_jsonl` and the next id continues
    after the last complete record.
    """

    backend = "jsonl"

    def __init__(
        self,
        directory: PathLike,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        super().__init__()
        if segment_bytes < 1:
            raise ConfigurationError("segment_bytes must be >= 1")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self._lock = threading.Lock()
        self._records: List[StoredIncident] = []
        self._writer: Optional[JsonlWriter] = None
        self._segment_index = 0
        self._recover()

    # -- recovery ------------------------------------------------------
    def segments(self) -> List[pathlib.Path]:
        """Existing segment files, oldest first."""
        found = [
            path
            for path in self.directory.iterdir()
            if _SEGMENT_RE.match(path.name)
        ]
        return sorted(found)

    def _recover(self) -> None:
        for path in self.segments():
            self._segment_index = int(_SEGMENT_RE.match(path.name).group(1))
            for payload in read_jsonl(path):
                self._records.append(StoredIncident.from_dict(payload))
        if self._segment_index == 0:
            self._segment_index = 1
        self._open_writer()

    def _segment_path(self, index: int) -> pathlib.Path:
        return self.directory / f"incidents-{index:08d}.jsonl"

    def _open_writer(self) -> None:
        self._writer = JsonlWriter(self._segment_path(self._segment_index), fsync=True)

    # -- the interface -------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            return len(self._records) + 1

    def _append(self, record: StoredIncident) -> None:
        with self._lock:
            if self._writer is None or self._writer.closed:
                raise ConfigurationError("the incident store is closed")
            if self._writer.bytes_written >= self.segment_bytes:
                self._writer.close()
                self._segment_index += 1
                self._open_writer()
            self._writer.write(record.to_dict())
            self._records.append(record)

    def get(self, incident_id: int) -> Optional[StoredIncident]:
        with self._lock:
            if 1 <= incident_id <= len(self._records):
                return self._records[incident_id - 1]
        return None

    def query(self, *, tenant=None, since=None, until=None, limit=None):
        with self._lock:
            matched = [
                record
                for record in reversed(self._records)
                if _match(record, tenant, since, until)
            ]
        return matched[:limit] if limit is not None else matched

    def count(self) -> int:
        with self._lock:
            return len(self._records)

    def flush(self) -> None:
        with self._lock:
            if self._writer is not None:
                self._writer.flush()

    def close(self) -> None:
        with self._lock:
            if self._writer is not None:
                self._writer.close()


class SqliteIncidentStore(IncidentStore):
    """Stdlib SQLite backend behind the same interface.

    WAL journaling with ``synchronous=FULL`` makes each committed append
    durable; indexes on ``(tenant)`` and ``(violation_tick)`` keep the
    REST queries from scanning history. The connection is shared across
    the appending (diagnosis worker) and querying (event loop) threads
    under one lock — sqlite serializes at the file level anyway, and the
    lock keeps ``lastrowid`` reads race-free.
    """

    backend = "sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS incidents (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            tenant TEXT NOT NULL DEFAULT '',
            created_at REAL NOT NULL,
            violation_tick INTEGER NOT NULL,
            incident TEXT NOT NULL,
            diagnosis TEXT NOT NULL
        );
        CREATE INDEX IF NOT EXISTS idx_incidents_tenant
            ON incidents (tenant);
        CREATE INDEX IF NOT EXISTS idx_incidents_tick
            ON incidents (violation_tick);
    """

    def __init__(self, path: PathLike) -> None:
        super().__init__()
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.executescript(self._SCHEMA)
        self._conn.commit()

    def _next_id(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(id), 0) + 1 FROM incidents"
            ).fetchone()
        return int(row[0])

    def _append(self, record: StoredIncident) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT INTO incidents "
                "(id, tenant, created_at, violation_tick, incident, diagnosis)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    record.id,
                    record.tenant,
                    record.created_at,
                    record.violation_tick,
                    json.dumps(record.incident, separators=(",", ":")),
                    json.dumps(record.diagnosis, separators=(",", ":")),
                ),
            )
            self._conn.commit()

    @staticmethod
    def _row_to_record(row) -> StoredIncident:
        return StoredIncident(
            id=int(row[0]),
            tenant=row[1],
            created_at=float(row[2]),
            incident=json.loads(row[4]),
            diagnosis=json.loads(row[5]),
        )

    def get(self, incident_id: int) -> Optional[StoredIncident]:
        with self._lock:
            row = self._conn.execute(
                "SELECT id, tenant, created_at, violation_tick, incident, "
                "diagnosis FROM incidents WHERE id = ?",
                (incident_id,),
            ).fetchone()
        return self._row_to_record(row) if row else None

    def query(self, *, tenant=None, since=None, until=None, limit=None):
        clauses, params = [], []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if since is not None:
            clauses.append("violation_tick >= ?")
            params.append(int(since))
        if until is not None:
            clauses.append("violation_tick <= ?")
            params.append(int(until))
        sql = (
            "SELECT id, tenant, created_at, violation_tick, incident, "
            "diagnosis FROM incidents"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [self._row_to_record(row) for row in rows]

    def count(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM incidents").fetchone()
        return int(row[0])

    def flush(self) -> None:
        with self._lock:
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.commit()
            self._conn.close()


#: Backend name -> constructor; the ``--store`` CLI flag's vocabulary.
BACKENDS = {
    "memory": lambda path: MemoryIncidentStore(),
    "jsonl": JsonlIncidentStore,
    "sqlite": SqliteIncidentStore,
}


def open_incident_store(backend: str, path: Optional[PathLike] = None) -> IncidentStore:
    """Open a store by backend name (``memory`` needs no path)."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown incident store backend {backend!r}; "
            f"choose from {sorted(BACKENDS)}"
        )
    if backend != "memory" and path is None:
        raise ConfigurationError(f"backend {backend!r} needs a --store-path")
    return BACKENDS[backend](path)


class IncidentStoreSink:
    """Adapt an :class:`IncidentStore` into a pipeline or fleet sink.

    As a pipeline sink it is called ``sink(incident)``; as a fleet sink
    ``sink(tenant, incident)`` — both shapes funnel into
    :meth:`IncidentStore.append`.
    """

    def __init__(self, store: IncidentStore, *, tenant: str = "") -> None:
        self.store = store
        self.tenant = tenant

    def __call__(self, *args) -> None:
        if len(args) == 1:
            self.store.append(args[0], tenant=self.tenant)
        elif len(args) == 2:
            tenant, incident = args
            self.store.append(incident, tenant=str(tenant))
        else:
            raise TypeError(
                "IncidentStoreSink takes (incident) or (tenant, incident)"
            )

    def flush(self) -> None:
        self.store.flush()

    def close(self) -> None:
        # The server owns the store's lifetime; a sink close only flushes,
        # so draining a pipeline never yanks the REST surface's backend.
        self.store.flush()


__all__ = [
    "BACKENDS",
    "DEFAULT_SEGMENT_BYTES",
    "IncidentStore",
    "IncidentStoreSink",
    "JsonlIncidentStore",
    "MemoryIncidentStore",
    "SqliteIncidentStore",
    "StoredIncident",
    "diagnosis_payload",
    "open_incident_store",
]
