"""Incident records and delivery sinks of the online service loop.

An :class:`Incident` is what the loop produces: one sustained SLO
violation, deduplicated and diagnosed. Sinks receive finished incidents
— any callable works; :class:`JsonlSink` appends machine-readable lines
to a file and :class:`CallbackSink` adapts a plain function (it exists
mostly so user code reads symmetrically with the file sink).

:class:`ServiceMetrics` mirrors the lazy Prometheus-counter pattern of
:class:`~repro.monitoring.quality.IngestMetrics`: counters are created
on first incident/drop, so an uneventful loop touches no registry.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.common.jsonl import JsonlWriter
from repro.core.diagnosis import Diagnosis


@dataclass
class Incident:
    """One diagnosed SLO violation.

    Attributes:
        index: Sequence number of the incident within this loop (0-based).
        violation_tick: The tick at which the SLO detector declared the
            sustained violation that triggered this incident.
        dispatched_tick: The tick at which the diagnosis was dispatched —
            ``violation_tick`` plus the analysis-grace wait (the master
            contacts the slaves only once the post-violation grace data
            has been recorded), or later if the trigger queued behind an
            in-flight diagnosis at dispatch time.
        trigger_latency_seconds: Wall-clock time from the detector
            declaring the violation to the diagnosis completing —
            the paper's end-to-end online localization latency.
        diagnosis: The full :class:`~repro.core.diagnosis.Diagnosis`.
        quality: The diagnosis confidence grade (``"full"``,
            ``"degraded"`` or ``"inconclusive"``) at completion time.
    """

    index: int
    violation_tick: int
    dispatched_tick: int
    trigger_latency_seconds: float
    diagnosis: Diagnosis
    quality: str

    @property
    def faulty(self) -> List[str]:
        """Pinpointed faulty components, sorted."""
        return sorted(self.diagnosis.faulty)

    def to_dict(self) -> Dict:
        """JSON-ready record (the :class:`JsonlSink` line format)."""
        return {
            "index": self.index,
            "violation_tick": self.violation_tick,
            "dispatched_tick": self.dispatched_tick,
            "trigger_latency_seconds": self.trigger_latency_seconds,
            "quality": self.quality,
            "faulty": self.faulty,
            "external_factor": self.diagnosis.external_factor,
            "skipped": sorted(self.diagnosis.skipped),
            "diagnosis_latency_seconds": self.diagnosis.latency_seconds,
        }

    def summary(self) -> str:
        """One-line operator summary."""
        verdict = (
            f"faulty={self.faulty}"
            if self.faulty
            else ("external factor" if self.diagnosis.external_factor
                  else "no culprit pinpointed")
        )
        return (
            f"incident #{self.index}: violation at t={self.violation_tick}, "
            f"{verdict}, quality={self.quality}, "
            f"latency {self.trigger_latency_seconds:.2f}s"
        )


class CallbackSink:
    """Deliver incidents to a plain callable."""

    def __init__(self, fn: Callable[[Incident], None]) -> None:
        self.fn = fn

    def __call__(self, incident: Incident) -> None:
        self.fn(incident)


class JsonlSink:
    """Append one JSON line per incident to a file.

    Built on the shared open-once :class:`~repro.common.jsonl.JsonlWriter`
    (the same appender behind the durable JSONL segment backend of
    :mod:`repro.edge.store`): the handle is opened exactly once, every
    line is flushed as written, and ``fsync=True`` makes each completed
    incident durable against power loss, not just process crash.
    ``close()`` is called by the pipeline at drain time.
    """

    def __init__(self, path, *, fsync: bool = False) -> None:
        self._writer = JsonlWriter(path, fsync=fsync)

    @property
    def path(self) -> pathlib.Path:
        return self._writer.path

    def __call__(self, incident: Incident) -> None:
        self._writer.write(incident.to_dict())

    def flush(self) -> None:
        self._writer.flush()

    def close(self) -> None:
        self._writer.close()


class ServiceMetrics:
    """Lazily created incident counter on a metrics registry.

    Created by the pipeline on the first incident, so a loop that never
    violates its SLO registers nothing.
    """

    def __init__(self, registry=None) -> None:
        if registry is None:
            from repro.obs.registry import default_registry

            registry = default_registry()
        self.incidents = registry.counter(
            "fchain_incidents_total",
            "Incidents diagnosed by the online service loop",
            ("quality",),
        )


__all__ = ["CallbackSink", "Incident", "JsonlSink", "ServiceMetrics"]
