"""Fleet manifests: declare a tenant fleet, drive it with synthetic feeds.

A *manifest* is a small JSON document describing a whole fleet — shard
pool, per-tenant FChain/SLO defaults, and the tenant population (listed
explicitly or generated ``tenant-0000 .. tenant-NNNN``), plus optional
injected faults::

    {
      "shards": 4,
      "backend": "thread",
      "defaults": {"components": 8, "metrics": 1,
                   "look_back_window": 40, "analysis_grace": 8,
                   "slo_threshold": 0.1, "slo_sustain": 5},
      "generate": {"count": 100, "prefix": "tenant"},
      "faults": [{"tenant": "tenant-0042", "at": 45, "component": 2}]
    }

The keys each part may set are listed in ``_KEYS``; any other key (a
typo such as ``"shard"``) is refused with :class:`ConfigurationError`,
never ignored.

:func:`run_manifest` is the driver behind ``repro fleet`` and the CI
fleet job: build the supervisor, register every tenant, stream ``ticks``
of synthetic telemetry, drain, and hand back the closed supervisor for
inspection.

The synthetic telemetry is deliberately cheap at fleet scale: the base
signal matrix ``(components, metrics, ticks)`` is computed **once** and
shared by all tenants (computing per-tenant noise for 1000 tenants would
dominate a run with RNG cost, not fleet overhead). A faulted
tenant's telemetry diverges from the shared base only after its fault
tick: the faulty component's first metric jumps by a level shift and the
tenant's performance signal crosses the SLO threshold, so exactly the
faulted tenants — and no others — trigger localization.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.types import Metric, MetricSample
from repro.core.config import FChainConfig
from repro.fleet.supervisor import FleetConfig, FleetSupervisor
from repro.fleet.tenant import TenantSpec
from repro.monitoring.slo import LatencySLO
from repro.service.sources import TickBatch

#: Healthy / faulted values of the synthetic performance signal; the
#: default SLO threshold (0.1) sits between them.
HEALTHY_PERFORMANCE = 0.01
FAULTED_PERFORMANCE = 0.5
#: Level shift added to the faulty component's first metric.
FAULT_SHIFT = 30.0


@dataclass(frozen=True)
class FaultPlan:
    """One injected fault: ``component`` misbehaves from tick ``at``."""

    tenant: str
    at: int
    component: int


@dataclass(frozen=True)
class FleetManifest:
    """A parsed fleet manifest (see the module docstring for the JSON)."""

    tenants: Tuple[str, ...]
    shards: int = 4
    backend: str = "thread"
    components: int = 8
    metrics: int = 1
    look_back_window: int = 40
    min_segment: int = 5
    analysis_grace: int = 8
    service_cooldown: int = 60
    slo_threshold: float = 0.1
    slo_sustain: int = 5
    seed: int = 0
    queue_depth: int = 1024
    faults: Tuple[FaultPlan, ...] = ()

    def validate(self) -> "FleetManifest":
        if not self.tenants:
            raise ConfigurationError("the manifest declares no tenants")
        if len(set(self.tenants)) != len(self.tenants):
            raise ConfigurationError("tenant ids must be unique")
        if self.components < 2:
            raise ConfigurationError("components must be >= 2")
        if not 1 <= self.metrics <= len(Metric):
            raise ConfigurationError(
                f"metrics must be between 1 and {len(Metric)}"
            )
        known = set(self.tenants)
        for fault in self.faults:
            if fault.tenant not in known:
                raise ConfigurationError(
                    f"fault targets unknown tenant {fault.tenant!r}"
                )
            if not 0 <= fault.component < self.components:
                raise ConfigurationError(
                    f"fault component {fault.component} out of range "
                    f"(fleet has {self.components} components)"
                )
        return self

    def fchain_config(self) -> FChainConfig:
        return FChainConfig(
            look_back_window=self.look_back_window,
            min_segment=self.min_segment,
            analysis_grace=self.analysis_grace,
            service_cooldown=self.service_cooldown,
        )

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(
            shards=self.shards,
            backend=self.backend,
            queue_depth=self.queue_depth,
        )

    def tenant_specs(self) -> List[TenantSpec]:
        """One spec per tenant; detectors are fresh instances."""
        config = self.fchain_config()
        return [
            TenantSpec(
                tenant=tenant,
                detector=LatencySLO(
                    self.slo_threshold, sustain=self.slo_sustain
                ),
                config=config,
                seed=self.seed,
            )
            for tenant in self.tenants
        ]


def load_manifest(path) -> FleetManifest:
    """Parse and validate a JSON manifest file."""
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path}: not valid JSON: {error}")
    return manifest_from_dict(document)


#: The keys each part of a manifest may set; anything else is refused,
#: so a typo cannot silently run the default in its place.
_KEYS = {
    "the manifest": (
        "shards", "backend", "queue_depth", "defaults", "tenants",
        "generate", "faults",
    ),
    "defaults": (
        "components", "metrics", "look_back_window", "min_segment",
        "analysis_grace", "service_cooldown", "slo_threshold",
        "slo_sustain", "seed",
    ),
    "generate": ("count", "prefix"),
    "a faults entry": ("tenant", "at", "component"),
}


def _check_keys(part: str, entry: Dict) -> None:
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{part} must be a JSON object")
    unknown = sorted(set(entry) - set(_KEYS[part]))
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in {part}: {', '.join(map(repr, unknown))}"
        )


def manifest_from_dict(document: Dict) -> FleetManifest:
    """Build a manifest from a parsed JSON document."""
    _check_keys("the manifest", document)
    defaults = document.get("defaults", {})
    _check_keys("defaults", defaults)
    tenants: List[str] = [str(t) for t in document.get("tenants", [])]
    generate = document.get("generate")
    if generate:
        _check_keys("generate", generate)
        count = int(generate.get("count", 0))
        prefix = str(generate.get("prefix", "tenant"))
        width = max(4, len(str(max(count - 1, 0))))
        tenants.extend(f"{prefix}-{i:0{width}d}" for i in range(count))
    for entry in document.get("faults", ()):
        _check_keys("a faults entry", entry)
    faults = tuple(
        FaultPlan(
            tenant=str(entry["tenant"]),
            at=int(entry["at"]),
            component=int(entry["component"]),
        )
        for entry in document.get("faults", ())
    )
    manifest = FleetManifest(
        tenants=tuple(tenants),
        shards=int(document.get("shards", 4)),
        backend=str(document.get("backend", "thread")),
        components=int(defaults.get("components", 8)),
        metrics=int(defaults.get("metrics", 1)),
        look_back_window=int(defaults.get("look_back_window", 40)),
        min_segment=int(defaults.get("min_segment", 5)),
        analysis_grace=int(defaults.get("analysis_grace", 8)),
        service_cooldown=int(defaults.get("service_cooldown", 60)),
        slo_threshold=float(defaults.get("slo_threshold", 0.1)),
        slo_sustain=int(defaults.get("slo_sustain", 5)),
        seed=int(defaults.get("seed", 0)),
        queue_depth=int(document.get("queue_depth", 1024)),
        faults=faults,
    )
    return manifest.validate()


class FleetFeed:
    """Deterministic synthetic telemetry for every tenant of a fleet.

    One shared base-signal matrix serves the whole fleet; per-tenant
    divergence exists only for faulted tenants after their fault tick.
    ``batch(tenant, t)`` is therefore O(components × metrics) with no
    RNG on the hot path.
    """

    def __init__(self, manifest: FleetManifest, ticks: int) -> None:
        self.manifest = manifest
        self.ticks = ticks
        self.component_names = [
            f"comp-{i}" for i in range(manifest.components)
        ]
        self.metric_kinds = list(Metric)[: manifest.metrics]
        rng = np.random.default_rng(manifest.seed)
        shape = (manifest.components, manifest.metrics, ticks)
        t = np.arange(ticks, dtype=np.float64)
        periods = 16.0 + 4.0 * np.arange(manifest.components)
        base = (
            50.0
            + 10.0 * np.sin(
                2.0 * np.pi * t[None, None, :]
                / periods[:, None, None]
            )
            + rng.normal(0.0, 1.5, size=shape)
        )
        self.base = base
        self.faults: Dict[str, FaultPlan] = {
            fault.tenant: fault for fault in manifest.faults
        }

    def batch(self, tenant: str, t: int) -> TickBatch:
        """The tick-``t`` telemetry batch of one tenant."""
        fault = self.faults.get(tenant)
        faulted = fault is not None and t >= fault.at
        samples: List[MetricSample] = []
        for c, component in enumerate(self.component_names):
            for m, metric in enumerate(self.metric_kinds):
                value = float(self.base[c, m, t])
                if faulted and c == fault.component and m == 0:
                    value += FAULT_SHIFT
                samples.append(MetricSample(component, metric, t, value))
        performance = (
            FAULTED_PERFORMANCE if faulted else HEALTHY_PERFORMANCE
        )
        return TickBatch(time=t, samples=samples, performance=performance)


@dataclass
class FleetRunResult:
    """What :func:`run_manifest` hands back after the fleet drained."""

    supervisor: FleetSupervisor
    ticks: int
    routed: int = 0
    dropped: int = 0


def run_manifest(
    manifest: FleetManifest,
    ticks: int,
    *,
    supervisor: Optional[FleetSupervisor] = None,
    sinks: Sequence = (),
) -> FleetRunResult:
    """Drive a whole fleet for ``ticks`` ticks and drain it.

    Builds a supervisor from the manifest (or uses the one given),
    registers every tenant, routes every tenant's synthetic batch each
    tick, then closes the fleet — flushing pending diagnoses exactly as
    the single-app pipeline does on shutdown.

    Args:
        manifest: The fleet description.
        ticks: Ticks of telemetry to stream.
        supervisor: Pre-built supervisor (manifest shard/backend
            settings are ignored when given).
        sinks: Fleet-wide incident sinks, ``(tenant, incident)``.
    """
    owns = supervisor is None
    if owns:
        supervisor = FleetSupervisor(manifest.fleet_config(), sinks=sinks)
    result = FleetRunResult(supervisor=supervisor, ticks=ticks)
    try:
        for spec in manifest.tenant_specs():
            supervisor.add_tenant(spec)
        feed = FleetFeed(manifest, ticks)
        tenants = manifest.tenants
        for t in range(ticks):
            for tenant in tenants:
                if supervisor.ingest(tenant, feed.batch(tenant, t)):
                    result.routed += 1
                else:
                    result.dropped += 1
    finally:
        if owns:
            supervisor.close()
    return result


__all__ = [
    "FAULT_SHIFT",
    "FAULTED_PERFORMANCE",
    "HEALTHY_PERFORMANCE",
    "FaultPlan",
    "FleetFeed",
    "FleetManifest",
    "FleetRunResult",
    "load_manifest",
    "manifest_from_dict",
    "run_manifest",
]
