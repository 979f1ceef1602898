"""Multi-tenant fleet layer: many monitored applications, few workers.

``repro.fleet`` scales the single-app online pipeline
(:mod:`repro.service`) to a *fleet*: each tenant keeps its own tolerant
metric store, warm Markov slaves and SLO detector, and tenants are
consistently hashed onto a small pool of long-lived shard workers. The
:class:`~repro.fleet.supervisor.FleetSupervisor` owns placement, routed
ingest with backpressure, the shared incident bus, and live rebalancing
(tenants relocate with their store and their warm models as they are).
"""

from repro.fleet.manifest import (
    FaultPlan,
    FleetFeed,
    FleetManifest,
    FleetRunResult,
    load_manifest,
    manifest_from_dict,
    run_manifest,
)
from repro.fleet.ring import DEFAULT_VNODES, HashRing
from repro.fleet.supervisor import FleetConfig, FleetMetrics, FleetSupervisor
from repro.fleet.tenant import TenantRuntime, TenantSnapshot, TenantSpec
from repro.fleet.worker import ShardWorker

__all__ = [
    "DEFAULT_VNODES",
    "FaultPlan",
    "FleetConfig",
    "FleetFeed",
    "FleetManifest",
    "FleetMetrics",
    "FleetRunResult",
    "FleetSupervisor",
    "HashRing",
    "ShardWorker",
    "TenantRuntime",
    "TenantSnapshot",
    "TenantSpec",
    "load_manifest",
    "manifest_from_dict",
    "run_manifest",
]
