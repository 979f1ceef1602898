"""Command-line interface: run scenarios and print scheme comparisons.

Examples::

    python -m repro list
    python -m repro run rubis/cpuhog --runs 5
    python -m repro run systems/bottleneck --runs 5 --schemes FChain,PAL
    python -m repro demo
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from repro.baselines import (
    DependencyLocalizer,
    FixedFilteringLocalizer,
    HistogramLocalizer,
    NetMedicLocalizer,
    PALLocalizer,
    TopologyLocalizer,
)
from repro.baselines.base import Localizer
from repro.eval.report import format_scheme_table
from repro.eval.runner import (
    FChainLocalizer,
    FChainValidatedLocalizer,
    evaluate_schemes,
)
from repro.eval.scenarios import all_scenarios, scenario_by_name

#: Factory for every scheme selectable from the command line.
SCHEMES: Dict[str, callable] = {
    "FChain": FChainLocalizer,
    "FChain+VAL": FChainValidatedLocalizer,
    "Histogram": HistogramLocalizer,
    "NetMedic": NetMedicLocalizer,
    "Topology": TopologyLocalizer,
    "Dependency": DependencyLocalizer,
    "PAL": PALLocalizer,
    "Fixed-Filtering": FixedFilteringLocalizer,
}


def _build_schemes(names: str) -> List[Localizer]:
    schemes = []
    for name in names.split(","):
        name = name.strip()
        if name not in SCHEMES:
            raise SystemExit(
                f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}"
            )
        schemes.append(SCHEMES[name]())
    return schemes


def cmd_list(_: argparse.Namespace) -> int:
    print("Available fault scenarios:")
    for scenario in all_scenarios():
        window = scenario.look_back_window or 100
        print(f"  {scenario.name:26s} (W={window}s)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    scenario = scenario_by_name(args.scenario)
    schemes = _build_schemes(args.schemes)
    print(
        f"Running {args.runs} fault-injection runs of {scenario.name} "
        f"with schemes: {[s.name for s in schemes]}"
    )
    results = evaluate_schemes(
        scenario, schemes, n_runs=args.runs, base_seed=args.seed
    )
    print()
    print(
        format_scheme_table(
            f"{scenario.name} over {args.runs} runs",
            {scenario.name.split("/")[1]: results},
        )
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Diagnose recorded metrics from a CSV file."""
    from repro.core import FChain, FChainConfig
    from repro.core.dependency import load_graph
    from repro.monitoring.io import load_store_csv

    store = load_store_csv(args.metrics)
    graph = load_graph(args.graph) if args.graph else None
    config = FChainConfig()
    if args.window:
        config = config.with_window(args.window)
    fchain = FChain(config, dependency_graph=graph)
    diagnosis = fchain.localize(store, violation_time=args.violation)
    print(diagnosis.summary())
    print(f"(diagnosis latency: {diagnosis.latency_seconds * 1e3:.0f} ms)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced diagnosis on a synthetic scenario and print it."""
    import json

    from repro.core.config import FChainConfig
    from repro.core.fchain import FChain
    from repro.eval.bench import synthetic_store
    from repro.obs import default_registry

    config = FChainConfig(telemetry=args.telemetry)
    store = synthetic_store(
        samples=args.samples,
        components=args.components,
        metrics=args.metrics,
        seed=args.seed,
    )
    violation = store.end - config.analysis_grace - 1
    with FChain(config, seed=args.seed) as fchain:
        diagnosis = fchain.localize(store, violation_time=violation)
    if args.format == "json":
        print(json.dumps(diagnosis.trace.to_dict(), indent=2))
    elif args.format == "prom":
        print(default_registry().render_prometheus(), end="")
    else:
        print(
            f"synthetic scenario: {args.samples} samples x "
            f"{args.components} components x {args.metrics} metrics, "
            f"violation at t={violation}s"
        )
        print()
        print(diagnosis.trace.format_tree(min_ms=args.min_ms))
        print()
        print(f"pinpointed: {sorted(diagnosis.faulty)}")
        print(f"diagnosis latency: {diagnosis.latency_seconds * 1e3:.0f} ms")
    return 0


def _service_config(args) -> "FChainConfig":
    from repro.core.config import FChainConfig

    return FChainConfig(
        service_cooldown=args.cooldown,
        telemetry=args.telemetry,
        topology_mode=getattr(args, "topology_mode", "full"),
        topology_top_k=getattr(args, "topology_top_k", 0) or 0,
    )


def _print_loop_outcome(pipeline, incidents) -> None:
    for incident in incidents:
        print(incident.summary())
    if not incidents:
        print("no incidents")
    print(f"loop: {pipeline.ticks} ticks, {pipeline.triggered} trigger(s)")
    for violation_tick, error in pipeline.failures:
        print(f"FAIL diagnosis at t={violation_tick} raised: {error!r}")


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the online service loop against a live simulated application."""
    from repro.monitoring.slo import LatencySLO
    from repro.service import JsonlSink, OnlinePipeline, SimFeed

    topology = None
    origin = None
    if args.app == "mesh":
        from repro.apps.mesh import MeshApplication
        from repro.core.topology import OnlineTopology
        from repro.faults.library import BottleneckFault

        app = MeshApplication(
            seed=args.seed,
            services=args.services,
            duration=args.duration + 600,
        )
        threshold = app.slo_threshold
        if args.fault_at is not None:
            target = args.fault_component or app.default_fault_target()
            app.inject(
                BottleneckFault(
                    args.fault_at, target, cap=app.bottleneck_cap(target)
                )
            )
            print(
                f"injecting bottleneck on {target!r} at t={args.fault_at}s"
            )
        topology = OnlineTopology()
        origin = app.gateway
        if args.topology_mode == "neighborhood":
            print(
                f"topology-guided diagnosis: top-{args.topology_top_k} "
                f"neighborhood of {origin!r}"
            )
    else:
        from repro.apps.rubis import RubisApplication

        app = RubisApplication(seed=args.seed, duration=args.duration + 600)
        threshold = RubisApplication.SLO_THRESHOLD
        if args.fault_at is not None:
            from repro.faults.library import CpuHogFault

            target = args.fault_component or "db"
            app.inject(CpuHogFault(args.fault_at, target))
            print(f"injecting cpuhog on {target!r} at t={args.fault_at}s")
    feed = SimFeed(app, duration=args.duration)
    if args.chaos is not None:
        from repro.eval.chaos import ChaosSpec, CorruptedFeed

        feed = CorruptedFeed(
            feed,
            ChaosSpec(
                seed=args.chaos,
                gap_fraction=0.05,
                nan_fraction=0.02,
                delay_fraction=0.05,
                delay_max=3,
            ),
        )
        print(f"chaos: corrupting the live feed (seed {args.chaos})")
    detector = LatencySLO(threshold, sustain=10, retention=600)
    sinks = [JsonlSink(args.incidents)] if args.incidents else []
    pipeline = OnlinePipeline(
        feed,
        detector,
        config=_service_config(args),
        seed=args.seed,
        sinks=sinks,
        topology=topology,
        origin=origin,
    )
    print(f"serving {args.app} for {args.duration} simulated seconds ...")
    incidents = pipeline.run()
    _print_loop_outcome(pipeline, incidents)
    if args.incidents:
        print(f"incident records appended to {args.incidents}")
    ok = not pipeline.failures
    ok &= expectations_met(
        args, ((None, i.index, i.faulty) for i in incidents)
    )
    return 0 if ok else 1


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a recorded trace through the online service loop."""
    from repro.monitoring.io import load_store_csv
    from repro.monitoring.quality import DataQualityPolicy
    from repro.monitoring.slo import LatencySLO
    from repro.service import (
        JsonlSink,
        OnlinePipeline,
        StoreReplayFeed,
        load_performance_csv,
    )

    store = load_store_csv(args.metrics, policy=DataQualityPolicy())
    performance = load_performance_csv(args.performance)
    feed = StoreReplayFeed(store, performance=performance)
    detector = LatencySLO(args.threshold, sustain=args.sustain)
    sinks = [JsonlSink(args.incidents)] if args.incidents else []
    pipeline = OnlinePipeline(
        feed,
        detector,
        config=_service_config(args),
        seed=args.seed,
        sinks=sinks,
    )
    print(
        f"replaying {store.length} ticks x {len(store.components)} "
        f"components from {args.metrics} ..."
    )
    incidents = pipeline.run()
    _print_loop_outcome(pipeline, incidents)

    ok = not pipeline.failures
    ok &= expectations_met(
        args, ((None, i.index, i.faulty) for i in incidents)
    )
    return 0 if ok else 1


def add_expect_options(parser, *, tenant: bool = False) -> None:
    """Declare the CI soak assertions checked by :func:`expectations_met`."""
    parser.add_argument(
        "--expect-incidents", type=int, default=None,
        help="exit non-zero unless exactly this many incidents occurred "
        "(the CI soak assertion)",
    )
    if tenant:
        parser.add_argument(
            "--expect-tenant", default=None,
            help="exit non-zero unless all incidents belong to this tenant",
        )
    parser.add_argument(
        "--expect-culprit", default=None,
        help="exit non-zero unless every incident pinpoints this component",
    )


def expectations_met(args: argparse.Namespace, incidents) -> bool:
    """Apply the soak assertions, printing one ``FAIL`` line per miss.

    ``incidents`` are ``(tenant, number, faulty)`` triples — the tenant
    is ``None`` on the single-application paths.
    """
    incidents = list(incidents)
    ok = True
    if args.expect_incidents is not None and len(incidents) != args.expect_incidents:
        print(
            f"FAIL expected exactly {args.expect_incidents} incident(s), "
            f"got {len(incidents)}"
        )
        ok = False
    expect_tenant = getattr(args, "expect_tenant", None)
    if expect_tenant is not None:
        tenants = {tenant for tenant, _, _ in incidents}
        if expect_tenant not in tenants:
            print(f"FAIL no incident for tenant {expect_tenant!r}")
            ok = False
        others = sorted(tenants - {expect_tenant})
        if others:
            print(f"FAIL cross-tenant incidents for {others}")
            ok = False
    if args.expect_culprit is not None:
        if not incidents:
            print(f"FAIL no incident names culprit {args.expect_culprit!r}")
            ok = False
        for _, number, faulty in incidents:
            if args.expect_culprit not in faulty:
                print(
                    f"FAIL incident #{number} pinpointed "
                    f"{faulty}, expected {args.expect_culprit!r}"
                )
                ok = False
    return ok


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run a tenant-fleet manifest through the sharded fleet layer."""
    import dataclasses

    from repro.common.jsonl import JsonlWriter
    from repro.fleet import HashRing, load_manifest, run_manifest

    manifest = load_manifest(args.manifest)
    overrides = {}
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.backend is not None:
        overrides["backend"] = args.backend
    if overrides:
        manifest = dataclasses.replace(manifest, **overrides).validate()

    if args.map:
        ring = HashRing(range(manifest.shards))
        placement = {}
        for tenant, shard in ring.assignments(manifest.tenants).items():
            placement.setdefault(shard, []).append(tenant)
        for shard in range(manifest.shards):
            tenants = sorted(placement.get(shard, []))
            print(f"shard {shard}: {len(tenants)} tenant(s)")
            for tenant in tenants:
                print(f"  {tenant}")
        return 0

    sinks = []
    writer = JsonlWriter(args.incidents) if args.incidents else None
    if writer is not None:
        sinks.append(
            lambda tenant, incident: writer.write(
                {"tenant": tenant, **incident.to_dict()}
            )
        )

    print(
        f"fleet: {len(manifest.tenants)} tenants x {manifest.components} "
        f"components on {manifest.shards} {manifest.backend} shard(s), "
        f"{args.ticks} ticks, {len(manifest.faults)} injected fault(s)"
    )
    try:
        result = run_manifest(manifest, args.ticks, sinks=sinks)
    finally:
        if writer is not None:
            writer.close()
    supervisor = result.supervisor
    incidents = supervisor.incidents
    total = sum(len(v) for v in incidents.values())
    print(
        f"drained: routed {result.routed} batches "
        f"({result.dropped} dropped), {total} incident(s) across "
        f"{len(incidents)} tenant(s)"
    )
    for tenant in sorted(incidents):
        for incident in incidents[tenant]:
            faulty = ",".join(incident.faulty) or "-"
            print(
                f"  {tenant}: violation t={incident.violation_tick} "
                f"faulty=[{faulty}] quality={incident.quality}"
            )
    for shard, tenant, message in supervisor.failures:
        print(f"  ERROR shard {shard} tenant {tenant}: {message}")

    ok = not supervisor.failures
    ok &= expectations_met(
        args,
        (
            (tenant, incident.index, incident.faulty)
            for tenant, found in incidents.items()
            for incident in found
        ),
    )
    return 0 if ok else 1


def cmd_edge(args: argparse.Namespace) -> int:
    """Serve the HTTP edge: push ingest in, incidents and metrics out."""
    from repro.edge import EdgeConfig, EdgeServer, open_incident_store
    from repro.edge.webhook import WebhookSink
    from repro.monitoring.slo import LatencySLO
    from repro.service import JsonlSink

    if args.store != "memory" and not args.store_path:
        raise SystemExit(f"--store {args.store} needs --store-path")
    store = open_incident_store(args.store, args.store_path)
    config = EdgeConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.ingest_queue_depth,
        telemetry=args.telemetry,
        allow_shutdown=not args.no_shutdown_endpoint,
    )
    server = EdgeServer(config, incident_store=store)

    sinks = []
    if args.webhook:
        sinks.append(
            WebhookSink(
                args.webhook, dead_letter_path=args.dead_letter
            )
        )
    if args.incidents:
        sinks.append(JsonlSink(args.incidents))

    if args.manifest:
        from repro.fleet import FleetSupervisor, load_manifest

        manifest = load_manifest(args.manifest)
        supervisor = FleetSupervisor(manifest.fleet_config())
        for spec in manifest.tenant_specs():
            supervisor.add_tenant(spec)
        server.attach_fleet(supervisor, sinks=sinks)
        print(
            f"edge: fleet mode, {len(manifest.tenants)} tenants on "
            f"{manifest.shards} shard(s)"
        )
    else:
        detector = LatencySLO(args.threshold, sustain=args.sustain)
        server.attach_pipeline(
            detector,
            fchain_config=_service_config(args),
            seed=args.seed,
            sinks=sinks,
        )

    server.start()
    print(
        f"edge: listening on http://{config.host}:{server.port} "
        f"(store={store.backend}, ingest queue depth "
        f"{config.queue_depth})"
    )
    print("  POST /v1/ingest         push metrics (JSON or CSV)")
    print("  GET  /v1/incidents      list diagnosed incidents")
    print("  GET  /v1/metrics        Prometheus metrics")
    try:
        server.serve_forever()
    finally:
        server.stop()
        incidents = store.count()
        store.close()
    print(
        f"edge: stopped after {server.enqueued_batches} batches "
        f"({server.shed_batches} shed), {incidents} incident(s)"
    )
    return 0


def cmd_demo(_: argparse.Namespace) -> int:
    from repro.apps.rubis import DB, RubisApplication
    from repro.core import FChain
    from repro.faults.library import CpuHogFault

    app = RubisApplication(seed=42, duration=2400)
    app.inject(CpuHogFault(1300, DB))
    app.run(1500)
    violation = app.slo.first_violation_after(1300)
    diagnosis = FChain(seed=42).localize(app.store, violation_time=violation)
    print(f"SLO violated at t={violation}s; FChain pinpoints "
          f"{sorted(diagnosis.faulty)} (truth: ['db'])")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FChain reproduction: run fault scenarios and compare "
        "localization schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list fault scenarios").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="run one scenario across schemes")
    run.add_argument("scenario", help="scenario name, e.g. rubis/cpuhog")
    run.add_argument("--runs", type=int, default=5)
    run.add_argument("--seed", default="cli")
    run.add_argument(
        "--schemes",
        default="FChain,Histogram,NetMedic,Topology,Dependency,PAL",
        help="comma-separated scheme names",
    )
    run.set_defaults(func=cmd_run)

    analyze = sub.add_parser(
        "analyze", help="diagnose recorded metrics from a CSV file"
    )
    analyze.add_argument(
        "metrics", help="long-format CSV: time,component,metric,value"
    )
    analyze.add_argument(
        "--violation", type=int, required=True,
        help="SLO violation time t_v (seconds)",
    )
    analyze.add_argument(
        "--graph", default=None,
        help="dependency graph JSON (from repro.core.dependency.save_graph)",
    )
    analyze.add_argument(
        "--window", type=int, default=None, help="look-back window W override"
    )
    analyze.set_defaults(func=cmd_analyze)

    trace = sub.add_parser(
        "trace",
        help="run one fully traced diagnosis on a synthetic scenario",
    )
    trace.add_argument("--samples", type=int, default=2_000)
    trace.add_argument("--components", type=int, default=6)
    trace.add_argument("--metrics", type=int, default=3)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument(
        "--telemetry", choices=("timings", "full"), default="full",
        help="telemetry level for the traced run",
    )
    trace.add_argument(
        "--format", choices=("tree", "json", "prom"), default="tree",
        help="tree: human-readable timeline; json: span tree dump; "
        "prom: Prometheus text-format metrics",
    )
    trace.add_argument(
        "--min-ms", type=float, default=0.0,
        help="hide tree spans shorter than this many milliseconds",
    )
    trace.set_defaults(func=cmd_trace)

    def _add_service_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--cooldown", type=int, default=60,
            help="service_cooldown: minimum ticks between diagnosis "
            "triggers (dedups flapping violations; default 60)",
        )
        parser.add_argument(
            "--telemetry", choices=("off", "timings", "full"), default="off",
            help="service-loop tracing level",
        )
        parser.add_argument(
            "--incidents", metavar="FILE", default=None,
            help="append one JSON line per incident to this file",
        )

    serve = sub.add_parser(
        "serve",
        help="run the online service loop against a live simulated app",
    )
    serve.add_argument(
        "--app", choices=("rubis", "mesh"), default="rubis",
        help="application to serve: the paper's RUBiS web stack, or the "
        "generated fan-out/fan-in microservice mesh (topology testbed)",
    )
    serve.add_argument(
        "--services", type=int, default=50,
        help="mesh size in services (mesh app only; default 50)",
    )
    serve.add_argument(
        "--topology-mode", choices=("full", "neighborhood"), default="full",
        help="diagnosis scoping: analyse every component (full) or only "
        "the learned-topology neighborhood of the SLO origin "
        "(neighborhood; mesh app only)",
    )
    serve.add_argument(
        "--topology-top-k", type=int, default=15,
        help="neighborhood size when --topology-mode=neighborhood "
        "(default 15)",
    )
    serve.add_argument(
        "--duration", type=int, default=1380,
        help="simulated seconds to serve (default 1380)",
    )
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument(
        "--fault-at", type=int, default=1300,
        help="inject a fault at this tick: a cpuhog (rubis) or a capacity "
        "bottleneck (mesh)",
    )
    serve.add_argument(
        "--no-fault", dest="fault_at", action="store_const", const=None,
        help="serve a healthy run without any injected fault",
    )
    serve.add_argument(
        "--fault-component", default=None,
        help="component the fault is injected on (default: db for rubis, "
        "the mesh's canonical layer-1 target for mesh)",
    )
    serve.add_argument(
        "--chaos", type=int, metavar="SEED", default=None,
        help="corrupt the live feed (gaps, NaN readings, delayed "
        "delivery) with this chaos seed",
    )
    add_expect_options(serve)
    _add_service_options(serve)
    serve.set_defaults(func=cmd_serve)

    replay = sub.add_parser(
        "replay",
        help="replay a recorded CSV trace through the online service loop",
    )
    replay.add_argument(
        "metrics", help="long-format metrics CSV: time,component,metric,value"
    )
    replay.add_argument(
        "performance", help="performance-signal CSV: time,value"
    )
    replay.add_argument("--seed", type=int, default=42)
    replay.add_argument(
        "--threshold", type=float, default=0.100,
        help="latency SLO threshold in seconds (default 0.100 = RUBiS)",
    )
    replay.add_argument(
        "--sustain", type=int, default=10,
        help="consecutive seconds above threshold before a violation",
    )
    add_expect_options(replay)
    _add_service_options(replay)
    replay.set_defaults(func=cmd_replay)

    fleet = sub.add_parser(
        "fleet",
        help="run a multi-tenant fleet manifest across shard workers",
    )
    fleet.add_argument(
        "manifest", help="JSON fleet manifest (see docs/architecture.md)"
    )
    fleet.add_argument(
        "--ticks", type=int, default=60,
        help="ticks of synthetic telemetry to stream (default 60)",
    )
    fleet.add_argument(
        "--map", action="store_true",
        help="print the consistent-hash shard placement and exit",
    )
    fleet.add_argument(
        "--shards", type=int, default=None,
        help="override the manifest's shard count",
    )
    fleet.add_argument(
        "--backend", choices=("thread", "process"), default=None,
        help="override the manifest's shard backend: thread runs every "
        "shard on the calling thread, process forks one worker per shard",
    )
    fleet.add_argument(
        "--incidents", default=None,
        help="append tenant-labeled incidents to this JSONL file",
    )
    add_expect_options(fleet, tenant=True)
    fleet.set_defaults(func=cmd_fleet)

    edge = sub.add_parser(
        "edge",
        help="serve the HTTP edge: push ingest, incident queries, webhooks",
    )
    edge.add_argument("--host", default="127.0.0.1")
    edge.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 picks an ephemeral port, printed at startup)",
    )
    edge.add_argument(
        "--store", choices=("memory", "jsonl", "sqlite"), default="memory",
        help="durable incident store backend (default memory)",
    )
    edge.add_argument(
        "--store-path", default=None,
        help="store location: a directory for jsonl, a file for sqlite",
    )
    edge.add_argument(
        "--manifest", default=None,
        help="fleet manifest JSON: serve multi-tenant pushes routed by "
        "?tenant= instead of a single pipeline",
    )
    edge.add_argument(
        "--webhook", action="append", default=None, metavar="URL",
        help="POST each incident to this URL (repeatable; retried with "
        "backoff, circuit-broken per endpoint)",
    )
    edge.add_argument(
        "--dead-letter", default=None, metavar="FILE",
        help="append webhook deliveries that exhausted retries here",
    )
    edge.add_argument(
        "--ingest-queue-depth", type=int, default=256,
        help="in-flight tick batches between the HTTP edge and the "
        "pipeline; pushes beyond it are shed with 429 (default 256)",
    )
    edge.add_argument(
        "--no-shutdown-endpoint", action="store_true",
        help="disable POST /v1/shutdown (enabled by default for CI)",
    )
    edge.add_argument("--seed", type=int, default=42)
    edge.add_argument(
        "--threshold", type=float, default=0.100,
        help="latency SLO threshold in seconds (default 0.100 = RUBiS)",
    )
    edge.add_argument(
        "--sustain", type=int, default=10,
        help="consecutive seconds above threshold before a violation",
    )
    _add_service_options(edge)
    edge.set_defaults(func=cmd_edge)

    sub.add_parser("demo", help="30-second quickstart demo").set_defaults(
        func=cmd_demo
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
