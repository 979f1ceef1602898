"""Push a recorded trace into a running edge server and check the verdict.

The CI ``edge`` lane's client half: reads the same long-format metrics
CSV + performance CSV that ``repro replay`` consumes, pushes them
over HTTP in per-tick-chunk CSV bodies (honouring 429 backpressure),
waits for the pipeline to drain, then asserts on the incidents the REST
API reports — the over-the-wire equivalent of ``repro replay
--expect-incidents 1 --expect-culprit db``.

With ``--manifest`` it drives an edge in fleet mode instead: it pushes
that manifest's synthetic ``FleetFeed`` batches, each push one tenant's
chunk of ticks, and checks the tenant-labeled incidents — the
over-the-wire equivalent of ``repro fleet``. The manifest must use
thread shards: process shards report no progress before the fleet
closes, so there is no drain to wait for (``EdgeClient.wait_drained``
refuses them).

Usage::

    python benchmarks/http_load.py --address 127.0.0.1:8080 \\
        benchmarks/traces/rubis_cpuhog_metrics.csv \\
        benchmarks/traces/rubis_cpuhog_performance.csv \\
        --expect-incidents 1 --expect-culprit db --shutdown

    python benchmarks/http_load.py --address 127.0.0.1:8080 \\
        --manifest benchmarks/manifests/fleet_soak.json \\
        --expect-incidents 1 --expect-tenant t-0007 --shutdown
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.cli import add_expect_options, expectations_met
from repro.edge.client import EdgeClient, split_address
from repro.edge.ingest import PERFORMANCE_COMPONENT

#: Ticks per tenant pushed in ``--manifest`` mode: ``repro fleet``'s
#: default soak length.
MANIFEST_TICKS = 60


def load_rows(metrics_path: str, performance_path: str) -> Dict[int, List]:
    """Group metric + performance rows by tick, ready to re-render."""
    by_tick: Dict[int, List] = {}
    with open(metrics_path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)  # header
        for row in reader:
            if not row:
                continue
            by_tick.setdefault(int(row[0]), []).append(row)
    with open(performance_path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)  # header
        for row in reader:
            if not row:
                continue
            tick = int(row[0])
            by_tick.setdefault(tick, []).append(
                [row[0], PERFORMANCE_COMPONENT, "latency", row[1]]
            )
    return by_tick


def render_chunk(by_tick: Dict[int, List], ticks: List[int]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["time", "component", "metric", "value"])
    for tick in ticks:
        writer.writerows(by_tick[tick])
    return out.getvalue()


def trace_pushes(args) -> Tuple[List[Callable], int]:
    """The recorded trace as CSV pushes of ``--chunk-ticks`` ticks."""
    by_tick = load_rows(args.metrics, args.performance)
    ticks = sorted(by_tick)
    pushes = []
    for start in range(0, len(ticks), args.chunk_ticks):
        body = render_chunk(by_tick, ticks[start : start + args.chunk_ticks])
        pushes.append(partial(EdgeClient.push_csv, text=body))
    return pushes, len(ticks)


def manifest_pushes(args) -> Tuple[List[Callable], int]:
    """A fleet manifest's first :data:`MANIFEST_TICKS` synthetic ticks
    as JSON pushes, one per tenant and chunk of ``--chunk-ticks`` ticks."""
    from repro.fleet import FleetFeed, load_manifest

    manifest = load_manifest(args.manifest)
    feed = FleetFeed(manifest, MANIFEST_TICKS)
    pushes = []
    for start in range(0, MANIFEST_TICKS, args.chunk_ticks):
        chunk = range(start, min(start + args.chunk_ticks, MANIFEST_TICKS))
        for tenant in manifest.tenants:
            batches = [feed.batch(tenant, t) for t in chunk]
            pushes.append(
                partial(EdgeClient.push_batches, batches=batches, tenant=tenant)
            )
    return pushes, MANIFEST_TICKS * len(manifest.tenants)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("metrics", nargs="?", help="long-format metrics CSV")
    parser.add_argument("performance", nargs="?", help="performance-signal CSV")
    parser.add_argument(
        "--manifest",
        default=None,
        help="fleet manifest JSON: push its synthetic tenants instead of a trace",
    )
    parser.add_argument(
        "--address", default="127.0.0.1:8080", help="edge server host:port"
    )
    parser.add_argument(
        "--chunk-ticks", type=int, default=60,
        help="ticks per HTTP push (default 60)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for the pipeline to drain",
    )
    add_expect_options(parser, tenant=True)
    parser.add_argument(
        "--shutdown", action="store_true",
        help="POST /v1/shutdown once the checks are done",
    )
    args = parser.parse_args(argv)
    if args.manifest is None and args.performance is None:
        parser.error("give a metrics and a performance CSV, or --manifest")

    host, port = split_address(args.address)
    if args.manifest is None:
        pushes, batches = trace_pushes(args)
    else:
        pushes, batches = manifest_pushes(args)
    print(f"pushing {batches} tick batches to http://{host}:{port} ...")

    client = EdgeClient(host, port, timeout=max(args.timeout, 30.0))
    sheds = 0
    for push in pushes:
        while True:
            response = push(client)
            if response.status == 202:
                break
            if response.status == 429:
                sheds += 1
                time.sleep(
                    min(float(response.headers.get("retry-after", "1")), 0.2)
                )
                continue
            print(f"FAIL push -> {response.status}: {response.body[:200]}")
            return 1

    stats = client.wait_drained(batches, timeout=args.timeout)
    engine = stats.get("pipeline") or stats["fleet"]
    print(
        f"drained: {engine['ticks']} ticks, "
        f"{stats['shed_batches']} shed batch(es), {sheds} shed push(es)"
    )

    incidents = client.incidents()
    for incident in incidents:
        diagnosis = client.diagnosis(incident["id"])["diagnosis"]
        print(
            f"incident #{incident['id']}: tenant={incident['tenant'] or '-'} "
            f"violation t={incident['violation_tick']} "
            f"faulty={incident['faulty']} "
            f"confidence={diagnosis.get('confidence')}"
        )
    ok = expectations_met(
        args, ((i["tenant"] or None, i["id"], i["faulty"]) for i in incidents)
    )

    if args.shutdown:
        client.shutdown()
        print("requested server shutdown")
    client.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
