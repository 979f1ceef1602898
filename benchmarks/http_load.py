"""Push a recorded trace into a running edge server and check the verdict.

The CI ``edge`` lane's client half: reads the same long-format metrics
CSV + performance CSV that ``repro replay`` consumes, pushes them
over HTTP in per-tick-chunk CSV bodies (honouring 429 backpressure),
waits for the pipeline to drain, then asserts on the incidents the REST
API reports — the over-the-wire equivalent of ``repro replay
--expect-incidents 1 --expect-culprit db``.

Usage::

    python benchmarks/http_load.py --address 127.0.0.1:8080 \\
        benchmarks/traces/rubis_cpuhog_metrics.csv \\
        benchmarks/traces/rubis_cpuhog_performance.csv \\
        --expect-incidents 1 --expect-culprit db --shutdown
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from typing import Dict, List

from repro.cli import add_expect_options, expectations_met
from repro.edge.client import EdgeClient, split_address
from repro.edge.ingest import PERFORMANCE_COMPONENT


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


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("metrics", help="long-format metrics CSV")
    parser.add_argument("performance", help="performance-signal CSV")
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
    add_expect_options(parser)
    parser.add_argument(
        "--shutdown", action="store_true",
        help="POST /v1/shutdown once the checks are done",
    )
    args = parser.parse_args(argv)

    host, port = split_address(args.address)
    by_tick = load_rows(args.metrics, args.performance)
    ticks = sorted(by_tick)
    print(f"pushing {len(ticks)} ticks to http://{host}:{port} ...")

    client = EdgeClient(host, port, timeout=max(args.timeout, 30.0))
    sheds = 0
    for start in range(0, len(ticks), args.chunk_ticks):
        chunk = ticks[start : start + args.chunk_ticks]
        body = render_chunk(by_tick, chunk)
        while True:
            response = client.push_csv(body)
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

    stats = client.wait_drained(len(ticks), timeout=args.timeout)
    print(
        f"drained: {stats['pipeline']['ticks']} ticks, "
        f"{stats['pipeline']['triggered']} trigger(s), "
        f"{stats['shed_batches']} shed batch(es), {sheds} shed push(es)"
    )

    incidents = client.incidents()
    for incident in incidents:
        diagnosis = client.diagnosis(incident["id"])["diagnosis"]
        print(
            f"incident #{incident['id']}: violation "
            f"t={incident['violation_tick']} faulty={incident['faulty']} "
            f"confidence={diagnosis.get('confidence')}"
        )
    ok = expectations_met(args, ((None, i["id"], i["faulty"]) for i in incidents))

    if args.shutdown:
        client.shutdown()
        print("requested server shutdown")
    client.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
