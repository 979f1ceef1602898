"""The sample's journey: one benchmark, four workloads, one layer ledger.

One command prints every metric by name, unit and sample count and
checks every verdict::

    python3 benchmarks/journey/run.py --seed 7            # all four workloads
    python3 benchmarks/journey/run.py --seed 7 --trace 1  # per-layer ledger
    python3 benchmarks/journey/run.py --selfcheck         # A/A within bounds?
    python3 benchmarks/journey/run.py --workload mesh_inproc --seed 7 \\
        --seconds 20 --trace 0                            # what the driver runs

With ``--workload`` the workload runs in this interpreter and the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); without it each workload runs in a fresh
interpreter, so peak memory and warm caches never leak from one to the
next. The exit code is non-zero when any correctness check fails.

The program under test is the checkout's own ``src/``; see
``README.md`` for the workloads, the metrics and how to read the ledger.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: End-to-end metrics — every workload reports every one (with
#: ``--trace 0``). ``latency_*`` is each workload's own user-visible
#: latency (``Workload.latency_of``); the tail is the highest percentile
#: with at least ten samples beyond it.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("samples_per_s", "samples/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer metrics — every workload reports every one (with
#: ``--trace 1``); a layer a workload never enters reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("edge.json_parse_us_per_sample", "us", "lower"),
    ("edge.decode_us_per_sample", "us", "lower"),
    ("edge.decode_share", "ratio", "lower"),
    ("edge.push_bytes_per_sample", "bytes", "lower"),
    ("edge.requests", "count", "lower"),
    ("edge.shed_429", "count", "lower"),
    ("edge.push_ms_p50", "ms", "lower"),
    ("edge.incident_append_ms", "ms", "lower"),
    ("edge.incident_query_ms", "ms", "lower"),
    ("monitoring.store_ingest_us_per_sample", "us", "lower"),
    ("monitoring.store_ingest_share", "ratio", "lower"),
    ("monitoring.slo_observe_us_per_tick", "us", "lower"),
    ("core.warm_sync_us_per_series", "us", "lower"),
    ("core.warm_sync_share", "ratio", "lower"),
    ("core.topology_traffic_us_per_edge", "us", "lower"),
    ("core.topology_comovement_us_per_edge", "us", "lower"),
    ("core.topology_share", "ratio", "lower"),
    ("core.localize_ms_p50", "ms", "lower"),
    ("core.localize_ms_per_component", "ms", "lower"),
    ("core.localize_share", "ratio", "lower"),
    ("core.analyzed_components", "count", "lower"),
    ("core.escalations", "count", "lower"),
    ("service.process_us_per_tick", "us", "lower"),
    ("service.glue_share", "ratio", "lower"),
    ("service.warm_sync_skipped", "count", "lower"),
    ("service.triggers_dropped", "count", "lower"),
    ("service.trigger_wait_ms", "ms", "lower"),
    ("fleet.route_us_per_batch", "us", "lower"),
    ("fleet.tenant_process_us_per_tick", "us", "lower"),
    ("fleet.queue_overhead_share", "ratio", "lower"),
    ("fleet.drain_s", "s", "lower"),
    ("fleet.ingest_dropped", "count", "lower"),
    ("fleet.trigger_shed", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("ledger.coverage", "ratio", "higher"),
    ("ledger.trace_overhead_share", "ratio", "lower"),
)

WORKLOAD_NAMES = ("steady_push", "incident_push", "mesh_inproc", "fleet_inproc")
#: Builds of the system under test per run; ``setup_s`` takes the median.
SETUP_REPEATS = 3
DEFAULT_SECONDS = 20


def run_workload(
    name: str, *, seed: int, seconds: float, trace: bool, quick: bool
) -> Dict:
    """Run one workload in this interpreter; returns the result object
    (``correct``/``attempted``/``failed``/``metrics``) plus ``rows`` for
    the human-readable table and ``failures`` by kind."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(
            f"the program under test is missing: no {SRC / 'repro'} "
            "(the benchmark measures the checkout it sits in)"
        )
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ledger
    import workloads

    workload = workloads.WORKLOADS[name](seed, seconds, quick)
    imported = time.perf_counter()
    workload.generate()
    generated = time.perf_counter()
    builds: List[float] = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.teardown()
        before = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - before)
    # Interpreter start and imports happen once per run, input
    # generation once; only the build of the system can be repeated.
    setup_s = (generated - _PROCESS_STARTED) + statistics.median(builds)
    try:
        run = workload.drive()
    finally:
        workload.teardown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows: List[Tuple[str, float, str, int]] = []
    failures = dict(run.failures)
    if not trace:
        measured, tail_how = workloads.end_to_end(run)
        cells = {
            "setup_s": (setup_s, "s", SETUP_REPEATS),
            **measured,
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
        rows = [(key, *cells[key]) for key, _, _ in END_TO_END]
        print(
            f"# setup: start+imports {imported - _PROCESS_STARTED:.3f}s, "
            f"inputs {generated - imported:.3f}s, builds "
            + " ".join(f"{b:.3f}s" for b in builds)
        )
        print(f"# latency_* = {workload.latency_of}; tail = {tail_how}")
    else:
        recorder = ledger.SpanRecorder()
        layers, wrong = workload.trace(run, recorder)
        if wrong:
            failures["replay_verdict_wrong"] = wrong
        layers.update(run.counters)
        out = workloads.OUT_DIR
        out.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(out / f"trace_{name}.jsonl")
        spans = len(recorder.records)
        rows = [
            (key, float(layers.get(key, 0.0)), unit, spans)
            for key, unit, _ in PER_LAYER
        ]
        print(f"# {spans} spans -> {out / f'trace_{name}.jsonl'}")
    failed = sum(failures.values())
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, value, unit, _ in rows
        },
        "rows": rows,
        "failures": failures,
        "verdicts": run.verdict_counts,
    }


def print_table(name: str, seed: int, result: Dict) -> None:
    print(f"== {name} (seed {seed}) ==")
    print(f"{'metric':<40} {'value':>16} {'unit':<10} {'n':>8}")
    for key, value, unit, n in result["rows"]:
        print(f"{key:<40} {value:>16.4f} {unit:<10} {n:>8}")
    verdicts = result["verdicts"]
    expected = verdicts["correct"] + verdicts["wrong"] + verdicts["missing"]
    accuracy = verdicts["correct"] / expected if expected else 1.0
    print(
        f"verdict_accuracy {verdicts['correct']}/{expected} = {accuracy:.3f}   "
        f"failed_share {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / result['attempted']:.5f}"
    )
    if result["failures"]:
        print(f"FAILED checks: {result['failures']}")


def run_child(name: str, args: argparse.Namespace) -> Optional[Dict]:
    """One workload in a fresh interpreter; relays its table."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(lines[-1] if lines else "")
        print(f"{name}: no result (exit code {done.returncode})")
        return None
    return result if done.returncode == 0 and result["correct"] else None


def run_suite(args: argparse.Namespace) -> Tuple[bool, Dict[str, Dict]]:
    """Every workload, each in its own interpreter."""
    results: Dict[str, Dict] = {}
    for name in WORKLOAD_NAMES:
        result = run_child(name, args)
        if result is not None:
            results[name] = result["metrics"]
    return len(results) == len(WORKLOAD_NAMES), results


def selfcheck(args: argparse.Namespace) -> int:
    """A/A: two sets of runs of the same code must agree within bounds.

    Each set runs the suite ``--runs`` times, on seeds ``--seed``,
    ``--seed + 1``, ... With one run per set the two values of every
    end-to-end metric may differ by at most its bound. With more, the
    check is the benchmark contract's: within each set the distance
    between the quartiles, as a share of the median, stays within the
    bound (``setup_s`` excepted), and the second set's median is not
    worse than the first's by more than the bound.
    """
    from stats import quartile_spread, worse_by

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.trace = 0
    sets: List[Dict[str, Dict[str, List[float]]]] = []
    for _ in range(2):
        values: Dict[str, Dict[str, List[float]]] = {}
        for offset in range(args.runs):
            ok, results = run_suite(
                argparse.Namespace(**{**vars(args), "seed": args.seed + offset})
            )
            if not ok:
                print("selfcheck: a correctness check failed")
                return 1
            for name, metrics in results.items():
                for key, cell in metrics.items():
                    values.setdefault(name, {}).setdefault(key, []).append(
                        cell["value"]
                    )
        sets.append(values)

    status = 0
    print(
        f"{'workload':<14} {'metric':<16} {'median A':>12} {'median B':>12} "
        f"{'B worse':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}"
    )
    for name in WORKLOAD_NAMES:
        for entry in spec["end_to_end"]:
            key, bound = entry["name"], entry["bound"]
            a, b = sets[0][name][key], sets[1][name][key]
            worse = worse_by(
                statistics.median(a), statistics.median(b), entry["better"]
            )
            if args.runs == 1:
                worse = max(worse, worse_by(b[0], a[0], entry["better"]))
                spreads = (0.0, 0.0)
            else:
                spreads = (quartile_spread(a), quartile_spread(b))
            beyond = worse > bound or (key != "setup_s" and max(spreads) > bound)
            status |= int(beyond)
            print(
                f"{name:<14} {key:<16} {statistics.median(a):>12.4f} "
                f"{statistics.median(b):>12.4f} {worse:>8.4f} {spreads[0]:>9.4f} "
                f"{spreads[1]:>9.4f} {bound:>6.2f}"
                + ("  <-- beyond its bound" if beyond else "")
            )
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="nominal length of the timed part of each workload",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: also replay a prefix hop by hop and print the layer ledger",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny sizes for a smoke test; the numbers are not comparable",
    )
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="run two sets of suites and compare them within the bounds",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="with --selfcheck: suites per set, each on the next seed",
    )
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        ok, _ = run_suite(args)
        return 0 if ok else 1
    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
    )
    print_table(args.workload, args.seed, result)
    print(
        json.dumps(
            {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
