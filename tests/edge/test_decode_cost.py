"""A perf gate that no host can blur: calls per sample from push to ring.

Wall time on a shared machine drifts by tens of percent between runs;
the number of Python and C calls a push costs does not. The decoder
validates a push a column at a time and the store writes a tick's
in-order samples in one gathered write, so twice as many series per
tick must cost barely more *calls* — the work per added sample is list
and array elements, not function calls. The gate fails the day someone
reintroduces a validator call or a ``MetricSample`` per decoded entry,
or a helper call or a ``(component, Metric)`` hash per stored one.
"""

import sys

from repro.common.types import METRIC_NAMES
from repro.edge.ingest import decode_json_push
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import IngestBatch, MetricStore

TICKS = 20
WARMUP = 40
MAX_DECODE_CALLS_PER_ADDED_SAMPLE = 1.0
MAX_INGEST_CALLS_PER_ADDED_SAMPLE = 0.5
MAX_LIST_INGEST_CALLS_PER_ADDED_SAMPLE = 0.5


def _payload(components: int, start: int, stop: int) -> dict:
    names = [f"vm{i:02d}" for i in range(components)]
    return {
        "samples": [
            {
                "component": name,
                "metric": metric.value,
                "time": t,
                "value": 50.0 + ((t * 7 + i * 3 + j) % 11) * 0.5,
            }
            for t in range(start, stop)
            for i, name in enumerate(names)
            for j, metric in enumerate(METRIC_NAMES)
        ],
        "performance": [{"time": t, "value": 0.05} for t in range(start, stop)],
    }


def _count(fn) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _ingest(store, batches) -> None:
    for batch in batches:
        store.ingest(IngestBatch(samples=batch.samples, watermark=batch.time + 1))


def _calls(components: int, as_lists: bool = False):
    """``(decode calls, ingest calls)`` of one warm 20-tick push."""
    store = MetricStore(policy=DataQualityPolicy())
    _ingest(store, decode_json_push(_payload(components, 0, WARMUP)).batches)
    payload = _payload(components, WARMUP, WARMUP + TICKS)
    pushes = []
    decode = _count(lambda: pushes.append(decode_json_push(payload)))
    batches = pushes[0].batches
    if as_lists:
        for batch in batches:
            batch.samples = list(batch.samples)
    ingest = _count(lambda: _ingest(store, batches))
    assert store.end == WARMUP + TICKS
    return decode, ingest


def _per_added_sample(few, many, small=8, large=16):
    return (many - few) / ((large - small) * len(METRIC_NAMES) * TICKS)


def test_decode_calls_per_added_sample_stay_flat():
    few, _ = _calls(8)
    many, _ = _calls(16)
    per_sample = _per_added_sample(few, many)
    assert per_sample <= MAX_DECODE_CALLS_PER_ADDED_SAMPLE, (
        f"decode: {few} calls at 8x6 series, {many} at 16x6: "
        f"{per_sample:.2f} per added sample"
    )


def test_ingest_calls_per_added_sample_stay_flat():
    _, few = _calls(8)
    _, many = _calls(16)
    per_sample = _per_added_sample(few, many)
    assert per_sample <= MAX_INGEST_CALLS_PER_ADDED_SAMPLE, (
        f"ingest of decoded columns: {few} calls at 8x6 series, {many} at "
        f"16x6: {per_sample:.2f} per added sample"
    )


def test_list_ingest_gets_no_dearer():
    _, few = _calls(8, as_lists=True)
    _, many = _calls(16, as_lists=True)
    per_sample = _per_added_sample(few, many)
    assert per_sample <= MAX_LIST_INGEST_CALLS_PER_ADDED_SAMPLE, (
        f"ingest of MetricSample lists: {few} calls at 8x6 series, {many} "
        f"at 16x6: {per_sample:.2f} per added sample"
    )
