"""A perf gate that no host can blur, in Python lines: a wide tick costs
array elements, not lines.

``sys.setprofile`` counts calls, and a list comprehension over every
series is one call however many series it walks. ``sys.settrace``
reports a ``line`` event for every line executed, each pass of such a
comprehension included. A warm, in-order tick is one gathered write
into the store and one column of the model bank, so a tick over 600
series must run the same Python lines as one over 48, give or take a
branch, in both :meth:`MetricStore.ingest` and
:meth:`FChainSlave.sync_with_store`. The gate fails the day either
walks the series in Python again.
"""

import sys

import numpy as np

from repro.common.types import METRIC_NAMES, TickSamples
from repro.core.fchain import FChainSlave
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import IngestBatch, MetricStore

WARM_TICKS = 130  # past the 60-sample warmup: every row is on the regular path
SMALL, LARGE = 8, 100  # components: 48 and 600 series
MAX_EXTRA_LINES = 6


def _lines(fn) -> int:
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
    return lines


def _lines_of_one_warm_tick(components: int):
    """``(ingest lines, sync lines)`` of one steady-state tick."""
    rng = np.random.default_rng(components)
    names = [f"vm{i:03d}" for i in range(components)]
    store = MetricStore(policy=DataQualityPolicy())
    slave = FChainSlave()

    def batch(t: int) -> IngestBatch:
        values = 40 + rng.normal(0, 3, components * len(METRIC_NAMES))
        samples = TickSamples(
            t,
            [name for name in names for _ in METRIC_NAMES],
            [metric for _ in names for metric in METRIC_NAMES],
            values.tolist(),
        )
        return IngestBatch(samples=samples, watermark=t + 1)

    for t in range(WARM_TICKS):
        store.ingest(batch(t))
        slave.sync_with_store(store, store.end)
    tick = batch(WARM_TICKS)
    ingest = _lines(lambda: store.ingest(tick))
    sync = _lines(lambda: slave.sync_with_store(store, store.end))
    assert store.end == WARM_TICKS + 1
    assert len(slave.errors_for(names[-1], METRIC_NAMES[-1])) == WARM_TICKS + 1
    return ingest, sync


def test_a_wide_tick_runs_no_more_lines():
    small = _lines_of_one_warm_tick(SMALL)
    large = _lines_of_one_warm_tick(LARGE)
    for stage, few, many in zip(("ingest", "sync"), small, large):
        assert many - few <= MAX_EXTRA_LINES, (
            f"{stage}: {few} lines at {SMALL * len(METRIC_NAMES)} series, "
            f"{many} at {LARGE * len(METRIC_NAMES)}"
        )
