"""A perf gate that no host can blur: calls per series in a warm sync.

Wall time on a shared machine drifts by tens of percent between runs;
the number of Python and C calls one steady-state
``sync_with_store`` tick makes does not. A warm slave advances every
series of a tick along the bank's series axis, so a tick over ten times
as many series must cost barely more *calls* — the work per added
series is array elements, not function calls. The gate fails the day
someone reintroduces a per-series object walk (a model object, a stream
object, a ``store.series()`` view or a key-set rescan per series).
"""

import sys

import numpy as np

from repro.common.types import Metric
from repro.core.fchain import FChainSlave
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore

WARM_TICKS = 130  # past the 60-sample warmup: every row is on the regular path
MAX_CALLS_PER_ADDED_SERIES = 10


def _calls_in_one_warm_tick(components: int) -> int:
    """``call`` + ``c_call`` events of one steady-state sync tick."""
    rng = np.random.default_rng(components)
    keys = [(f"c{i:03d}", metric) for i in range(components) for metric in Metric]
    data = {key: 40 + rng.normal(0, 3, WARM_TICKS + 1) for key in keys}
    store = MetricStore()
    slave = FChainSlave()

    def ingest(lo: int, hi: int) -> None:
        store.ingest(
            IngestBatch(
                runs=[
                    IngestRun(component, metric, lo, values[lo:hi])
                    for (component, metric), values in data.items()
                ],
                watermark=hi,
            )
        )

    for tick in range(WARM_TICKS):
        ingest(tick, tick + 1)
        slave.sync_with_store(store, store.end)
    ingest(WARM_TICKS, WARM_TICKS + 1)

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        slave.sync_with_store(store, store.end)
    finally:
        sys.setprofile(None)
    assert len(slave.errors_for(*keys[-1])) == WARM_TICKS + 1
    return calls


def test_marginal_calls_per_series_stay_flat():
    small, large = 8, 80
    few = _calls_in_one_warm_tick(small)
    many = _calls_in_one_warm_tick(large)
    added_series = (large - small) * len(Metric)
    per_series = (many - few) / added_series
    assert per_series <= MAX_CALLS_PER_ADDED_SERIES, (
        f"{few} calls at {small * len(Metric)} series, {many} at "
        f"{large * len(Metric)}: {per_series:.1f} per added series"
    )
