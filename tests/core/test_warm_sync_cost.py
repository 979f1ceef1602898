"""Perf gates that no host can blur: calls per series and per owed tick
in a warm sync.

Wall time on a shared machine drifts by tens of percent between runs;
the number of Python and C calls one steady-state
``sync_with_store`` makes does not. A warm slave advances every
series of a tick along the bank's series axis, so a tick over ten times
as many series must cost barely more *calls* — the work per added
series is array elements, not function calls. The gate fails the day
someone reintroduces a per-series object walk (a model object, a stream
object, a ``store.series()`` view or a key-set rescan per series).

A slave many ticks behind (a tick loop that deferred its syncs) advances
the whole block along the bank's time axis, so owing four times as many
ticks must cost barely more calls either: the second gate fails the day
a sync walks the owed ticks, or the source bins, in Python.
"""

import sys

import numpy as np

from repro.common.types import Metric
from repro.core.fchain import FChainSlave
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore

WARM_TICKS = 130  # past the 60-sample warmup: every row is on the regular path
MAX_CALLS_PER_ADDED_SERIES = 10
MAX_CALLS_PER_OWED_TICK = 0.5


def _calls_in_one_warm_tick(components: int, owed: int = 1) -> int:
    """``call`` + ``c_call`` events of one steady-state sync of a slave
    ``owed`` ticks behind."""
    rng = np.random.default_rng(components)
    keys = [(f"c{i:03d}", metric) for i in range(components) for metric in Metric]
    data = {key: 40 + rng.normal(0, 3, WARM_TICKS + owed) for key in keys}
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
    for tick in range(WARM_TICKS, WARM_TICKS + owed):
        ingest(tick, tick + 1)

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
    assert len(slave.errors_for(*keys[-1])) == WARM_TICKS + owed
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


def test_calls_per_owed_tick_stay_flat():
    components = 2  # 12 series: a fleet tenant
    short, long = 20, 80
    few = _calls_in_one_warm_tick(components, short)
    many = _calls_in_one_warm_tick(components, long)
    per_tick = (many - few) / (long - short)
    assert per_tick <= MAX_CALLS_PER_OWED_TICK, (
        f"{few} calls owing {short} ticks, {many} owing {long}: "
        f"{per_tick:.2f} per added owed tick"
    )
