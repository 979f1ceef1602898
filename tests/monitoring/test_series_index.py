"""The warm sync's accessors on the store's matrix: ``SeriesIndex``
heads, one slot across rows (:meth:`SeriesIndex.column`) and a run of
slots across rows (:meth:`SeriesIndex.block`) must read exactly what
each series' own row view holds — for any subset of rows, consecutive
or not, and for windows that cross a wrapped row's seam."""

import numpy as np

from repro.common.types import Metric
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore

KEYS = [
    (f"c{i}", metric)
    for i in range(3)
    for metric in (Metric.CPU_USAGE, Metric.NETWORK_OUT)
]


def _wrapped_store():
    """Six series, 154 ticks in 7-tick runs, retention 64: every row has
    wrapped twice."""
    rng = np.random.default_rng(1)
    data = {key: rng.normal(size=154) for key in KEYS}
    store = MetricStore(retention=64)
    for t in range(0, 154, 7):
        store.ingest(
            IngestBatch(
                runs=[
                    IngestRun(c, m, t, data[(c, m)][t : t + 7])
                    for c, m in KEYS
                ],
                watermark=t + 7,
            )
        )
    return store


def test_heads_column_and_block_read_the_row_views():
    store = _wrapped_store()
    index = store.series_index()
    assert index.cap == 64
    np.testing.assert_array_equal(index.heads(), [154] * len(KEYS))
    lo, hi = 114, 149  # crosses the seam: 114 % 64 + 35 > 64
    for positions in (np.array([0, 2, 5]), np.array([1, 2, 3]), np.arange(6)):
        want = np.array([index.rings[p].view(lo, hi) for p in positions])
        np.testing.assert_array_equal(index.block(positions, lo, hi), want)
        for slot in range(lo, hi):
            np.testing.assert_array_equal(
                index.column(slot, positions), want[:, slot - lo]
            )
    np.testing.assert_array_equal(
        index.column(lo), [ring.view(lo, lo + 1)[0] for ring in index.rings]
    )
