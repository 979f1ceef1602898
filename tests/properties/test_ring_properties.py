"""Property-based guarantees of the ring-buffered store.

Two contracts over generated inputs:

1. **Chunking is invisible** — ingesting a contiguous history as
   arbitrarily sized :class:`IngestRun` chunks yields a store whose
   series, and whose analysis (prediction-error streams of a synced
   slave), are bit-identical to ``from_arrays`` on the same values.
2. **Retention keeps exactly the newest window** — for any values and
   any retention, the retained series is precisely the last
   ``min(len, retention)`` samples with the right ``start``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.common.types import Metric
from repro.core.config import FChainConfig
from repro.core.fchain import FChainSlave
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore

#: Cheap bootstraps keep each generated sync fast.
CONFIG = FChainConfig(cusum_bootstraps=20)

CPU = Metric.CPU_USAGE

finite_values = arrays(
    dtype=float,
    shape=st.integers(30, 200),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def _chunked_store(values, chunks, retention=None):
    kwargs = {} if retention is None else {"retention": retention}
    store = MetricStore(**kwargs)
    lo = 0
    for size in chunks:
        if lo >= len(values):
            break
        hi = min(lo + size, len(values))
        store.ingest(
            IngestBatch(
                runs=[IngestRun("c", CPU, lo, values[lo:hi])],
                watermark=hi,
            )
        )
        lo = hi
    if lo < len(values):
        store.ingest(
            IngestBatch(
                runs=[IngestRun("c", CPU, lo, values[lo:])],
                watermark=len(values),
            )
        )
    return store


@settings(max_examples=25, deadline=None)
@given(
    values=finite_values,
    chunks=st.lists(st.integers(1, 60), min_size=1, max_size=20),
)
def test_chunked_ingest_bit_identical_to_from_arrays(values, chunks):
    whole = MetricStore.from_arrays({"c": {CPU: values}})
    chunked = _chunked_store(values, chunks)

    left = whole.series("c", CPU)
    right = chunked.series("c", CPU)
    assert left.start == right.start
    np.testing.assert_array_equal(left.values, right.values)

    # Analysis equality: a slave synced on either store holds the same
    # prediction-error stream, bit for bit.
    one = FChainSlave(CONFIG, seed=1)
    one.sync_with_store(whole, whole.end)
    other = FChainSlave(CONFIG, seed=1)
    other.sync_with_store(chunked, chunked.end)
    np.testing.assert_array_equal(
        one.errors_for("c", CPU),
        other.errors_for("c", CPU),
    )


@settings(max_examples=25, deadline=None)
@given(
    values=finite_values,
    chunks=st.lists(st.integers(1, 60), min_size=1, max_size=20),
    retention=st.integers(8, 300),
)
def test_retention_keeps_exactly_the_newest_window(values, chunks, retention):
    store = _chunked_store(values, chunks, retention=retention)
    series = store.series("c", CPU)
    kept = min(len(values), retention)
    assert series.start == len(values) - kept
    np.testing.assert_array_equal(series.values, values[len(values) - kept :])
