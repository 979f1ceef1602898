"""Property-based proof that the fused sample loop is the per-sample rule.

``MetricStore.ingest`` walks a batch's samples in one fused loop that
appends the common case — the next in-order, finite sample of a known
series with room in its ring — inline, and hands everything else to
``_ingest_sample``, the per-sample policy path. The reference below
feeds the very same samples, in the same order, through
``_ingest_sample`` one by one. Whatever the schedule, both stores must
hold bit-identical rings (retained values in both mirror halves, gap
kinds, heads, capacities), equal ``SeriesQuality`` counters, the same
``revision`` and the same ingest counters; in a strict store the first
defect must raise the same exception with the same message.

Schedules are built from a drawn seed: in-order ticks mixed with gaps,
late backfills, duplicates, NaN/±inf and integer readings, a constant
clock skew on some series, one far-ahead jump, enough ticks to grow a
ring past its initial 256 slots, and retentions small enough to wrap.
Batches whose samples share one time travel as ``TickSamples`` columns,
the others as ``MetricSample`` lists.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DataQualityError
from repro.common.types import Metric, MetricSample, TickSamples
from repro.monitoring.quality import DataQualityPolicy, IngestMetrics
from repro.monitoring.store import DEFAULT_RETENTION, IngestBatch, MetricStore
from repro.obs.registry import MetricsRegistry

SERIES = [
    (component, metric)
    for component in ("web", "db")
    for metric in (Metric.CPU_USAGE, Metric.NETWORK_OUT)
]

POLICIES = {
    "default": DataQualityPolicy(),
    "strict": None,
}


def _schedule(seed, ticks, defect_rate, columns_rate):
    """``(samples, watermark, as_columns)`` batches of one drawn run."""
    rng = np.random.default_rng(seed)
    skew = {key: int(rng.integers(-3, 4)) * (rng.random() < 0.5) for key in SERIES}
    jump_at = int(rng.integers(0, ticks))
    batches = []
    for t in range(ticks):
        emitted = []
        for key in SERIES:
            time = t + skew[key]
            value = float(rng.normal(50.0, 5.0))
            roll = rng.random()
            if roll < defect_rate:
                defect = int(rng.integers(0, 7))
                if defect == 0:  # gap: the sample never arrives
                    continue
                if defect == 1:
                    value = float(rng.choice([np.nan, np.inf, -np.inf]))
                elif defect == 2:  # late backfill
                    time -= int(rng.integers(1, 13))
                elif defect == 3:  # duplicate delivery
                    emitted.append(MetricSample(*key, time, value + 1.0))
                elif defect == 4:  # an integer reading
                    value = int(value)
                elif defect == 5 and t == jump_at:  # far-ahead jump
                    time += int(rng.integers(20, 700))
                elif defect == 6:  # a series' clock runs ahead for one tick
                    time += 1
            emitted.append(MetricSample(*key, time, value))
        order = rng.permutation(len(emitted)) if rng.random() < 0.2 else None
        if order is not None:
            emitted = [emitted[i] for i in order]
        if rng.random() < columns_rate:
            # Consecutive samples sharing one time travel as columns.
            runs = []
            for sample in emitted:
                if runs and runs[-1][0].time == sample.time:
                    runs[-1].append(sample)
                else:
                    runs.append([sample])
            for i, run in enumerate(runs):
                last = i == len(runs) - 1
                batches.append((run, t + 1 if last else None, True))
            if not runs:
                batches.append(([], t + 1, False))
        else:
            batches.append((emitted, t + 1, False))
    return batches


def _columns(samples):
    """One run of same-time samples as ``TickSamples``; integer readings
    stay a list, since columns carry Python floats only."""
    if any(type(s.value) is not float for s in samples):
        return samples
    return TickSamples(
        samples[0].time,
        [s.component for s in samples],
        [s.metric for s in samples],
        [s.value for s in samples],
    )


def _store(policy, retention):
    store = MetricStore(start=0, policy=policy, retention=retention)
    store._ingest_metrics = IngestMetrics(MetricsRegistry())
    return store


def _fused(store, batches):
    for samples, watermark, as_columns in batches:
        if as_columns:
            samples = _columns(samples)
        store.ingest(IngestBatch(samples=samples, watermark=watermark))


def _scalar(store, batches):
    for samples, watermark, _ in batches:
        for s in samples:
            store._ingest_sample(s.component, s.metric, s.time, s.value, watermark)
        if watermark is not None:
            store.advance_to(watermark)


def _outcome(feed, store, batches):
    try:
        feed(store, batches)
    except DataQualityError as error:
        return type(error), str(error)
    return None


def _assert_same_state(fused, scalar):
    assert fused._series.keys() == scalar._series.keys()
    for key, ring in fused._series.items():
        other = scalar._series[key]
        assert (ring.head, ring.cap, ring.first) == (other.head, other.cap, other.first)
        slots = np.arange(ring.first, ring.head) % ring.cap
        for half in (slots, slots + ring.cap):
            assert (
                ring.values[half].view(np.uint64) == other.values[half].view(np.uint64)
            ).all(), key
        assert (ring.kinds[slots] == other.kinds[slots]).all(), key
        assert fused.series_quality(*key) == scalar.series_quality(*key), key
    assert fused.revision == scalar.revision
    assert fused.length == scalar.length
    assert _counters(fused) == _counters(scalar)


def _counters(store):
    metrics = store._ingest_metrics
    return [
        sorted(counter.samples())
        for counter in (
            metrics.dropped,
            metrics.filled,
            metrics.gap_ticks,
            metrics.backfilled,
            metrics.skew_aligned,
        )
    ]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ticks=st.one_of(st.integers(1, 40), st.integers(250, 300)),
    defect_rate=st.sampled_from([0.0, 0.05, 0.3]),
    columns_rate=st.sampled_from([0.0, 0.5, 1.0]),
    policy=st.sampled_from(sorted(POLICIES)),
    retention=st.sampled_from([3, 17, 260, DEFAULT_RETENTION]),
)
def test_fused_loop_matches_the_per_sample_rule(
    seed, ticks, defect_rate, columns_rate, policy, retention
):
    batches = _schedule(seed, ticks, defect_rate, columns_rate)
    fused = _store(POLICIES[policy], retention)
    scalar = _store(POLICIES[policy], retention)
    assert _outcome(_fused, fused, batches) == _outcome(_scalar, scalar, batches)
    _assert_same_state(fused, scalar)
