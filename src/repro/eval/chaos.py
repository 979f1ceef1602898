"""Seeded telemetry-corruption harness for chaos testing.

The resilience layer (:mod:`repro.monitoring.quality`) promises graceful
degradation on broken telemetry; this module manufactures the breakage.
:func:`corrupt_store` replays a clean recorded :class:`MetricStore`
through the tolerant timestamped ingestion path while injecting the
defect classes a production collector produces:

* random sample loss (``gap_fraction``),
* NaN readings (``nan_fraction``),
* constant per-series clock skew (``max_skew``),
* delayed out-of-order delivery (``delay_fraction`` / ``delay_max``),
* VM churn — components silent for a contiguous interval (``churn``).

Everything is driven by one :class:`numpy.random.Generator` seeded from
``ChaosSpec.seed`` and iterated in sorted series order, so a given
``(store, spec)`` pair always yields the same corrupted store — the
chaos suite asserts determinism per seed on exactly this property.

:class:`CorruptedFeed` applies the same defect processes to a *live*
feed of the online service loop (:mod:`repro.service`), so degraded
telemetry is exercised in continuous operation, not only in batch
replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import MetricStore


@dataclass(frozen=True)
class ChaosSpec:
    """One reproducible corruption recipe.

    Attributes:
        seed: Seeds every random choice the corruption makes.
        gap_fraction: Per-sample probability of the sample never being
            delivered (a missing tick).
        nan_fraction: Per-sample probability of the delivered value being
            NaN (a broken reading; the ingest policy decides its fate).
        max_skew: Per-series constant clock offset drawn uniformly from
            ``[-max_skew, max_skew]`` ticks and added to every timestamp
            of the series.
        delay_fraction: Per-sample probability of delayed delivery: the
            sample arrives ``1..delay_max`` ticks late, out of order.
        delay_max: Upper bound on the delivery delay in ticks.
        churn: Number of components that go silent (VM churn) for one
            contiguous interval each.
        churn_max: Longest silence interval in ticks.
    """

    seed: int
    gap_fraction: float = 0.0
    nan_fraction: float = 0.0
    max_skew: int = 0
    delay_fraction: float = 0.0
    delay_max: int = 5
    churn: int = 0
    churn_max: int = 40


def corrupt_store(source: MetricStore, spec: ChaosSpec) -> MetricStore:
    """Replay a clean store through tolerant ingestion with faults injected.

    The first tick of every series is always delivered intact so the
    per-series skew offset is learnable (a real collector's registration
    handshake anchors the clock the same way); all later samples are
    subject to the spec's loss, NaN, delay and churn processes. Delayed
    samples are delivered in timestamp-sorted batches after each tick,
    and any still pending at the end of the run are flushed in order.

    Args:
        source: The clean recorded store to corrupt (read-only).
        spec: The corruption recipe.

    Returns:
        A new tolerant store covering the same time span.
    """
    rng = np.random.default_rng(spec.seed)
    out = MetricStore(start=source.start, policy=DataQualityPolicy())
    keys = [
        (component, metric)
        for component in source.components
        for metric in source.metrics_for(component)
    ]
    values = {key: source.series(*key).values for key in keys}
    skews = {
        key: (
            int(rng.integers(-spec.max_skew, spec.max_skew + 1))
            if spec.max_skew
            else 0
        )
        for key in keys
    }
    absent = _churn_intervals(source, spec, rng)
    pending: Dict[int, List[Tuple]] = {}
    for t in range(source.start, source.end):
        for key in keys:
            component, metric = key
            interval = absent.get(component)
            if interval and interval[0] <= t < interval[1]:
                continue
            value = float(values[key][t - source.start])
            if t > source.start:
                if spec.gap_fraction and rng.random() < spec.gap_fraction:
                    continue
                if spec.nan_fraction and rng.random() < spec.nan_fraction:
                    value = math.nan
                if spec.delay_fraction and rng.random() < spec.delay_fraction:
                    deliver = t + 1 + int(rng.integers(0, spec.delay_max))
                    pending.setdefault(deliver, []).append(
                        (component, metric, t + skews[key], value)
                    )
                    continue
            out.ingest(component, metric, t + skews[key], value)
        for late in pending.pop(t, ()):
            out.ingest(*late)
    for deliver in sorted(pending):
        for late in pending[deliver]:
            out.ingest(*late)
    out.advance_to(source.end)
    return out


class CorruptedFeed:
    """Wrap a live feed with the seeded corruption processes of a spec.

    Mirrors :func:`corrupt_store` sample for sample, but online: each
    :class:`~repro.service.sources.TickBatch` flowing through is
    subjected to the spec's loss, NaN, skew and delay processes before
    it reaches the pipeline. As in the batch harness, the first sample
    of every series is delivered intact so the ingest policy can learn
    the series' clock offset, and delayed samples re-enter in later
    batches (any still pending when the upstream feed ends are flushed
    in extra trailing batches). The churn process needs to know the run
    length up front and is batch-only — use :func:`corrupt_store` for
    it.

    Determinism: a given ``(feed, spec)`` pair always produces the same
    corrupted stream — the RNG is seeded from ``spec.seed`` and consumed
    in the feed's own sample order.
    """

    def __init__(self, feed, spec: ChaosSpec) -> None:
        self.feed = iter(feed)
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self._skews: Dict[Tuple[str, object], int] = {}
        self._pending: Dict[int, List] = {}
        self._exhausted = False

    def __iter__(self) -> "CorruptedFeed":
        return self

    def __next__(self):
        from repro.service.sources import TickBatch

        if self._exhausted:
            if not self._pending:
                raise StopIteration
            deliver = min(self._pending)
            return TickBatch(
                time=deliver, samples=self._pending.pop(deliver)
            )
        try:
            batch = next(self.feed)
        except StopIteration:
            self._exhausted = True
            return self.__next__()
        spec, rng = self.spec, self._rng
        samples = []
        for sample in batch.samples:
            key = (sample.component, sample.metric)
            skew = self._skews.get(key)
            if skew is None:
                skew = (
                    int(rng.integers(-spec.max_skew, spec.max_skew + 1))
                    if spec.max_skew
                    else 0
                )
                self._skews[key] = skew
                samples.append(
                    _resample(sample, sample.time + skew, sample.value)
                )
                continue
            if spec.gap_fraction and rng.random() < spec.gap_fraction:
                continue
            value = sample.value
            if spec.nan_fraction and rng.random() < spec.nan_fraction:
                value = math.nan
            corrupted = _resample(sample, sample.time + skew, value)
            if spec.delay_fraction and rng.random() < spec.delay_fraction:
                deliver = batch.time + 1 + int(rng.integers(0, spec.delay_max))
                self._pending.setdefault(deliver, []).append(corrupted)
                continue
            samples.append(corrupted)
        samples.extend(self._pending.pop(batch.time, ()))
        return TickBatch(
            time=batch.time, samples=samples, performance=batch.performance
        )


def _resample(sample, time: int, value: float):
    """A copy of a frozen :class:`MetricSample` with new time/value."""
    from repro.common.types import MetricSample

    return MetricSample(sample.component, sample.metric, time, value)


def _churn_intervals(
    source: MetricStore, spec: ChaosSpec, rng: np.random.Generator
) -> Dict[str, Tuple[int, int]]:
    """Draw one silence interval per churned component (never tick 0)."""
    if not spec.churn or source.length <= 2:
        return {}
    components = source.components
    picked = rng.choice(
        len(components), size=min(spec.churn, len(components)), replace=False
    )
    intervals: Dict[str, Tuple[int, int]] = {}
    for index in sorted(int(i) for i in picked):
        component = components[index]
        length = int(rng.integers(1, spec.churn_max + 1))
        offset = int(rng.integers(1, max(2, source.length - length)))
        intervals[component] = (
            source.start + offset,
            source.start + offset + length,
        )
    return intervals


__all__ = ["ChaosSpec", "CorruptedFeed", "corrupt_store"]
