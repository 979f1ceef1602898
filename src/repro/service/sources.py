"""Metric feeds for the online service loop.

A *feed* is any iterator of :class:`TickBatch` objects — one batch per
wall-clock tick, carrying the timestamped metric samples that arrived
during the tick plus (optionally) the application-level performance
signal the SLO detector evaluates. Three concrete feeds cover the
deployment shapes of :class:`~repro.service.pipeline.OnlinePipeline`:

* :class:`SimFeed` — drives a simulated
  :class:`~repro.apps.base.Application` live, one tick per ``next()``
  (``repro serve``);
* :class:`StoreReplayFeed` — replays a recorded
  :class:`~repro.monitoring.store.MetricStore` (e.g. loaded from CSV via
  :func:`repro.monitoring.io.load_store_csv`), re-creating gaps as
  missing samples (``repro replay``);
* :class:`CallableFeed` — adapts an in-process callable producing
  batches (a custom collector), terminating when it returns ``None``.

Feeds produce *timestamped* samples; the pipeline pushes them through
the tolerant :meth:`MetricStore.ingest` path, so feeds are free to skip
ticks, deliver late, or carry skewed clocks — exactly what the chaos
wrapper (:class:`repro.eval.chaos.CorruptedFeed`) injects.
"""

from __future__ import annotations

import csv
import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.common.errors import ReproError
from repro.common.types import MetricSample

#: CSV header of a performance trace (``repro replay``'s second input).
PERFORMANCE_HEADER = ("time", "value")


@dataclass
class TickBatch:
    """Everything a feed delivers for one tick.

    Attributes:
        time: The tick this batch belongs to.
        samples: Timestamped metric samples that *arrived* during the
            tick. A sample's own ``time`` may differ from the batch time
            (late delivery, clock skew) — the ingest path sorts it out.
            Feeds build a list; the network edge decodes a push into
            :class:`~repro.common.types.TickSamples` columns, which read
            as the same sequence and compare equal to that list.
        performance: The application-level SLO signal for this tick
            (average latency, job progress, ...), or ``None`` when no
            performance measurement arrived this tick.
        edges: Per-edge traffic observed during the tick, as
            ``{(src, dst): items}`` — evidence for an
            :class:`~repro.core.topology.OnlineTopology` the pipeline
            may be learning. ``None`` when the collector has no edge
            visibility (topology learning then relies on metric
            co-movement alone).
    """

    time: int
    samples: Sequence[MetricSample] = field(default_factory=list)
    performance: Optional[float] = None
    edges: Optional[Dict[tuple, float]] = None


class SimFeed:
    """Drive a simulated application live, one tick per ``next()``.

    Each iteration advances the application by one simulated second and
    emits that tick's monitor samples plus the measured performance
    signal. The application keeps its own store and SLO detector (they
    evolve as in any sim run); the pipeline ingests into *its own*
    store and detector, so the online loop exercises the same code path
    a production collector would.

    Args:
        app: The application to drive (``finalize()``-d).
        duration: Ticks to emit before the feed ends (``None`` = run
            until the consumer stops).
    """

    def __init__(self, app, duration: Optional[int] = None) -> None:
        self.app = app
        self.duration = duration
        self._emitted = 0

    def __iter__(self) -> "SimFeed":
        return self

    def __next__(self) -> TickBatch:
        if self.duration is not None and self._emitted >= self.duration:
            raise StopIteration
        app = self.app
        t = app.time
        app.tick(t)
        app.time += 1
        self._emitted += 1
        store = app.store
        samples = [
            MetricSample(
                component,
                metric,
                t,
                float(store.series(component, metric).values[-1]),
            )
            for component in store.components
            for metric in store.metrics_for(component)
        ]
        performance = None
        if app.slo is not None and app.slo.samples:
            performance = float(app.slo.samples[-1])
        edges = None
        if hasattr(app, "edge_traffic"):
            edges = app.edge_traffic()
        return TickBatch(
            time=t, samples=samples, performance=performance, edges=edges
        )


class StoreReplayFeed:
    """Replay a recorded metric store tick by tick.

    NaN slots in the recorded series (unfillable telemetry gaps) are
    re-created as *missing samples* — the tick simply carries nothing
    for that series — so a degraded recording replays as degraded, not
    as a stream of NaN readings.

    Args:
        store: The recorded store to replay.
        performance: The application performance signal, as a mapping
            of tick to value (ticks absent from the mapping replay with
            ``performance=None``).
    """

    def __init__(
        self,
        store,
        performance: Optional[Dict[int, float]] = None,
    ) -> None:
        self.store = store
        self.performance = dict(performance) if performance else {}
        self._series = {
            (component, metric): store.series(component, metric)
            for component in store.components
            for metric in store.metrics_for(component)
        }
        self._time = store.start

    def __iter__(self) -> "StoreReplayFeed":
        return self

    def __next__(self) -> TickBatch:
        t = self._time
        if t >= self.store.end:
            raise StopIteration
        self._time += 1
        samples = []
        for (component, metric), series in self._series.items():
            slot = t - series.start
            if slot < 0 or slot >= len(series):
                continue
            value = float(series.values[slot])
            if math.isnan(value):
                continue  # replay the gap as a gap
            samples.append(MetricSample(component, metric, t, value))
        return TickBatch(
            time=t, samples=samples, performance=self.performance.get(t)
        )


class CallableFeed:
    """Adapt an in-process callable into a feed.

    The callable is invoked once per iteration and must return the next
    :class:`TickBatch`, or ``None`` to end the feed.
    """

    def __init__(self, fn: Callable[[], Optional[TickBatch]]) -> None:
        self.fn = fn

    def __iter__(self) -> "CallableFeed":
        return self

    def __next__(self) -> TickBatch:
        batch = self.fn()
        if batch is None:
            raise StopIteration
        return batch


def save_performance_csv(path, performance: Dict[int, float]) -> None:
    """Write a ``time,value`` performance trace for ``repro replay``."""
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PERFORMANCE_HEADER)
        for t in sorted(performance):
            writer.writerow([t, performance[t]])


def load_performance_csv(path) -> Dict[int, float]:
    """Load a ``time,value`` performance trace (``repro replay`` input)."""
    path = pathlib.Path(path)
    performance: Dict[int, float] = {}
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != PERFORMANCE_HEADER:
            raise ReproError(
                f"expected CSV header {','.join(PERFORMANCE_HEADER)}, "
                f"got {header}"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                performance[int(row[0])] = float(row[1])
            except (ValueError, IndexError) as error:
                raise ReproError(
                    f"{path}:{line_number}: bad row {row!r}: {error}"
                ) from error
    if not performance:
        raise ReproError(f"{path}: no performance samples")
    return performance


__all__ = [
    "CallableFeed",
    "PERFORMANCE_HEADER",
    "SimFeed",
    "StoreReplayFeed",
    "TickBatch",
    "load_performance_csv",
    "save_performance_csv",
]
