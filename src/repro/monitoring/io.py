"""Import/export of metric stores.

A downstream user of FChain has their own monitoring pipeline; these
helpers move 1 Hz metric data in and out of the :class:`MetricStore` via a
plain long-format CSV::

    time,component,metric,value
    0,web,cpu_usage,31.5
    0,web,memory_usage,402.1
    ...

so recorded production metrics can be diagnosed offline with
``python -m repro analyze metrics.csv --violation <t>``.
"""

from __future__ import annotations

import csv
import pathlib
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.common.types import ComponentId, Metric, MetricSample
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import IngestBatch, MetricStore

#: CSV header, fixed.
HEADER = ("time", "component", "metric", "value")


def save_store_csv(store: MetricStore, path) -> None:
    """Write a store's complete samples to a long-format CSV file."""
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        for component in store.components:
            for metric in store.metrics_for(component):
                series = store.series(component, metric)
                for offset, value in enumerate(series.values):
                    writer.writerow(
                        [series.start + offset, component, metric.value, value]
                    )


def load_store_csv(
    path, policy: Optional[DataQualityPolicy] = None
) -> MetricStore:
    """Load a long-format CSV into a :class:`MetricStore`.

    By default (``policy=None``) the loader is strict: the header above,
    one row per (time, component, metric), every series sampled at 1 Hz
    over the same contiguous time range — anything else raises.

    With a :class:`~repro.monitoring.quality.DataQualityPolicy` the load
    is tolerant: rows are delivered through :meth:`MetricStore.ingest`
    tick by tick, in time order and file order within a tick, as a live
    collector would have delivered them. Gaps are repaired or recorded
    as missing, non-finite values and duplicates are resolved, and a
    series that starts late is placed at its own first tick — recorded
    production telemetry can be diagnosed offline without pre-cleaning.

    Raises:
        ReproError: On malformed headers, unknown metrics, and (strict
            mode only) gaps or ragged series.
    """
    path = pathlib.Path(path)
    by_series: Dict[Tuple[ComponentId, Metric], Dict[int, float]] = {}
    rows: List[Tuple[int, ComponentId, Metric, float]] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != HEADER:
            raise ReproError(
                f"expected CSV header {','.join(HEADER)}, got {header}"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                time = int(row[0])
                metric = Metric(row[2])
                value = float(row[3])
            except (ValueError, IndexError) as error:
                raise ReproError(
                    f"{path}:{line_number}: bad row {row!r}: {error}"
                ) from error
            rows.append((time, row[1], metric, value))
            by_series.setdefault((row[1], metric), {})[time] = value

    if not by_series:
        raise ReproError(f"{path}: no samples")

    if policy is not None:
        rows.sort(key=itemgetter(0))
        store = MetricStore(start=rows[0][0], policy=policy)
        for time, tick in groupby(rows, key=itemgetter(0)):
            store.advance_to(time)
            samples = [MetricSample(c, m, t, v) for t, c, m, v in tick]
            store.ingest(IngestBatch(samples=samples))
        store.advance_to(rows[-1][0] + 1)
        return store

    starts = {min(samples) for samples in by_series.values()}
    ends = {max(samples) for samples in by_series.values()}
    if len(starts) > 1 or len(ends) > 1:
        raise ReproError(
            f"{path}: series cover different time ranges "
            f"(starts {sorted(starts)}, ends {sorted(ends)})"
        )
    start, end = starts.pop(), ends.pop()
    length = end - start + 1

    data: Dict[ComponentId, Dict[Metric, List[float]]] = {}
    for (component, metric), samples in by_series.items():
        if len(samples) != length:
            missing = length - len(samples)
            raise ReproError(
                f"{path}: {component}/{metric} has {missing} gaps "
                f"(need one sample per second)"
            )
        values = [samples[t] for t in range(start, end + 1)]
        data.setdefault(component, {})[metric] = values
    return MetricStore.from_arrays(data, start=start)
