"""Zero-copy sharing of a :class:`MetricStore` across processes.

The process-based :class:`~repro.core.engine.SlavePool` executor must hand
every worker the full metric history without pickling it per task (a
fleet-scale store is hundreds of megabytes). This module flattens each
series' *retained* window into one ``multiprocessing.shared_memory``
segment:

* the master calls :class:`SharedStoreExport` once per diagnosis, paying
  one vectorized copy of each retained row view into the segment —
  because the store's matrix is mirrored, every view is already one
  contiguous slice regardless of where the row's head is;
* workers call :func:`attach_store` with the (tiny, picklable)
  :class:`SharedStoreHandle` and get back a read-only ``MetricStore``
  whose series are numpy views *into the shared segment* — attaching
  copies nothing, no matter how long the history is.

The attached store supports every read path (``series``, ``window``,
``metrics_for``, ``components``, ``series_quality``) byte-for-byte
identically to the original, including rows that have wrapped: each
layout entry carries the series' retained-start timestamp, so an
attached series reports the same clipped ``start`` as the live row.
Writing to an attached store raises.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

from repro.common.types import ComponentId, Metric
from repro.monitoring.quality import DataQualityPolicy, SeriesQuality
from repro.monitoring.store import (
    DEFAULT_RETENTION,
    KIND_MISSING,
    KIND_OBSERVED,
    MetricStore,
    _KIND_NAMES,
    _FlatRing,
)

#: Reverse of the gap-bitmap name table: kind name -> bitmap code.
_KIND_CODES = {name: code for code, name in _KIND_NAMES.items()}

#: One series of the flattened layout: (component, metric value, element
#: offset into the segment, element count, first retained slot).
_SeriesSpec = Tuple[ComponentId, str, int, int, int]

#: One series' ingest-quality snapshot: (component, metric value, stats).
#: The snapshot's ``gap_slots`` is pre-materialized from the gap bitmap,
#: so workers reproduce the master's quality accounting bit for bit.
_QualitySpec = Tuple[ComponentId, str, SeriesQuality]


@dataclass(frozen=True)
class SharedStoreHandle:
    """Picklable description of an exported store segment.

    Besides the per-series layout, the handle carries the store's
    data-quality context (policy, per-series ingest counters, revision)
    so a worker's attached view reproduces the master's
    ``DataQualityReport``s bit for bit.
    """

    shm_name: str
    start: int
    length: int
    layout: Tuple[_SeriesSpec, ...]
    policy: Optional[DataQualityPolicy] = None
    quality: Tuple[_QualitySpec, ...] = ()
    revision: int = 0

    @property
    def total_elements(self) -> int:
        return sum(count for _, _, _, count, _ in self.layout)


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink one owned segment (idempotent via finalize)."""
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - double unlink
        pass


class SharedStoreExport:
    """Owner side of a shared-memory store snapshot.

    Flattens every (component, metric) series' retained window into one
    float64 segment. The export owns the segment: call :meth:`close`
    (idempotent) when all workers are done with it — on POSIX, unlinking
    only removes the name, so workers that already attached keep reading
    valid memory. A ``weakref.finalize`` guard unlinks the segment even
    when ``close()`` is never reached (a worker dying mid-attach, an
    exception between export and cleanup): dropping the last reference —
    or interpreter shutdown — releases the ``/dev/shm`` entry.
    """

    def __init__(self, store: MetricStore) -> None:
        views = []
        offset = 0
        layout = []
        for component in store.components:
            for metric in store.metrics_for(component):
                series = store.series(component, metric)
                first_slot = series.start - store.start
                layout.append(
                    (
                        component,
                        metric.value,
                        offset,
                        len(series),
                        first_slot,
                    )
                )
                views.append(series.values)
                offset += len(series)
        nbytes = max(1, offset * np.dtype(np.float64).itemsize)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self._finalizer = weakref.finalize(
            self, _release_segment, self._shm
        )
        flat = np.ndarray((offset,), dtype=np.float64, buffer=self._shm.buf)
        for (_, _, col_offset, count, _), values in zip(layout, views):
            flat[col_offset : col_offset + count] = values
        self.handle = SharedStoreHandle(
            shm_name=self._shm.name,
            start=store.start,
            length=store.length,
            layout=tuple(layout),
            policy=store.policy,
            quality=tuple(
                (
                    component,
                    metric.value,
                    store.series_quality(component, metric).snapshot(),
                )
                for (component, metric) in sorted(
                    store._quality, key=lambda key: (key[0], key[1].value)
                )
            ),
            revision=store.revision,
        )

    def close(self) -> None:
        """Release and unlink the segment (safe to call repeatedly)."""
        if self._shm is None:
            return
        # The finalizer runs at most once, so an earlier GC-triggered
        # release makes this a no-op rather than a double unlink.
        self._finalizer()
        self._shm = None

    def __enter__(self) -> "SharedStoreExport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_store(handle: SharedStoreHandle) -> MetricStore:
    """Open a read-only ``MetricStore`` view of an exported segment.

    The returned store's series are zero-copy numpy views into the
    shared segment, wrapped as *flat* (read-only) handles; the segment
    mapping is kept alive by the store object itself.
    """
    # Attaching re-registers the segment with the resource tracker (a
    # known pre-3.13 wart). Forked workers — and in-process attaches —
    # share the exporter's tracker, where the duplicate registration is
    # a set no-op and the exporter's unlink() cleans it up; unregistering
    # here instead would strip the exporter's own registration and make
    # that unlink trip a tracker KeyError. Under a spawn fallback the
    # worker's private tracker may log a benign "leaked shared_memory"
    # warning when a long-lived worker finally exits.
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    flat = np.ndarray(
        (handle.total_elements,), dtype=np.float64, buffer=shm.buf
    )
    store = MetricStore(start=handle.start, policy=handle.policy)
    store._length = handle.length
    store._attached = True
    for component, metric_value, offset, count, first_slot in handle.layout:
        key = (component, Metric(metric_value))
        store._series[key] = _FlatRing(
            flat[offset : offset + count], base=first_slot
        )
    for component, metric_value, qual in handle.quality:
        store._quality[(component, Metric(metric_value))] = qual
    store._revision = handle.revision
    store._shm = shm  # keep the mapping alive as long as the store
    return store


def materialize_store(
    handle: SharedStoreHandle,
    *,
    retention: int = DEFAULT_RETENTION,
) -> MetricStore:
    """Rebuild a *writable* ``MetricStore`` from an exported snapshot.

    Where :func:`attach_store` hands out a read-only zero-copy view for
    the lifetime of one diagnosis, this copies the snapshot out of the
    segment into a fresh mirrored matrix so ingest can continue — the fleet
    layer uses it to relocate a tenant's store to another shard worker.

    The rebuilt store is indistinguishable from the original live store
    for every read and every future ingest: retained values, per-slot
    gap kinds, quality counters (including the learned ``skew_offset``),
    ``length`` and ``revision`` all carry over. Slots evicted from the
    original row before export are re-padded as missing, so the row's
    head lands on the same absolute slot and future eviction behaves
    identically (pass the original store's ``retention``).
    """
    shm = shared_memory.SharedMemory(name=handle.shm_name)
    try:
        flat = np.ndarray(
            (handle.total_elements,), dtype=np.float64, buffer=shm.buf
        )
        store = MetricStore(
            start=handle.start,
            policy=handle.policy,
            retention=retention,
        )
        # Quality records first: a row created afterwards picks up its
        # series' learned clock skew from its record.
        gap_slots = {}
        for component, metric_value, qual in handle.quality:
            key = (component, Metric(metric_value))
            snap = qual.snapshot()
            # Live stores keep gap state in the gap bitmap, not in the
            # quality record — restore the bitmap and clear the map.
            gap_slots[key], snap.gap_slots = snap.gap_slots, {}
            store._quality[key] = snap
        for component, metric_value, offset, count, first_slot in (
            handle.layout
        ):
            ring = store._ring((component, Metric(metric_value)))
            if first_slot > 0:
                # Evicted history: values are gone, but the head must
                # land on the same absolute slot as the source row.
                ring.append_run(np.full(first_slot, np.nan), KIND_MISSING)
            ring.append_run(
                np.array(flat[offset : offset + count]), KIND_OBSERVED
            )
        for key, slots in gap_slots.items():
            ring = store._series.get(key)
            if ring is None:
                continue
            for slot, name in slots.items():
                if ring.first <= slot < ring.head:
                    ring.set_kind(slot, _KIND_CODES[name])
        store._length = handle.length
        store._revision = handle.revision
        return store
    finally:
        shm.close()
