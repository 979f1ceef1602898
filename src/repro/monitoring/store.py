"""Ring-buffered in-memory store for sampled metric time series.

One :class:`MetricStore` holds every (component, metric) series of one
application run at the 1-second sampling interval. FChain slaves read
look-back windows out of it; the evaluation harness replays the same
store through every localization scheme so all schemes see identical
data.

Storage is one preallocated *mirrored ring buffer* per series: a
float64 buffer of twice the ring capacity in which every sample is
written at both ``slot % cap`` and ``slot % cap + cap``. The mirror
makes any retained window of at most ``cap`` samples a single
contiguous zero-copy slice — readers never see the wrap seam, and
:meth:`MetricStore.series` / :meth:`MetricStore.window` hand out plain
numpy views no matter where the ring head currently is. A parallel
``uint8`` gap bitmap (one code per retained slot: observed / missing /
forward-filled / interpolated) replaces the old per-series fill-slot
dictionary; :meth:`series_quality` materializes the historical
``gap_slots`` mapping from it on demand.

Rings grow by doubling (old buffers are left behind intact, so
previously returned views stay valid) until they reach the store's
``retention``; past that point the ring stops allocating and retains
the newest ``retention`` samples by overwriting the oldest — steady
state ingest is allocation-free.

There is one write surface: :meth:`MetricStore.ingest` accepts either
an :class:`IngestBatch` (per-sample points, vectorized contiguous runs,
and a watermark in one call) or the legacy per-sample
``(component, metric, time, value)`` form. A store has two modes: one
built with a :class:`~repro.monitoring.quality.DataQualityPolicy` is
tolerant, one built without is strict, and every defect site branches
on that one fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import DataQualityError
from repro.common.timeseries import TimeSeries
from repro.common.types import (
    METRIC_NAMES,
    ComponentId,
    Metric,
    MetricSample,
    TickSamples,
)
from repro.monitoring.quality import (
    DataQualityPolicy,
    IngestMetrics,
    SeriesQuality,
)

_Key = Tuple[ComponentId, Metric]

#: Initial ring capacity; rings double from here up to the retention.
_MIN_RING_CAPACITY = 256

#: Default retention: effectively unbounded for test/evaluation runs —
#: long-lived services pick a real bound (e.g. a few hours of 1 Hz data)
#: to cap steady-state memory.
DEFAULT_RETENTION = 1 << 20

#: Gap-bitmap codes, one per retained slot.
KIND_OBSERVED = 0
KIND_MISSING = 1
KIND_FORWARD = 2
KIND_INTERPOLATED = 3

_KIND_NAMES = {
    KIND_MISSING: "missing",
    KIND_FORWARD: "forward",
    KIND_INTERPOLATED: "interpolate",
}


class _Ring:
    """One series: a mirrored ring buffer plus its gap bitmap.

    ``values`` has physical size ``2 * cap``; every retained slot ``s``
    is stored at both ``s % cap`` and ``s % cap + cap``, so the window
    ``[lo, hi)`` (``hi - lo <= cap``) is always the contiguous slice
    ``values[lo % cap : lo % cap + (hi - lo)]``. ``kinds`` is the gap
    bitmap, ``cap`` slots, *not* mirrored (only point reads and the
    on-demand ``gap_slots`` materialization touch it).

    A ring attached from a shared-memory snapshot is *flat*:
    ``flat_base`` is the first snapshotted slot, ``values`` holds
    exactly the snapshot (no mirror), and writes are refused.
    """

    __slots__ = ("values", "kinds", "cap", "limit", "head", "flat_base")

    def __init__(self, cap: int, limit: int) -> None:
        self.cap = cap
        self.limit = limit
        self.values = np.empty(2 * cap, dtype=np.float64)
        self.kinds = np.zeros(cap, dtype=np.uint8)
        self.head = 0
        self.flat_base: Optional[int] = None

    @classmethod
    def flat(cls, values: np.ndarray, base: int) -> "_Ring":
        ring = object.__new__(cls)
        ring.values = values
        ring.kinds = None
        ring.cap = max(1, len(values))
        ring.limit = ring.cap
        ring.head = base + len(values)
        ring.flat_base = base
        return ring

    @property
    def first(self) -> int:
        """Oldest retained slot."""
        if self.flat_base is not None:
            return self.flat_base
        return max(0, self.head - self.cap)

    def view(self, lo: int, hi: int) -> np.ndarray:
        """Zero-copy view of retained slots ``[lo, hi)``."""
        if self.flat_base is not None:
            return self.values[lo - self.flat_base : hi - self.flat_base]
        p = lo % self.cap
        return self.values[p : p + (hi - lo)]

    def value_at(self, slot: int) -> float:
        if self.flat_base is not None:
            return float(self.values[slot - self.flat_base])
        return float(self.values[slot % self.cap])

    def kind_at(self, slot: int) -> int:
        if self.kinds is None:
            return KIND_OBSERVED
        return int(self.kinds[slot % self.cap])

    def set_kind(self, slot: int, kind: int) -> None:
        self.kinds[slot % self.cap] = kind

    def write_at(self, slot: int, value: float) -> None:
        """Rewrite one retained slot in place (backfill repair)."""
        self._check_writable()
        p = slot % self.cap
        self.values[p] = value
        self.values[p + self.cap] = value

    def _check_writable(self) -> None:
        if self.flat_base is not None:
            raise RuntimeError(
                "attached shared-memory store snapshots are read-only"
            )

    def _grow(self, needed: int) -> None:
        """Double capacity (up to the retention limit) to fit ``needed``.

        Only ever called while ``head <= cap`` (before any eviction),
        so the retained region is the plain prefix ``[0, head)``. The
        old buffer is left behind untouched: views handed out earlier
        keep their then-current contents.
        """
        cap = self.cap
        while cap < needed and cap < self.limit:
            cap = min(2 * cap, self.limit)
        if cap == self.cap:
            return
        values = np.empty(2 * cap, dtype=np.float64)
        kinds = np.zeros(cap, dtype=np.uint8)
        n = self.head
        values[:n] = self.values[:n]
        values[cap : cap + n] = self.values[:n]
        kinds[:n] = self.kinds[:n]
        self.values, self.kinds, self.cap = values, kinds, cap

    def append_one(self, value: float, kind: int) -> None:
        """Append a single sample at the head (the 1 Hz hot path)."""
        self._check_writable()
        s = self.head
        cap = self.cap
        if s >= cap and cap < self.limit:
            self._grow(s + 1)
            cap = self.cap
        p = s % cap
        self.values[p] = value
        self.values[p + cap] = value
        self.kinds[p] = kind
        self.head = s + 1

    def skip_to(self, head: int) -> None:
        """Move the head forward to ``head`` without writing the slots
        passed over.

        For a caller that appends ``limit`` slots right after, which
        evicts everything retained: the ring is first grown to its limit
        (the only moment it can still copy a plain prefix), so the jump
        never has to move or clear retained data.
        """
        self._check_writable()
        self._grow(self.limit)
        self.head = head

    def append_run(self, values: np.ndarray, kind: int) -> int:
        """Append a contiguous run at the head; returns the first slot
        actually written.

        If the run is longer than the ring capacity, only its newest
        ``cap`` samples are stored — the earlier ones are evicted on
        arrival.
        """
        self._check_writable()
        n = len(values)
        s = self.head
        if s + n > self.cap and self.cap < self.limit:
            self._grow(s + n)
        cap = self.cap
        new_head = s + n
        write_start = max(s, new_head - cap)
        run = values[write_start - s :]
        p = write_start % cap
        m = len(run)
        fit = min(m, cap - p)
        self.values[p : p + fit] = run[:fit]
        self.values[cap + p : cap + p + fit] = run[:fit]
        self.kinds[p : p + fit] = kind
        if fit < m:
            rest = m - fit
            self.values[:rest] = run[fit:]
            self.values[cap : cap + rest] = run[fit:]
            self.kinds[:rest] = kind
        self.head = new_head
        return write_start

    def gap_slots(self) -> Dict[int, str]:
        """Materialize the historical slot -> kind-name mapping."""
        if self.flat_base is not None or self.head == 0:
            return {}
        cap = self.cap
        first = self.first
        if self.head <= cap:
            marked = np.flatnonzero(self.kinds[: self.head])
            return {int(p): _KIND_NAMES[int(self.kinds[p])] for p in marked}
        out = {}
        for p in np.flatnonzero(self.kinds):
            p = int(p)
            slot = first + ((p - first) % cap)
            out[slot] = _KIND_NAMES[int(self.kinds[p])]
        return out


class SeriesIndex:
    """Immutable snapshot of which series a store holds, in creation order.

    Readers that walk every series on every tick (the slave's warm sync)
    take this instead of rescanning the key set: ``keys[i]`` and
    ``rings[i]`` describe one series, ``components`` is the sorted
    component list and ``metrics[component]`` its metrics in canonical
    order. The snapshot itself never changes — a store that gains a
    series builds a new one — so ``index is previous`` tells a reader
    whether anything it derived from the last snapshot is still valid.
    The rings are live: the per-tick accessors below read their current
    heads and values.
    """

    __slots__ = ("keys", "rings", "components", "metrics", "mirrored")

    def __init__(self, entries: Sequence[Tuple[_Key, _Ring]]) -> None:
        self.keys: Tuple[_Key, ...] = tuple(key for key, _ in entries)
        self.rings: Tuple[_Ring, ...] = tuple(ring for _, ring in entries)
        self.components: Tuple[ComponentId, ...] = tuple(
            sorted({component for component, _ in self.keys})
        )
        present: Dict[ComponentId, set] = {c: set() for c in self.components}
        for component, metric in self.keys:
            present[component].add(metric)
        self.metrics: Dict[ComponentId, Tuple[Metric, ...]] = {
            component: tuple(m for m in METRIC_NAMES if m in metrics)
            for component, metrics in present.items()
        }
        #: False when any ring is a flat shared-memory snapshot, which
        #: :meth:`column` cannot address.
        self.mirrored = all(ring.flat_base is None for ring in self.rings)

    def __len__(self) -> int:
        return len(self.keys)

    def heads(self) -> np.ndarray:
        """One past the newest written slot of every series."""
        return np.array([ring.head for ring in self.rings], dtype=np.int64)

    def capacities(self) -> np.ndarray:
        """Current ring capacity of every series (``mirrored`` only)."""
        return np.array([ring.cap for ring in self.rings], dtype=np.int64)

    def column(
        self, slot: int, positions: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """The value every series (or those at ``positions``) holds at
        one slot. The slot must be written and still retained in each
        addressed ring, and the index ``mirrored``."""
        rings = self.rings
        if positions is not None:
            rings = [rings[i] for i in positions]
        return np.array(
            [ring.values[slot % ring.cap] for ring in rings], dtype=np.float64
        )


@dataclass(frozen=True)
class IngestRun:
    """A contiguous run of samples for one series.

    ``values[i]`` is the sample at absolute time ``start + i``. Runs are
    the vectorized fast path: one slice assignment per ring half instead
    of a Python-level loop per sample.
    """

    component: ComponentId
    metric: Metric
    start: int
    values: Sequence[float]


@dataclass(frozen=True)
class IngestBatch:
    """One unified write against a :class:`MetricStore`.

    Attributes:
        samples: Individually timestamped points
            (:class:`~repro.common.types.MetricSample`, or one tick's
            :class:`~repro.common.types.TickSamples` columns), routed
            through the full per-sample machinery (validation, gap
            fill, skew alignment, backfill, duplicates); the next
            in-order sample of a known series is appended inline.
        runs: Contiguous per-series :class:`IngestRun` blocks, applied
            through the vectorized append path.
        watermark: When set, ``advance_to(watermark)`` after the writes
            — every tick before it is marked complete.
    """

    samples: Sequence[MetricSample] = ()
    runs: Sequence[IngestRun] = ()
    watermark: Optional[int] = None


class MetricStore:
    """Ring-buffered storage of per-component metric samples.

    All writes go through :meth:`ingest`. A store constructed with a
    :class:`~repro.monitoring.quality.DataQualityPolicy` is tolerant
    (bounded gap fill, clock-skew alignment, late backfill, first
    delivery wins, per-series
    :class:`~repro.monitoring.quality.SeriesQuality` counters); a store
    constructed without one is strict: NaN, a gap, an out-of-order or
    duplicate sample all raise.

    Retention: each series keeps at most ``retention`` samples; once a
    ring is full the oldest slot is overwritten by the newest. Reads clip
    to the retained range — :meth:`series` returns a view whose ``start``
    reflects any evicted prefix. Views stay valid while their window
    stays retained; a view still holding the oldest retained slots
    observes the overwrite once the ring wraps past them.

    ``revision`` increments whenever a *past* slot is rewritten in
    place (late backfill); window-keyed caches include
    it so a repaired window is never served stale. Eviction does not
    bump it: retained slots are immutable, and a clipped window differs
    in its bounds, which every cache key already carries.
    """

    def __init__(
        self,
        start: int = 0,
        policy: Optional[DataQualityPolicy] = None,
        *,
        retention: int = DEFAULT_RETENTION,
    ) -> None:
        if retention < 1:
            raise DataQualityError("retention must be >= 1 sample")
        self.start = start
        self.policy = policy
        self.retention = int(retention)
        self._series: Dict[_Key, _Ring] = {}
        self._index = SeriesIndex(())
        self._length = 0
        self._quality: Dict[_Key, SeriesQuality] = {}
        # Ring and counters of every writable series with a learned
        # skew, under one key: the fused sample loop's single lookup.
        self._appendable: Dict[_Key, Tuple[_Ring, SeriesQuality]] = {}
        self._revision = 0
        self._ingest_metrics: Optional[IngestMetrics] = None
        # Set on shared-memory attach: quality snapshots already carry
        # their materialized gap_slots and the rings are flat/read-only.
        self._attached = False

    # ------------------------------------------------------------------
    # The unified write surface
    # ------------------------------------------------------------------
    def ingest(self, batch, metric=None, time=None, value=None) -> None:
        """Write a batch of telemetry — or one legacy scalar sample.

        The single entry point for all writes:

        * ``ingest(IngestBatch(...))`` — points, vectorized runs and an
          optional watermark in one call, in either mode.
        * ``ingest(component, metric, time, value)`` — the legacy
          per-sample form; tolerant stores only.
        """
        if isinstance(batch, IngestBatch):
            if metric is not None or time is not None or value is not None:
                raise TypeError("ingest(IngestBatch) takes no extra arguments")
            for run in batch.runs:
                self._ingest_run(run)
            self._ingest_samples(batch.samples)
            if batch.watermark is not None:
                self.advance_to(batch.watermark)
            return
        if self.policy is None:
            raise DataQualityError(
                "timestamped per-sample ingestion needs a "
                "DataQualityPolicy: construct MetricStore(policy=...) or "
                "ingest an IngestBatch (strict)"
            )
        self._ingest_sample(batch, metric, time, value)

    def advance_to(self, time: int) -> None:
        """Mark every tick before ``time`` as complete (monotonic)."""
        self._length = max(self._length, time - self.start)

    @property
    def revision(self) -> int:
        """Bumped whenever a past slot is rewritten (late backfill)."""
        return self._revision

    # ------------------------------------------------------------------
    # Ingest machinery
    # ------------------------------------------------------------------
    def _ring(self, key: _Key) -> _Ring:
        ring = self._series.get(key)
        if ring is None:
            cap = min(_MIN_RING_CAPACITY, self.retention)
            ring = self._series[key] = _Ring(cap, self.retention)
        return ring

    def _qual(self, key: _Key) -> SeriesQuality:
        qual = self._quality.get(key)
        if qual is None:
            qual = self._quality[key] = SeriesQuality()
        return qual

    def _ingest_run(self, run: IngestRun) -> None:
        component, metric = run.component, run.metric
        key = (component, metric)
        values = np.asarray(run.values, dtype=np.float64)
        n = len(values)
        if n == 0:
            return
        ring = self._ring(key)
        qual = self._qual(key)
        if qual.skew_offset is None:
            # Runs are produced on the master grid; no skew to learn.
            qual.skew_offset = 0
        slot = run.start - self.start - qual.skew_offset
        if slot < ring.head:
            # Overlapping run: fall back to the per-sample path, which
            # knows how to backfill and resolve duplicates.
            for i in range(n):
                self._ingest_sample(component, metric, run.start + i, values[i])
            return
        qual.seen += n
        finite = np.isfinite(values)
        bad = None
        if not finite.all():
            if self.policy is None:
                i = int(np.flatnonzero(~finite)[0])
                raise DataQualityError(
                    f"non-finite sample {values[i]!r} for "
                    f"{component}/{metric} at t={run.start + i}"
                )
            bad = np.flatnonzero(~finite)
            values = values.copy()
            values[bad] = math.nan
        if slot > ring.head:
            self._fill_gap(key, ring, qual, ring.head, slot, float(values[0]))
        write_start = ring.append_run(values, KIND_OBSERVED)
        if bad is None:
            qual.observed += n
        else:
            for i in bad:
                s = slot + int(i)
                if s >= write_start:
                    ring.set_kind(s, KIND_MISSING)
            qual.invalid += len(bad)
            qual.missing += len(bad)
            qual.observed += n - len(bad)
            self._metrics().dropped.inc(len(bad), reason="invalid")

    def _ingest_samples(self, samples: Sequence[MetricSample]) -> None:
        """Ingest timestamped samples in one fused loop.

        The common case — the next in-order, finite sample of a known
        series whose ring has room — is appended inline: both mirror
        halves, the kind byte, the head and two counters, after one
        dictionary lookup. Everything else (a series' first sample, a
        gap, a late or duplicate delivery, NaN/inf, ring growth, a
        read-only ring) takes :meth:`_ingest_sample`, the per-sample
        rule, which the inline append matches bit for bit.
        """
        if isinstance(samples, TickSamples):
            rows = zip(
                samples.components,
                samples.metrics,
                repeat(samples.time),
                samples.values,
            )
        else:
            rows = [(s.component, s.metric, s.time, s.value) for s in samples]
        appendable = self._appendable
        base = self.start
        for component, metric, time, value in rows:
            try:
                ring, qual = appendable[component, metric]
            except KeyError:
                ring = None
            if ring is None:
                self._ingest_sample(component, metric, time, value)
                self._enlist((component, metric))
                continue
            head = ring.head
            cap = ring.cap
            if (
                time - base - qual.skew_offset == head
                and value.__class__ is float
                and value - value == 0.0  # finite: NaN and inf give NaN
                and (head < cap or cap >= ring.limit)
            ):
                p = head % cap
                buffer = ring.values
                buffer[p] = value
                buffer[p + cap] = value
                ring.kinds[p] = KIND_OBSERVED
                ring.head = head + 1
                qual.seen += 1
                qual.observed += 1
            else:
                self._ingest_sample(component, metric, time, value)

    def _enlist(self, key: _Key) -> None:
        """Let a series whose skew is now learned take the inline append."""
        ring = self._series[key]
        if ring.flat_base is None:
            self._appendable[key] = (ring, self._quality[key])

    def _ingest_sample(
        self,
        component: ComponentId,
        metric: Metric,
        time: int,
        value: float,
    ) -> None:
        key = (component, metric)
        ring = self._ring(key)
        qual = self._qual(key)
        qual.seen += 1
        value = float(value)
        if not math.isfinite(value):
            if self.policy is None:
                raise DataQualityError(
                    f"non-finite sample {value!r} for {component}/{metric} "
                    f"at t={time}"
                )
            qual.invalid += 1
            self._metrics().dropped.inc(1, reason="invalid")
            value = math.nan

        # Constant clock-skew alignment: the offset of the first sample
        # from the tick being delivered (bounded by max_skew) is treated
        # as the slave's clock error and subtracted from every timestamp
        # of this series. A first sample far off that tick is a genuine
        # gap, not skew, and a series that joins late is on time for the
        # tick it joins at.
        if qual.skew_offset is None:
            offset = 0
            if self.policy is not None:
                delta = time - self.end
                if delta != 0 and abs(delta) <= DataQualityPolicy.max_skew:
                    offset = delta
                    self._metrics().skew_aligned.inc(1)
            qual.skew_offset = offset
        time -= qual.skew_offset

        slot = time - self.start
        head = ring.head
        if slot == head:
            self._append_sample(ring, qual, value)
        elif slot > head:
            self._fill_gap(key, ring, qual, head, slot, value)
            self._append_sample(ring, qual, value)
        else:
            self._backfill(key, ring, qual, slot, value)

    def _append_sample(
        self, ring: _Ring, qual: SeriesQuality, value: float
    ) -> None:
        if math.isnan(value):
            ring.append_one(value, KIND_MISSING)
            qual.missing += 1
        else:
            ring.append_one(value, KIND_OBSERVED)
            qual.observed += 1

    def _fill_gap(
        self,
        key: _Key,
        ring: _Ring,
        qual: SeriesQuality,
        head: int,
        slot: int,
        arriving: float,
    ) -> None:
        """Pad ``[head, slot)`` — repaired when short, else left missing.

        The ring retains at most ``limit`` slots, so the front of a
        longer gap would be evicted on arrival: it is skipped unwritten
        and only the retained tail is padded, keeping one far-ahead
        sample from allocating O(gap). The counters still see the whole
        gap.
        """
        gap = slot - head
        if self.policy is None and head > 0:
            raise DataQualityError(
                f"gap of {gap} tick(s) for {key[0]}/{key[1]} before "
                f"t={self.start + slot}: this store expects contiguous "
                f"per-tick delivery"
            )
        # A strict store gets here only for a series' first sample, which
        # has nothing before it to fill from.
        prev = ring.value_at(head - 1) if head > 0 else math.nan
        fillable = gap <= DataQualityPolicy.max_gap and math.isfinite(prev)
        keep = min(gap, ring.limit)
        if keep < gap:
            ring.skip_to(slot - keep)
        if fillable and math.isfinite(arriving):
            step = (arriving - prev) / (gap + 1)
            pad = prev + step * np.arange(gap - keep + 1, gap + 1, dtype=np.float64)
            ring.append_run(pad, KIND_INTERPOLATED)
            qual.filled_interpolated += gap
            self._metrics().filled.inc(gap, method="interpolate")
        elif fillable:
            # Forward fill: the sample closing the gap is itself invalid,
            # so there is nothing to interpolate toward.
            pad = np.full(keep, prev, dtype=np.float64)
            ring.append_run(pad, KIND_FORWARD)
            qual.filled_forward += gap
            self._metrics().filled.inc(gap, method="forward")
        else:
            pad = np.full(keep, math.nan, dtype=np.float64)
            ring.append_run(pad, KIND_MISSING)
            qual.missing += gap
            self._metrics().gap_ticks.inc(gap)

    def _backfill(
        self,
        key: _Key,
        ring: _Ring,
        qual: SeriesQuality,
        slot: int,
        value: float,
    ) -> None:
        """Resolve a sample older than the series head (out-of-order)."""
        if self.policy is None:
            raise DataQualityError(
                f"out-of-order sample for {key[0]}/{key[1]} at "
                f"t={self.start + slot}: this store is append-only per tick"
            )
        age = ring.head - slot
        if slot < 0 or age > DataQualityPolicy.max_skew:
            qual.late_dropped += 1
            self._metrics().dropped.inc(1, reason="late")
            return
        if slot < ring.first:
            # The slot was already evicted by ring wraparound: the ring
            # cannot accept a write into history it no longer retains.
            qual.late_dropped += 1
            self._metrics().dropped.inc(1, reason="evicted")
            return
        synthesized = ring.kind_at(slot)
        if synthesized != KIND_OBSERVED:
            if not math.isfinite(value):
                # An invalid late sample cannot repair anything.
                return
            self._rewrite(ring, slot, value)
            ring.set_kind(slot, KIND_OBSERVED)
            if synthesized == KIND_MISSING:
                qual.missing -= 1
            elif synthesized == KIND_FORWARD:
                qual.filled_forward -= 1
            else:
                qual.filled_interpolated -= 1
            qual.observed += 1
            qual.late_accepted += 1
            self._metrics().backfilled.inc(1)
            return
        # The slot already holds an observed value: a duplicate delivery,
        # and the first one wins.
        qual.duplicates += 1
        self._metrics().dropped.inc(1, reason="duplicate")

    def _rewrite(self, ring: _Ring, slot: int, value: float) -> None:
        """Write into a retained past slot, invalidating window caches."""
        ring.write_at(slot, value)
        self._revision += 1

    def _metrics(self) -> IngestMetrics:
        if self._ingest_metrics is None:
            self._ingest_metrics = IngestMetrics()
        return self._ingest_metrics

    # ------------------------------------------------------------------
    # Data-quality introspection
    # ------------------------------------------------------------------
    def series_quality(
        self, component: ComponentId, metric: Metric
    ) -> SeriesQuality:
        """Ingest counters of one series (zeros when never ingested).

        ``gap_slots`` is materialized from the ring's gap bitmap on
        demand; its keys are absolute slot indices counted from the
        store's ``start`` (evicted slots no longer appear).
        """
        key = (component, metric)
        qual = self._quality.get(key)
        if qual is None:
            return SeriesQuality()
        if self._attached:
            return qual
        ring = self._series.get(key)
        slots = ring.gap_slots() if ring is not None else {}
        if not slots and not qual.gap_slots:
            return qual
        snap = qual.snapshot()
        snap.gap_slots = slots
        return snap

    def quality_for(self, component: ComponentId) -> SeriesQuality:
        """Aggregated ingest counters across a component's metrics."""
        total = SeriesQuality()
        for (comp, _metric), qual in self._quality.items():
            if comp == component:
                total.merge(qual)
        return total

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def series_index(self) -> SeriesIndex:
        """The current :class:`SeriesIndex` (cached; read-only).

        Series are only ever added, so a cached snapshot is current
        exactly while it covers as many series as the store holds; a
        first-ever series makes the next reader build a fresh snapshot
        and swap it in with one attribute assignment.
        """
        index = self._index
        if len(index) != len(self._series):
            # list() snapshots the items: a concurrent first-ever ingest
            # of a new series must not blow up a reader mid-iteration.
            index = self._index = SeriesIndex(list(self._series.items()))
        return index

    @property
    def components(self) -> List[ComponentId]:
        """All component ids present, sorted."""
        return list(self.series_index().components)

    @property
    def length(self) -> int:
        """Number of completed ticks."""
        return self._length

    @property
    def end(self) -> int:
        """Timestamp one past the newest complete sample."""
        return self.start + self._length

    def series(self, component: ComponentId, metric: Metric) -> TimeSeries:
        """The retained series for one (component, metric).

        Returns a zero-copy view of the ring. Its ``start`` is the
        timestamp of the oldest *retained* sample — after the ring has
        wrapped, that is later than the store's ``start``. The view
        reflects only ticks completed at call time, and stays valid as
        long as its window stays retained.
        """
        key = (component, metric)
        ring = self._series.get(key)
        if ring is None:
            raise KeyError(f"no samples for {component}/{metric}")
        count = min(ring.head, self._length)
        lo = ring.first
        if count <= lo:
            return TimeSeries(ring.view(lo, lo), start=self.start + lo)
        return TimeSeries(ring.view(lo, count), start=self.start + lo)

    def window(
        self, component: ComponentId, metric: Metric, t_from: int, t_to: int
    ) -> TimeSeries:
        """Clipped sub-series covering ``[t_from, t_to)`` (zero-copy view)."""
        return self.series(component, metric).window(t_from, t_to)

    def metrics_for(self, component: ComponentId) -> List[Metric]:
        """Metrics recorded for a component, in canonical order."""
        return list(self.series_index().metrics.get(component, ()))

    def retained_start(self, component: ComponentId, metric: Metric) -> int:
        """Timestamp of the oldest retained sample of one series."""
        key = (component, metric)
        ring = self._series.get(key)
        if ring is None:
            raise KeyError(f"no samples for {component}/{metric}")
        return self.start + ring.first

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        data: Mapping[ComponentId, Mapping[Metric, Iterable[float]]],
        start: int = 0,
        policy: Optional[DataQualityPolicy] = None,
        *,
        retention: int = DEFAULT_RETENTION,
    ) -> "MetricStore":
        """Build a store from complete per-series arrays (tests, examples).

        The arrays are taken verbatim (no validation or repair) — a
        ``policy`` only makes later ``ingest`` calls tolerant.
        """
        store = cls(start=start, policy=policy, retention=retention)
        lengths = set()
        for component, metrics in data.items():
            for metric, values in metrics.items():
                arr = np.array(list(values), dtype=np.float64)
                key = (component, metric)
                store._ring(key).append_run(arr, KIND_OBSERVED)
                lengths.add(len(arr))
        if len(lengths) > 1:
            raise ValueError(f"series lengths differ: {sorted(lengths)}")
        store._length = lengths.pop() if lengths else 0
        return store


__all__ = [
    "DEFAULT_RETENTION",
    "IngestBatch",
    "IngestRun",
    "MetricStore",
    "SeriesIndex",
]
