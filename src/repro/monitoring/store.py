"""Row-matrix in-memory store for sampled metric time series.

One :class:`MetricStore` holds every (component, metric) series of one
application run at the 1-second sampling interval. FChain slaves read
look-back windows out of it; the evaluation harness replays the same
store through every localization scheme so all schemes see identical
data.

Storage is one preallocated *mirrored* matrix for the whole store: row
``r`` is one series, a float64 row of twice the store's capacity in
which every sample is written at both ``slot % cap`` and
``slot % cap + cap``. The mirror makes any retained window of at most
``cap`` samples a single contiguous zero-copy slice of its row — readers
never see the wrap seam, and :meth:`MetricStore.series` /
:meth:`MetricStore.window` hand out plain numpy views no matter where a
row's head currently is. A parallel ``uint8`` ``[rows, cap]`` gap
bitmap (one code per retained slot: observed / missing /
forward-filled / interpolated) backs :meth:`series_quality`'s
``gap_slots`` mapping, and one ``int64`` ``[rows, 4]`` array holds every
row's head, next expected timestamp and seen / observed counters.
``store._series[key]`` is a :class:`_Ring` handle onto one row.

One capacity serves every row. It doubles when any row's head needs
room (new arrays are allocated and the old ones left intact, so
previously returned views stay valid) until it reaches the store's
``retention``; past that point each row retains its newest
``retention`` samples by overwriting the oldest — steady state ingest
is allocation-free. Rows are added by doubling the same way.

There is one write surface: :meth:`MetricStore.ingest` accepts either
an :class:`IngestBatch` (per-sample points, vectorized contiguous runs,
and a watermark in one call) or the legacy per-sample
``(component, metric, time, value)`` form. A tick's points are one
gathered write: every row whose sample is the next in-order finite
float with room is written by one fancy-index assignment per mirror
half. A store has two modes: one built with a
:class:`~repro.monitoring.quality.DataQualityPolicy` is tolerant, one
built without is strict, and every defect site branches on that one
fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

#: Initial store capacity; it doubles from here up to the retention.
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

#: Columns of the ``[rows, 4]`` state array: one past the newest written
#: slot, the timestamp the next in-order sample carries (``start`` plus
#: the learned clock skew plus the head), and the ``seen`` / ``observed``
#: counters. An in-order append moves all four by one.
_HEAD, _NEXT, _SEEN, _OBSERVED = range(4)

#: ``_NEXT`` of a row whose clock skew is not learned yet: no timestamp
#: matches it, so such a row's samples take the per-sample rule.
_UNALIGNED = -(1 << 62)

#: Exceptions ``np.array`` raises on a values column some entry of
#: which is not a number.
_NOT_NUMERIC = (TypeError, ValueError, OverflowError)


def _fields_of(rows: np.ndarray) -> np.ndarray:
    """Where the state of ``rows`` lies in the flattened state array."""
    return (rows[:, None] * 4 + np.arange(4)).ravel()


class _Rows:
    """Every series of one store, a row each.

    ``values`` is the mirrored ``[rows, 2 * cap]`` float64 matrix,
    ``kinds`` the ``[rows, cap]`` gap bitmap and ``state`` the
    ``[rows, 4]`` head / next timestamp / seen / observed array; the
    first ``count`` rows are in use, and no head exceeds ``top``. One
    ``cap`` serves every row and doubles up to ``limit`` (the store's
    retention) when a head needs room, and rows are added by doubling.
    Either reallocates: fresh arrays take the used columns and the old
    ones are left untouched, so views handed out earlier stay valid.
    Row views are cached only until the next reallocation, and nothing
    here refers back to the store or to a handle, so old arrays and a
    dropped store's matrices are freed as soon as no caller holds a
    view.
    """

    __slots__ = ("values", "kinds", "state", "cap", "limit", "count", "top", "_views")

    def __init__(self, cap: int, limit: int) -> None:
        self.cap = cap
        self.limit = limit
        self.count = 0
        self.top = 0
        self.values = np.empty((0, 2 * cap), dtype=np.float64)
        self.kinds = np.zeros((0, cap), dtype=np.uint8)
        self.state = np.zeros((0, 4), dtype=np.int64)
        self._views: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []

    def __getstate__(self) -> dict:
        # A copy must view its own arrays, not copies of these views.
        return {
            name: getattr(self, name) for name in self.__slots__ if name != "_views"
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._views = [None] * len(self.state)

    def row_views(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, kinds)`` of one row: the same two view objects
        until the next reallocation."""
        views = self._views[row]
        if views is None:
            views = self._views[row] = (self.values[row], self.kinds[row])
        return views

    def add(self) -> int:
        """A fresh row (head 0, skew not learned); returns its index."""
        row = self.count
        if row == len(self.state):
            self.reshape(max(1, 2 * row), self.cap)
        self.count = row + 1
        return row

    def reserve(self, needed: int) -> None:
        """Double the capacity (up to the limit) until a head of
        ``needed`` fits."""
        cap = self.cap
        if needed <= cap or cap >= self.limit:
            return
        while cap < needed and cap < self.limit:
            cap = min(2 * cap, self.limit)
        self.reshape(len(self.state), cap)

    def reshape(self, rows: int, cap: int) -> None:
        """Move the rows into fresh arrays of ``rows`` rows, ``cap`` slots.

        The capacity only grows while no row has wrapped, so each row's
        retained region is then the plain prefix ``[0, head)``; a
        reshape at the same capacity keeps every position.
        """
        n = self.count
        values = np.empty((rows, 2 * cap), dtype=np.float64)
        kinds = np.zeros((rows, cap), dtype=np.uint8)
        state = np.zeros((rows, 4), dtype=np.int64)
        state[:, _NEXT] = _UNALIGNED
        if n:
            used = min(self.cap, int(self.state[:n, _HEAD].max()))
            values[:n, :used] = self.values[:n, :used]
            values[:n, cap : cap + used] = self.values[:n, :used]
            kinds[:n, :used] = self.kinds[:n, :used]
            state[:n] = self.state[:n]
        self.values, self.kinds, self.state, self.cap = values, kinds, state, cap
        self._views = [None] * rows

    def move_head(self, row: int, head: int) -> None:
        state = self.state[row]
        state[_NEXT] += head - state[_HEAD]
        state[_HEAD] = head
        self.top = max(self.top, head)


class _Ring:
    """One series: a handle onto its row of the store's :class:`_Rows`.

    ``values`` is the row of the mirrored value matrix, ``2 * cap``
    floats; every retained slot ``s`` is stored at both ``s % cap`` and
    ``s % cap + cap``, so the window ``[lo, hi)`` (``hi - lo <= cap``)
    is always the contiguous slice ``values[lo % cap : lo % cap +
    (hi - lo)]``. ``kinds`` is the row of the gap bitmap, ``cap`` slots,
    *not* mirrored (only point reads and the on-demand ``gap_slots``
    materialization touch it). Both are views, the same objects until
    the rows are reallocated. ``head``, ``cap`` and ``limit`` are read
    from the rows.
    """

    __slots__ = ("_rows", "row")

    def __init__(self, rows: _Rows, row: int) -> None:
        self._rows = rows
        self.row = row

    @property
    def values(self) -> np.ndarray:
        return self._rows.row_views(self.row)[0]

    @property
    def kinds(self) -> np.ndarray:
        return self._rows.row_views(self.row)[1]

    @property
    def cap(self) -> int:
        return self._rows.cap

    @property
    def limit(self) -> int:
        return self._rows.limit

    @property
    def head(self) -> int:
        """One past the newest written slot."""
        return int(self._rows.state[self.row, _HEAD])

    @property
    def first(self) -> int:
        """Oldest retained slot."""
        return max(0, self.head - self.cap)

    def view(self, lo: int, hi: int) -> np.ndarray:
        """Zero-copy view of retained slots ``[lo, hi)``."""
        p = lo % self.cap
        return self.values[p : p + (hi - lo)]

    def value_at(self, slot: int) -> float:
        return float(self.values[slot % self.cap])

    def kind_at(self, slot: int) -> int:
        return int(self.kinds[slot % self.cap])

    def set_kind(self, slot: int, kind: int) -> None:
        self.kinds[slot % self.cap] = kind

    def write_at(self, slot: int, value: float) -> None:
        """Rewrite one retained slot in place (backfill repair)."""
        cap = self.cap
        p = slot % cap
        values = self.values
        values[p] = value
        values[p + cap] = value

    def append_one(self, value: float, kind: int) -> None:
        """Append a single sample at the head."""
        s = self.head
        self._rows.reserve(s + 1)
        self.write_at(s, value)
        self.set_kind(s, kind)
        self._rows.move_head(self.row, s + 1)

    def skip_to(self, head: int) -> None:
        """Move the head forward to ``head`` without writing the slots
        passed over.

        For a caller that appends ``limit`` slots right after, which
        evicts everything retained: the rows are first grown to their
        limit (the only moment they can still copy plain prefixes), so
        the jump never has to move or clear retained data.
        """
        self._rows.reserve(self.limit)
        self._rows.move_head(self.row, head)

    def append_run(self, values: np.ndarray, kind: int) -> int:
        """Append a contiguous run at the head; returns the first slot
        actually written.

        If the run is longer than the capacity, only its newest ``cap``
        samples are stored — the earlier ones are evicted on arrival.
        """
        n = len(values)
        s = self.head
        self._rows.reserve(s + n)
        cap = self.cap
        buffer, kinds = self.values, self.kinds
        new_head = s + n
        write_start = max(s, new_head - cap)
        run = values[write_start - s :]
        p = write_start % cap
        m = len(run)
        fit = min(m, cap - p)
        buffer[p : p + fit] = run[:fit]
        buffer[cap + p : cap + p + fit] = run[:fit]
        kinds[p : p + fit] = kind
        if fit < m:
            rest = m - fit
            buffer[:rest] = run[fit:]
            buffer[cap : cap + rest] = run[fit:]
            kinds[:rest] = kind
        self._rows.move_head(self.row, new_head)
        return write_start

    def gap_slots(self) -> Dict[int, str]:
        """Materialize the historical slot -> kind-name mapping."""
        head = self.head
        kinds = self.kinds
        if head == 0:
            return {}
        cap = self.cap
        if head <= cap:
            marked = np.flatnonzero(kinds[:head])
            return {int(p): _KIND_NAMES[int(kinds[p])] for p in marked}
        first = self.first
        out = {}
        for p in np.flatnonzero(kinds):
            p = int(p)
            slot = first + ((p - first) % cap)
            out[slot] = _KIND_NAMES[int(kinds[p])]
        return out


class SeriesIndex:
    """Immutable snapshot of which series a store holds, in creation order.

    Readers that walk every series on every tick (the slave's warm sync)
    take this instead of rescanning the key set: ``keys[i]`` and
    ``rings[i]`` describe one series, the store's row ``i``;
    ``components`` is the sorted component list and
    ``metrics[component]`` its metrics in canonical order. The snapshot
    itself never changes — a store that gains a series builds a new one
    — so ``index is previous`` tells a reader whether anything it
    derived from the last snapshot is still valid.

    The per-tick accessors read the store's live arrays: the heads are
    one slice, a slot across rows is one gather (:meth:`column`), and a
    run of slots across rows one 2-D gather (:meth:`block`), each from
    the flattened matrix.
    """

    __slots__ = ("keys", "rings", "components", "metrics", "_rows")

    def __init__(
        self, entries: Sequence[Tuple[_Key, _Ring]], rows: _Rows
    ) -> None:
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
        self._rows = rows

    def __len__(self) -> int:
        return len(self.keys)

    def heads(self) -> np.ndarray:
        """One past the newest written slot of every series."""
        return self._rows.state[: len(self.keys), _HEAD].copy()

    @property
    def cap(self) -> int:
        """The store's capacity, shared by every row."""
        return self._rows.cap

    def column(
        self, slot: int, positions: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The value every series (or those at ``positions``) holds at
        one slot. The slot must be written and still retained in each
        addressed row."""
        values = self._rows.values
        width = values.shape[1]
        p = slot % (width // 2)
        if positions is None:
            return values[: len(self.keys), p].copy()
        return values.reshape(-1)[positions * width + p]

    def block(self, positions: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """``[len(positions), hi - lo]``: slots ``[lo, hi)`` of the series
        at ``positions`` (ascending), which must all retain them. Copies
        just the block, never whole rows:
        one slice when the positions are consecutive, else one gather
        from the flattened matrix."""
        values = self._rows.values
        width = values.shape[1]
        p = lo % (width // 2)
        first = int(positions[0])
        if int(positions[-1]) - first + 1 == len(positions):
            return values[first : first + len(positions), p : p + (hi - lo)].copy()
        starts = positions * width + p
        return values.reshape(-1)[starts[:, None] + np.arange(hi - lo)]


@dataclass(frozen=True)
class IngestRun:
    """A contiguous run of samples for one series.

    ``values[i]`` is the sample at absolute time ``start + i``. Runs are
    the vectorized fast path: one slice assignment per mirror half
    instead of a Python-level loop per sample.
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
            :class:`~repro.common.types.TickSamples` columns). Points
            sharing one time are written as one tick: the next in-order
            sample of a known series is appended in one gathered write,
            and every other point goes through the full per-sample
            machinery (validation, gap fill, skew alignment, backfill,
            duplicates).
        runs: Contiguous per-series :class:`IngestRun` blocks, applied
            through the vectorized append path.
        watermark: When set, ``advance_to(watermark)`` after the writes
            — every tick before it is marked complete. A tolerant store
            drops a point stamped more than ``max_skew`` ticks past the
            batch's newest tick (``watermark - 1``).
    """

    samples: Sequence[MetricSample] = ()
    runs: Sequence[IngestRun] = ()
    watermark: Optional[int] = None


class MetricStore:
    """Row-matrix storage of per-component metric samples.

    All writes go through :meth:`ingest`. A store constructed with a
    :class:`~repro.monitoring.quality.DataQualityPolicy` is tolerant
    (bounded gap fill, clock-skew alignment, late backfill, first
    delivery wins, far-future stamps dropped, per-series
    :class:`~repro.monitoring.quality.SeriesQuality` counters); a store
    constructed without one is strict: NaN, a gap, an out-of-order or
    duplicate sample all raise.

    Every series is one row of the store's mirrored value matrix (see
    the module docstring); ``store._series[key]`` is its :class:`_Ring`
    handle. Retention: each row keeps at most ``retention`` samples;
    once the store's capacity has reached it, a row's oldest slot is
    overwritten by its newest. Reads clip to the retained range —
    :meth:`series` returns a view whose ``start`` reflects any evicted
    prefix. Views stay valid while their window stays retained; a view
    still holding the oldest retained slots observes the overwrite once
    the row wraps past them.

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
        self._rows = _Rows(min(_MIN_RING_CAPACITY, self.retention), self.retention)
        self._series: Dict[_Key, _Ring] = {}
        self._index = SeriesIndex((), self._rows)
        # (components, metrics, (fields, rows, offsets), cap) of the last
        # tick layout.
        self._layout: Optional[tuple] = None
        self._length = 0
        # Per-series counters; a row's seen / observed counts live in
        # the rows' state and add to the record's own.
        self._quality: Dict[_Key, SeriesQuality] = {}
        self._revision = 0
        self._ingest_metrics: Optional[IngestMetrics] = None

    def __getstate__(self) -> dict:
        # The registry counters hold locks; a copy makes its own on
        # first use.
        state = self.__dict__.copy()
        state["_ingest_metrics"] = None
        return state

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
            self._ingest_samples(batch.samples, batch.watermark)
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
        """The row handle of one series, added on first sight."""
        ring = self._series.get(key)
        if ring is None:
            ring = self._series[key] = _Ring(self._rows, self._rows.add())
            qual = self._quality.get(key)
            if qual is not None and qual.skew_offset is not None:
                self._learn_skew(ring, qual, qual.skew_offset)
        return ring

    def _learn_skew(self, ring: _Ring, qual: SeriesQuality, offset: int) -> None:
        qual.skew_offset = offset
        state = self._rows.state[ring.row]
        state[_NEXT] = self.start + offset + state[_HEAD]

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
            self._learn_skew(ring, qual, 0)
        slot = run.start - self.start - qual.skew_offset
        if slot < ring.head:
            # Overlapping run: fall back to the per-sample path, which
            # knows how to backfill and resolve duplicates.
            for i in range(n):
                self._ingest_sample(component, metric, run.start + i, values[i])
            return
        self._rows.state[ring.row, _SEEN] += n
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
            self._rows.state[ring.row, _OBSERVED] += n
        else:
            for i in bad:
                s = slot + int(i)
                if s >= write_start:
                    ring.set_kind(s, KIND_MISSING)
            qual.invalid += len(bad)
            qual.missing += len(bad)
            self._rows.state[ring.row, _OBSERVED] += n - len(bad)
            self._metrics().dropped.inc(len(bad), reason="invalid")

    def _ingest_samples(
        self, samples: Sequence[MetricSample], watermark: Optional[int]
    ) -> None:
        """Ingest timestamped samples; those sharing one time as a tick.

        The tick's series layout is resolved to rows once per distinct
        layout (:meth:`_layout_rows`). Every row whose sample is the next
        in-order finite float with room is then written in one gathered
        write (:meth:`_append_rows`). Everything else — a series' first
        sample, a gap, a late, duplicate or far-future delivery, NaN/inf,
        growth — takes :meth:`_ingest_sample`, the per-sample rule, in
        arrival order; so does every sample of a batch that spans
        several times, names a new series or one series twice, or
        carries a value that is not a float. The gathered write matches
        the per-sample rule bit for bit. Each sample touches only its own
        row, so writing the in-order rows first is the arrival order,
        except that a strict store stops at its first defect: there only
        the rows before it are written together.
        """
        tick = TickSamples.of(samples)
        if tick is None:
            for s in samples:
                self._ingest_sample(
                    s.component, s.metric, s.time, s.value, watermark
                )
            return
        n = len(tick.values)
        if n == 0:
            return
        time = tick.time
        layout = self._layout_rows(tick.components, tick.metrics)
        try:
            values = np.array(tick.values)
        except _NOT_NUMERIC:
            values = None
        if (
            layout is None
            or values is None
            or values.dtype.char != "d"
            or values.ndim != 1
            or self._beyond_horizon(time, watermark)
        ):
            self._ingest_columns(tick, 0, watermark)
            return
        fields, rows, offsets = layout
        matrices = self._rows
        state = matrices.state.reshape(-1)[fields].reshape(-1, 4)
        heads = state[:, _HEAD]
        fast = state[:, _NEXT] == time
        fast &= np.isfinite(values)
        if matrices.top >= matrices.cap and matrices.cap < self.retention:
            fast &= heads < matrices.cap
        if np.count_nonzero(fast) == n:
            self._append_rows(fields, offsets, heads, values)
            return
        if self.policy is None:
            first = int(np.argmin(fast))
            before = slice(first)
            self._append_rows(
                _fields_of(rows[before]),
                offsets[before],
                heads[before],
                values[before],
            )
            self._ingest_columns(tick, first, watermark)
            return
        self._append_rows(
            _fields_of(rows[fast]), offsets[fast], heads[fast], values[fast]
        )
        components, metrics, raw = tick.components, tick.metrics, tick.values
        for i in np.flatnonzero(~fast).tolist():
            self._ingest_sample(
                components[i], metrics[i], time, raw[i], watermark
            )

    def _layout_rows(
        self, components: List[ComponentId], metrics: List[Metric]
    ) -> Optional[Tuple[object, np.ndarray, np.ndarray]]:
        """``(fields, rows, offsets)`` of one tick's series layout.

        ``rows[i]`` is the row of sample ``i``'s series and
        ``offsets[i]`` where that row starts in the flattened value
        matrix; ``fields`` addresses those rows' state in the flattened
        state array, as a slice when the rows are consecutive — the
        common case of a feed in creation order, which reads the state
        as a view instead of a gather. None when the layout names a
        series not seen yet or one series twice.

        A layout is kept and matched against the next tick's columns by
        list equality, so a steady feed never hashes a
        ``(component, Metric)`` key.
        """
        layout = self._layout
        cap = self._rows.cap
        if layout is not None and components == layout[0] and metrics == layout[1]:
            fields, rows, offsets = layout[2]
            if layout[3] != cap:
                offsets = rows * (2 * cap)
                self._layout = (layout[0], layout[1], (fields, rows, offsets), cap)
            return fields, rows, offsets
        keys = list(zip(components, metrics))
        series = self._series
        new = len(set(keys) - series.keys())
        if new:
            # The per-sample rule adds the rows; make room in one go.
            matrices = self._rows
            if matrices.count + new > len(matrices.state):
                matrices.reshape(matrices.count + new, cap)
            return None
        if len(set(keys)) != len(keys):
            return None
        rows = np.array([series[key].row for key in keys], dtype=np.int64)
        first = int(rows[0])
        fields = slice(4 * first, 4 * (first + len(rows)))
        if not (rows == np.arange(first, first + len(rows))).all():
            fields = _fields_of(rows)
        resolved = (fields, rows, rows * (2 * cap))
        self._layout = (components[:], metrics[:], resolved, cap)
        return resolved

    def _append_rows(
        self, fields, offsets: np.ndarray, heads: np.ndarray, values: np.ndarray
    ) -> None:
        """Append ``values[i]`` at the head of the row that starts at
        ``offsets[i]`` of the flattened value matrix (distinct rows, each
        with room and a learned skew, whose state ``fields`` addresses in
        the flattened state array).

        Every write goes through a flattened array: numpy releases the
        GIL for a fancy index into a 2-D array, and under threads the
        writer then waits out another thread's switch interval.
        """
        matrices = self._rows
        cap = matrices.cap
        wraps = cap >= self.retention
        slots = heads % cap if wraps else heads
        at = offsets + slots
        flat = matrices.values.reshape(-1)
        flat[at] = values
        flat[at + cap] = values
        if wraps:
            # Below the retention every slot past a head still holds
            # KIND_OBSERVED; a wrapped slot holds the evicted one's code.
            matrices.kinds.reshape(-1)[offsets // 2 + slots] = KIND_OBSERVED
        matrices.state.reshape(-1)[fields] += 1
        # Each written head moved up by one.
        matrices.top += 1

    def _ingest_columns(
        self, tick: TickSamples, start: int, watermark: Optional[int]
    ) -> None:
        """The per-sample rule for ``tick``'s samples from ``start`` on."""
        time = tick.time
        for component, metric, value in zip(
            tick.components[start:], tick.metrics[start:], tick.values[start:]
        ):
            self._ingest_sample(component, metric, time, value, watermark)

    def _beyond_horizon(self, time: int, watermark: Optional[int]) -> bool:
        """Whether a tolerant store drops a sample stamped ``time`` in a
        batch closed by ``watermark``: more than ``max_skew`` ticks past
        the batch's newest tick is a broken clock, not skew or a gap."""
        return (
            watermark is not None
            and self.policy is not None
            and time >= watermark + DataQualityPolicy.max_skew
        )

    def _ingest_sample(
        self,
        component: ComponentId,
        metric: Metric,
        time: int,
        value: float,
        watermark: Optional[int] = None,
    ) -> None:
        key = (component, metric)
        ring = self._ring(key)
        qual = self._qual(key)
        self._rows.state[ring.row, _SEEN] += 1
        if self._beyond_horizon(time, watermark):
            qual.invalid += 1
            self._metrics().dropped.inc(1, reason="future")
            return
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
            self._learn_skew(ring, qual, offset)
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
            self._rows.state[ring.row, _OBSERVED] += 1

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

        A row retains at most ``limit`` slots, so the front of a longer
        gap would be evicted on arrival: it is skipped unwritten and
        only the retained tail is padded, keeping one far-ahead sample
        from allocating O(gap). The counters still see the whole gap.
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
            # The slot was already evicted by wraparound: the row cannot
            # accept a write into history it no longer retains.
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
            self._rows.state[ring.row, _OBSERVED] += 1
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
    def _counters(self, key: _Key, qual: SeriesQuality) -> SeriesQuality:
        """A detached copy of one series' counters, its row's seen /
        observed counts included."""
        snap = qual.snapshot()
        ring = self._series.get(key)
        if ring is not None:
            state = self._rows.state[ring.row]
            snap.seen += int(state[_SEEN])
            snap.observed += int(state[_OBSERVED])
        return snap

    def series_quality(
        self, component: ComponentId, metric: Metric
    ) -> SeriesQuality:
        """Ingest counters of one series (zeros when never ingested).

        ``gap_slots`` is materialized from the row's gap bitmap on
        demand; its keys are absolute slot indices counted from the
        store's ``start`` (evicted slots no longer appear).
        """
        key = (component, metric)
        qual = self._quality.get(key)
        if qual is None:
            return SeriesQuality()
        snap = self._counters(key, qual)
        ring = self._series.get(key)
        if ring is not None:
            snap.gap_slots = ring.gap_slots()
        return snap

    def quality_for(self, component: ComponentId) -> SeriesQuality:
        """Aggregated ingest counters across a component's metrics."""
        total = SeriesQuality()
        for key, qual in self._quality.items():
            if key[0] == component:
                total.merge(self._counters(key, qual))
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
            index = self._index = SeriesIndex(
                list(self._series.items()), self._rows
            )
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

        Returns a zero-copy view of the series' row. Its ``start`` is
        the timestamp of the oldest *retained* sample — after the row
        has wrapped, that is later than the store's ``start``. The view
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
