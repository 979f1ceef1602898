"""The FChain system facade: slaves, master, and a one-call API.

Mirrors the paper's architecture (Fig. 1): slave modules (normal
fluctuation modeling + abnormal change point selection) conceptually run in
Domain-0 of every cloud node; the master module (integrated fault
diagnosis + online pinpointing validation) runs on a dedicated server and
is invoked when a performance anomaly is detected. In this reproduction
the slaves analyse a shared :class:`~repro.monitoring.store.MetricStore`,
and "contacting the slaves" is a method call — the algorithms and the data
they see are identical to the distributed deployment.

The slave is a *long-lived, stateful* object, exactly as in the paper:
``observe_many()`` / ``sync_with_store()`` keep the
per-(component, metric) Markov models and their rolling prediction-error
streams warm at 1 Hz, so ``analyze()`` at violation time only runs
change-point selection on the look-back window instead of replaying the
full metric history through fresh models. The models are rows of one
:class:`~repro.core.prediction.ModelBank` per slave: a warm slave one
tick behind its store advances every row at once along the bank's
series axis, a slave catching up on history advances row by row along
the time axis, and the two leave bit-identical state. Expensive
per-window CUSUM/bootstrap intermediates are cached keyed by
``(component, metric, window)`` — the store is append-only, so a
window's samples never change and the cache is exact.
A master that has seen nothing yet replays the recorded history into
fresh models on its first diagnosis, so constructing a new
``FChainMaster`` per diagnosis *is* the original replay engine; its
results are bit-identical to the warm engine's (asserted by
``tests/core/test_incremental_engine.py``).
"""

from __future__ import annotations

import copy
import time
import weakref
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.common.errors import DiagnosisError
from repro.common.timeseries import TimeSeries
from repro.common.types import ComponentId, Metric
from repro.core.config import FChainConfig
from repro.core.diagnosis import Diagnosis
from repro.core.pinpoint import PinpointResult, pinpoint_faulty_components
from repro.core.prediction import MarkovPredictor, ModelBank
from repro.core.propagation import ComponentReport
from repro.core.selection import (
    detect_window_change_points,
    history_error_references,
    select_abnormal_changes,
    selection_screened,
    smooth_window,
)
from repro.core.topology import (
    OnlineTopology,
    neighborhood_complete,
    rank_candidates,
)
from repro.core.validation import (
    ValidationOutcome,
    apply_validation,
    validate_pinpointing,
)
from repro.monitoring.quality import DataQualityPolicy, DataQualityReport
from repro.monitoring.store import MetricStore, SeriesIndex
from repro.obs.trace import (
    STAGE_COMPONENT,
    STAGE_DIAGNOSIS,
    STAGE_METRIC,
    STAGE_PINPOINT,
    STAGE_STORE_SYNC,
    STAGE_VALIDATION,
    make_tracer,
)

_Key = Tuple[ComponentId, Metric]

#: Entries kept per slave-side window cache (LRU eviction).
_CACHE_LIMIT = 512

#: Fewest owed ticks a group of series syncs as one block along the time
#: axis. Below it the per-tick series axis is cheaper, because a block
#: pays a fixed kernel cost: on a 2-core host a one-tick block costs
#: 1.6x a per-tick sync at 600 series and 3.4x at 12. At 8 ticks the two
#: are level at 600 series (1.08x) and the block wins at 12 (0.74x).
_BLOCK_MIN_TICKS = 8

#: Initial width of the prediction-error matrix, in slots.
_MIN_BUFFER_CAPACITY = 256


class _ErrorStreams:
    """Append-only signed prediction-error streams: row ``r`` of one
    ``[rows, T]`` float64 matrix is bank row ``r``'s stream.

    ``lengths[row]`` counts a row's errors — which is also how many
    store slots its series has consumed, so the lengths double as the
    sync cursors. A tick of every row is one scatter into a column and
    a block one 2-D scatter, both into the flattened matrix (numpy
    releases the GIL for a fancy index into a 2-D array, and a threaded
    caller then waits out another thread's switch interval). The
    matrix grows by doubling its width (or its rows) into a fresh
    array; reads are zero-copy row-prefix views, and because entries
    are append-only and a grown matrix leaves the old one untouched, a
    view taken for one diagnosis window stays valid while streaming
    continues.
    """

    __slots__ = ("_data", "lengths", "rows")

    def __init__(self) -> None:
        self._data = np.empty((0, _MIN_BUFFER_CAPACITY))
        self.lengths = np.zeros(0, dtype=np.int64)
        self.rows = 0

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` streams in one reallocation."""
        if rows > len(self.lengths):
            self._reshape(rows, self._data.shape[1])

    def add_row(self) -> None:
        """Append an empty stream for the next bank row."""
        if self.rows == len(self.lengths):
            self.reserve(max(1, 2 * self.rows))
        self.rows += 1

    def _reshape(self, rows: int, width: int) -> None:
        n = self.rows
        data = np.empty((rows, width))
        lengths = np.zeros(rows, dtype=np.int64)
        if n:
            used = int(self.lengths[:n].max())
            data[:n, :used] = self._data[:n, :used]
            lengths[:n] = self.lengths[:n]
        self._data, self.lengths = data, lengths

    def _widen(self, stop: int) -> None:
        """Widen the matrix until a stream of ``stop`` errors fits."""
        width = self._data.shape[1]
        if stop > width:
            while width < stop:
                width *= 2
            self._reshape(len(self.lengths), width)

    def extend(self, row: int, errors: np.ndarray) -> None:
        """Append a chunk of one row's errors with one vectorized copy."""
        start = int(self.lengths[row])
        stop = start + len(errors)
        self._widen(stop)
        self._data[row, start:stop] = errors
        self.lengths[row] = stop

    def append_block(
        self, rows: np.ndarray, start: int, errors: np.ndarray
    ) -> None:
        """Append ``errors[i]`` to row ``rows[i]``, each ``start`` long."""
        stop = start + errors.shape[1]
        self._widen(stop)
        width = self._data.shape[1]
        at = (rows * width + start)[:, None] + np.arange(errors.shape[1])
        self._data.reshape(-1)[at] = errors
        self.lengths[rows] = stop

    def append_tick(
        self, rows: np.ndarray, slot: int, errors: np.ndarray
    ) -> None:
        """Append one error to each of ``rows``, all ``slot`` long."""
        self._widen(slot + 1)
        self._data.reshape(-1)[rows * self._data.shape[1] + slot] = errors
        self.lengths[rows] = slot + 1

    def view(self, row: int, count: Optional[int] = None) -> np.ndarray:
        """The first ``count`` errors of a row (all when None), no copy."""
        return self._data[row, : self.lengths[row] if count is None else count]


class FChainSlave:
    """Slave-side analysis for the components of one node.

    The slave owns the *normal fluctuation modeling* (online Markov
    predictors, fed continuously at 1 Hz via :meth:`observe_many` /
    :meth:`sync_with_store`) and the *abnormal change point selection*
    that the master triggers with a look-back window after an SLO
    violation.

    State is persistent across diagnoses: models, signed
    prediction-error streams and per-window CUSUM caches stay warm, so
    repeated ``analyze()`` calls cost O(look-back window), not O(recorded
    history). Every model lives in one
    :class:`~repro.core.prediction.ModelBank`; ``(component, metric)``
    maps to a bank row, and the row's error buffer length is its cursor
    into the store. When ``analyze`` is handed a store the slave has not
    fully consumed, the missing samples are streamed in first — the
    slave and the batch replay therefore always see identical model
    state (``prediction_errors`` parity is covered by
    ``tests/core/test_streaming_slave.py``).
    """

    def __init__(self, config: Optional[FChainConfig] = None, seed: object = 0):
        self.config = (config or FChainConfig()).validate()
        self.seed = seed
        self.tracer = make_tracer(self.config.telemetry)
        self._store_ref: Optional[weakref.ref] = None
        self._cusum_cache: "OrderedDict" = OrderedDict()
        self._selection_cache: "OrderedDict" = OrderedDict()
        self.reset()

    # ------------------------------------------------------------------
    # Continuous modeling (streaming interface)
    # ------------------------------------------------------------------
    def _row(self, key: _Key) -> int:
        """The bank row of one series, added on first sight."""
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = self._bank.add_row()
            self._streams.add_row()
        return row

    def observe_many(
        self,
        component: ComponentId,
        metric: Metric,
        values: Iterable[float],
    ) -> None:
        """Feed a batch of consecutive 1 Hz samples for one metric.

        Bit-identical to feeding the samples one call at a time, but the
        whole chunk goes through one vectorized
        :meth:`~repro.core.prediction.ModelBank.update_many` call —
        O(1) numpy calls per chunk instead of O(samples) Python calls.

        NaN entries mark missing ticks (unfillable telemetry gaps): they
        produce NaN prediction errors, update no model state, and sever
        the Markov transition chain across the gap (see
        :meth:`~repro.core.prediction.MarkovPredictor.update_many_gapped`).
        An all-finite chunk takes the strict vectorized path unchanged.
        """
        if isinstance(values, np.ndarray):
            chunk = values
        else:
            chunk = np.asarray(
                values if isinstance(values, (list, tuple)) else list(values),
                dtype=float,
            )
        self._observe_row(self._row((component, metric)), chunk)

    def _observe_row(self, row: int, chunk: np.ndarray) -> None:
        """Advance one row along the time axis."""
        self._streams.extend(row, self._bank.update_many_gapped(row, chunk))

    def model_for(
        self, component: ComponentId, metric: Metric
    ) -> Optional[MarkovPredictor]:
        """The online model of one metric, if any samples were observed
        (a handle onto the slave's bank, not a copy)."""
        row = self._rows.get((component, metric))
        return None if row is None else MarkovPredictor.on(self._bank, row)

    def errors_for(
        self, component: ComponentId, metric: Metric
    ) -> Optional[np.ndarray]:
        """The signed prediction errors of one metric so far, one per
        consumed sample (a zero-copy view), if any were observed."""
        row = self._rows.get((component, metric))
        return None if row is None else self._streams.view(row)

    # ------------------------------------------------------------------
    # Store synchronization
    # ------------------------------------------------------------------
    def bind_store(self, store: MetricStore) -> None:
        """Associate the slave's streams with one metric store.

        The slave's cursors count samples of *one* 1 Hz stream. Re-binding
        to a different (or garbage-collected) store resets all state —
        stale models must never leak into another run's diagnosis. A
        slave that was fed purely via :meth:`observe_many` binds without a
        reset: by contract the observed stream is the one the store
        records.
        """
        if self._store_ref is not None:
            if self._store_ref() is store:
                return
            self.reset()
        self._store_ref = weakref.ref(store)

    def reset(self) -> None:
        """Drop all models, error streams, cursors and window caches."""
        self._bank = ModelBank(
            bins=self.config.markov_bins,
            halflife=self.config.markov_halflife,
        )
        self._rows: Dict[_Key, int] = {}
        self._streams = _ErrorStreams()
        self._index: Optional[SeriesIndex] = None
        self._index_rows = np.empty(0, dtype=np.int64)
        self._cusum_cache.clear()
        self._selection_cache.clear()
        self._store_ref = None

    def warm_state(self) -> Tuple[ModelBank, Dict[_Key, int], _ErrorStreams]:
        """Copies of everything the slave has learned: the model bank,
        its ``(component, metric)`` -> row map and the error streams."""
        return copy.deepcopy((self._bank, self._rows, self._streams))

    def adopt(
        self,
        store: MetricStore,
        warm: Tuple[ModelBank, Dict[_Key, int], _ErrorStreams],
    ) -> None:
        """Make ``warm`` (a :meth:`warm_state`) this slave's state, bound
        to ``store`` — the store those models consumed. The slave then
        carries on exactly where the one that learned them stood: its
        next sync consumes what they had not."""
        self.reset()
        self._store_ref = weakref.ref(store)
        self._bank, self._rows, self._streams = warm

    def sync_with_store(self, store: MetricStore, upto: int) -> None:
        """Stream every store sample before ``upto`` into the models.

        Incremental: only samples past each series' cursor are consumed,
        so the first call costs O(history) and subsequent calls cost
        O(new samples) — the amortization that keeps repeated diagnoses
        fast on long histories.

        Which way the bank is advanced follows from how far behind the
        series are. Series that share a cursor and still retain every
        slot they owe advance as a group: a group owing at least
        :data:`_BLOCK_MIN_TICKS` ticks gathers its block once and
        advances it along the time axis for all its rows together; a
        group owing fewer — a warm slave one tick (or a diagnosis' few
        ticks) behind a live store — advances tick by tick along the
        series axis. Everything else replays series by series
        (:meth:`_sync_series`). All three leave the same state.
        """
        self.bind_store(store)
        needed = min(upto, store.end) - store.start
        if needed <= 0:
            return
        index = store.series_index()
        if index is not self._index:
            new = sum(1 for key in index.keys if key not in self._rows)
            self._bank.reserve(self._bank.size + new)
            self._streams.reserve(self._bank.size + new)
            self._index_rows = np.array(
                [self._row(key) for key in index.keys], dtype=np.int64
            )
            self._index = index
        heads = index.heads()
        cursors = self._streams.lengths[self._index_rows]
        alone = np.minimum(heads, needed) > cursors
        if not alone.any():
            return
        # Groups owe whole ticks (their row holds slot ``needed - 1``)
        # of which none was evicted yet.
        together = alone & (heads >= needed) & (heads - index.cap <= cursors)
        alone &= ~together
        pending = np.flatnonzero(together)
        while len(pending):
            cursor = int(cursors[pending[0]])
            same = cursors[pending] == cursor
            group, pending = pending[same], pending[~same]
            if needed - cursor >= _BLOCK_MIN_TICKS:
                self._advance_block(index, group, cursor, needed)
            else:
                self._advance_ticks(index, group, cursor, needed)
        for position in np.flatnonzero(alone):
            component, metric = index.keys[position]
            self._sync_series(store, component, metric, needed)

    def _advance_block(
        self,
        index: SeriesIndex,
        positions: np.ndarray,
        cursor: int,
        needed: int,
    ) -> None:
        """Advance the series at ``positions`` of the index from slot
        ``cursor`` to ``needed`` in one block along the time axis."""
        rows = self._index_rows[positions]
        errors = self._bank.advance_block(
            rows, index.block(positions, cursor, needed)
        )
        self._streams.append_block(rows, cursor, errors)

    def _advance_ticks(
        self,
        index: SeriesIndex,
        positions: np.ndarray,
        cursor: int,
        needed: int,
    ) -> None:
        """Advance the series at ``positions`` of the index from slot
        ``cursor`` to ``needed``, one tick at a time along the series
        axis."""
        if len(positions) == len(index):
            rows, positions = self._index_rows, None
        else:
            rows = self._index_rows[positions]
        for slot in range(cursor, needed):
            errors = self._bank.advance_tick(
                rows, index.column(slot, positions)
            )
            self._streams.append_tick(rows, slot, errors)

    def _sync_series(
        self,
        store: MetricStore,
        component: ComponentId,
        metric: Metric,
        needed: int,
    ) -> int:
        """Stream store slots ``[cursor, needed)`` of one series into the
        models along the time axis; returns how many slots were consumed.

        The stream index must always equal the absolute store slot —
        that is what lets :meth:`analyze` slice error windows by slot
        even after the row wrapped. Slots the store evicted before this
        slave consumed them are therefore fed as NaN: the fluctuation
        model treats them like any other gap (severing the Markov
        chain), and the cursor keeps counting in store slots.
        """
        row = self._row((component, metric))
        have = int(self._streams.lengths[row])
        if have >= needed:
            return 0
        series = store.series(component, metric)
        base = series.start - store.start
        stop = min(needed, base + len(series))
        if have >= stop:
            return 0
        synced = 0
        pad = min(base, stop) - have
        if pad > 0:
            self._observe_row(row, np.full(pad, np.nan))
            have += pad
            synced += pad
        if have < stop:
            self._observe_row(row, series.values[have - base : stop - base])
            synced += stop - have
        return synced

    # ------------------------------------------------------------------
    # On-demand abnormal change point selection
    # ------------------------------------------------------------------
    def analyze(
        self, store: MetricStore, component: ComponentId, violation_time: int
    ) -> ComponentReport:
        """Examine one component's look-back window before a violation.

        Args:
            store: Metric samples (only data up to ``violation_time`` plus
                the configured grace is used — the diagnosis is online).
            component: The component to examine.
            violation_time: ``t_v``, the SLO violation tick.

        Returns:
            The component report with any selected abnormal changes. The
            report is marked ``skipped`` when no metric had enough
            recorded history to analyse, or when every metric with
            history fell below the data-quality coverage floor; the
            report's ``quality`` carries the per-component
            :class:`~repro.monitoring.quality.DataQualityReport`.
        """
        config = self.config
        window_start = violation_time - config.look_back_window
        window_end = violation_time + config.analysis_grace + 1
        self.bind_store(store)
        revision = getattr(store, "revision", 0)
        tracer = self.tracer
        with tracer.span(STAGE_COMPONENT, component=component) as comp_span:
            # Catch the online models up with the store first — identical
            # to replaying the history through fresh models, but paid only
            # once per sample across all diagnoses. Model state is
            # per-(component, metric), so syncing every metric before any
            # selection is equivalent to the interleaved order.
            windows = []
            metrics_total = 0
            metrics_inconclusive = 0
            expected_total = observed_total = 0
            filled_total = missing_total = 0
            with comp_span.child(STAGE_STORE_SYNC) as sync_span:
                for metric in store.metrics_for(component):
                    full = store.series(component, metric).window(
                        store.start, window_end
                    )
                    if len(full) < 2 * config.min_segment:
                        continue
                    metrics_total += 1
                    base = full.start - store.start
                    synced = self._sync_series(
                        store, component, metric, base + len(full)
                    )
                    if synced:
                        sync_span.count("samples_synced", synced)
                    finite = np.isfinite(full.values)
                    raw_lo = max(window_start, full.start)
                    expected = max(0, min(window_end, store.end) - raw_lo)
                    span_lo = raw_lo - full.start
                    # Slots the ingest policy synthesized are finite in
                    # the array but are *not* observations: they must not
                    # count toward the coverage floor, or heavy loss
                    # hidden by an eager fill policy would escape gating.
                    synth = 0
                    if getattr(store, "policy", None) is not None:
                        slots = store.series_quality(
                            component, metric
                        ).gap_slots
                        if slots:
                            # Slot keys are absolute (from store.start);
                            # shift into the series' local index space,
                            # which starts later once the row wrapped.
                            synth = sum(
                                1
                                for s, kind in slots.items()
                                if span_lo <= s - base < len(full)
                                and kind != "missing"
                            )
                    observed = int(finite[span_lo:].sum()) - synth
                    expected_total += expected
                    observed_total += observed
                    filled_total += synth
                    if (
                        synth == 0
                        and finite.all()
                        and len(full) - span_lo >= expected
                    ):
                        # Clean series: the strict, bit-identical path.
                        windows.append((metric, full))
                        continue
                    analysis, n_filled, analyzable = self._degraded_series(
                        full, finite, span_lo, expected, observed
                    )
                    filled_total += n_filled
                    missing_total += max(
                        0, expected - observed - n_filled - synth
                    )
                    if analyzable:
                        windows.append((metric, analysis))
                    else:
                        metrics_inconclusive += 1
            changes = []
            screened = 0
            for metric, full in windows:
                with comp_span.child(
                    STAGE_METRIC, metric=metric.value
                ) as metric_span:
                    offset = full.start - store.start
                    errors = self._streams.view(
                        self._rows[(component, metric)], offset + len(full)
                    )[offset:]
                    raw = full.window(window_start, window_end)
                    history = full.window(full.start, raw.start)
                    split = raw.start - full.start
                    found, skipped = self._select_cached(
                        component, metric, full, raw, history, errors,
                        split, revision, span=metric_span,
                    )
                    changes.extend(found)
                    screened += skipped
            comp_span.count("metrics_analyzed", len(windows))
            comp_span.count("cusum_screened", screened)
            comp_span.count("abnormal_changes", len(changes))
        quality = DataQualityReport.build(
            component=component,
            samples_expected=expected_total,
            samples_observed=observed_total,
            samples_filled=filled_total,
            samples_missing=missing_total,
            samples_dropped=(
                store.quality_for(component).dropped
                if getattr(store, "policy", None) is not None
                else 0
            ),
            metrics_total=metrics_total,
            metrics_analyzed=len(windows),
            metrics_inconclusive=metrics_inconclusive,
        )
        skip_reason = None
        if not windows:
            if metrics_total == 0:
                skip_reason = "insufficient recorded history"
            else:
                skip_reason = (
                    f"telemetry coverage below the "
                    f"{DataQualityPolicy.min_coverage:.0%} policy floor on all "
                    f"{metrics_total} metric(s)"
                )
        return ComponentReport(
            component=component,
            abnormal_changes=changes,
            skipped=not windows,
            skip_reason=skip_reason,
            quality=quality,
            trace=comp_span if tracer.enabled else None,
        )

    def _degraded_series(
        self,
        full: TimeSeries,
        finite: np.ndarray,
        span_lo: int,
        expected: int,
        observed: int,
    ) -> Tuple[TimeSeries, int, bool]:
        """Repair, coverage-gate and clip a gap-afflicted series.

        Returns ``(series, filled_in_window, analyzable)``. The series is
        the bounded-fill repair of ``full``, clipped past any unfillable
        gap that lies before the look-back window (``span_lo``); it is
        only ``analyzable`` when the window's *observed* coverage meets
        the coverage floor and no unfillable gap remains inside the window
        — a metric failing either test is inconclusive and must not vote,
        because selection on mostly-synthesized data risks a confident
        mis-ranking.
        """
        coverage = observed / expected if expected else 0.0
        repaired = full
        if not finite.all():
            repaired = full.filled(max_gap=DataQualityPolicy.max_gap)
        n_filled = 0
        if repaired is not full:
            now_finite = np.isfinite(repaired.values)
            n_filled = int((now_finite & ~finite)[span_lo:].sum())
        else:
            now_finite = finite
        if coverage < DataQualityPolicy.min_coverage:
            return repaired, n_filled, False
        bad = np.flatnonzero(~now_finite)
        if len(bad) == 0:
            return repaired, n_filled, True
        last_bad = int(bad[-1])
        if last_bad >= span_lo:
            # An unfillable gap inside the look-back window itself.
            return repaired, n_filled, False
        # The window is whole but the history has an unfillable hole:
        # clip the series to the contiguous finite suffix so CUSUM and
        # the history references see finite data only.
        clipped = repaired.window(full.start + last_bad + 1, repaired.end)
        if len(clipped) < 2 * self.config.min_segment:
            return repaired, n_filled, False
        return clipped, n_filled, True

    def _select_cached(
        self,
        component: ComponentId,
        metric: Metric,
        full: TimeSeries,
        raw: TimeSeries,
        history: TimeSeries,
        errors: np.ndarray,
        split: int,
        revision: int = 0,
        span=None,
    ) -> Tuple[List, bool]:
        """Window-keyed memoization around the selection pipeline.

        Keys are ``(component, metric, window bounds, store revision)``;
        the store is append-only so equal bounds imply equal samples,
        equal error slices (online errors are causal) and therefore equal
        output — except when a late arrival backfilled a past slot in
        place, which bumps the store's ``revision`` and thereby invalidates
        every window cached before the repair. Two levels are kept: the
        CUSUM/bootstrap intermediates and the final selected changes, so
        the validation loop and repeated diagnoses of one violation skip
        the work entirely. Before any CUSUM runs, the smoothed window is
        screened (:func:`~repro.core.selection.selection_screened`): a
        series whose swing or prediction errors cannot pass selection —
        most of them in a diagnosis — caches ``[]`` and never pays for a
        bootstrap, which is otherwise the dominant cost of selection.

        Returns:
            ``(changes, screened)``: the selected abnormal changes and
            whether the screen skipped this window's CUSUM just now.
        """
        from repro.obs.trace import NULL_SPAN

        if span is None:
            span = NULL_SPAN
        cache_key = (component, metric, raw.start, raw.end, revision)
        cached = self._selection_cache.get(cache_key)
        if cached is not None:
            self._selection_cache.move_to_end(cache_key)
            span.count("selection_cache_hits", 1)
            return list(cached), False

        detected = references = None
        if len(raw) >= 2 * self.config.min_segment:
            references = history_error_references(
                errors[:split], self.config.history_error_percentile
            )
            detected = self._cusum_cache.get(cache_key)
            if detected is None:
                smoothed = smooth_window(raw, self.config, span)
                if selection_screened(
                    smoothed, errors[split:], references, self.config
                ):
                    span.count("cusum_screened", 1)
                    self._cache_put(self._selection_cache, cache_key, [])
                    return [], True
                detected = detect_window_change_points(
                    raw, metric, self.config, seed=(self.seed, component),
                    span=span, smoothed=smoothed,
                )
                self._cache_put(self._cusum_cache, cache_key, detected)
            else:
                self._cusum_cache.move_to_end(cache_key)
                span.count("cusum_cache_hits", 1)

        changes = select_abnormal_changes(
            raw,
            history,
            metric,
            self.config,
            seed=(self.seed, component),
            errors=errors[split:],
            history_errors=errors[:split],
            detected=detected,
            full_series=full,
            history_references=references,
            span=span,
        )
        self._cache_put(self._selection_cache, cache_key, changes)
        return list(changes), False

    @staticmethod
    def _cache_put(cache: "OrderedDict", key, value) -> None:
        cache[key] = value
        if len(cache) > _CACHE_LIMIT:
            cache.popitem(last=False)


class FChainMaster:
    """Master-side integrated fault diagnosis and validation.

    The master owns one persistent :class:`FChainSlave` whose warm
    state is reused across diagnoses of the same store, and contacts it
    once per component, in component order, on the calling thread.
    """

    def __init__(
        self,
        config: Optional[FChainConfig] = None,
        dependency_graph: Optional[nx.DiGraph] = None,
        seed: object = 0,
        *,
        topology: Optional[OnlineTopology] = None,
    ) -> None:
        self.config = (config or FChainConfig()).validate()
        self.dependency_graph = dependency_graph
        self.topology = topology
        self.tracer = make_tracer(self.config.telemetry)
        #: The persistent slave: its models stay warm across diagnoses.
        self.slave = FChainSlave(self.config, seed=seed)

    def _diagnosis_graph(self) -> Optional[nx.DiGraph]:
        """The dependency graph this diagnosis prunes against.

        A static (offline discovered) graph wins when both are given;
        otherwise the online topology's current weighted snapshot is
        taken — per diagnosis, because edge confidences keep moving.
        """
        if self.dependency_graph is not None:
            return self.dependency_graph
        if self.topology is not None:
            return self.topology.graph()
        return None

    def _scope(
        self, graph: Optional[nx.DiGraph], store: MetricStore, origin
    ) -> Optional[List[ComponentId]]:
        """The top-K neighborhood to analyse, or None for full fan-out."""
        config = self.config
        if (
            config.topology_mode != "neighborhood"
            or config.topology_top_k <= 0
            or origin is None
            or graph is None
        ):
            return None
        components = store.components
        present = set(components)
        ranked = rank_candidates(graph, origin, components)
        scope = [c for c in ranked[: config.topology_top_k] if c in present]
        if not scope or len(scope) >= len(components):
            return None
        return scope

    def _analyze(
        self,
        store: MetricStore,
        violation_time: int,
        components: Iterable[ComponentId],
        span,
    ) -> List[ComponentReport]:
        """Contact the slave once per component, in the given order.

        Each report's component span tree is adopted into the diagnosis
        ``span``, so the diagnosis is one trace.
        """
        reports = []
        for component in components:
            report = self.slave.analyze(store, component, violation_time)
            if report.trace is not None:
                span.adopt(report.trace)
            reports.append(report)
        return reports

    @staticmethod
    def _must_widen(
        result: PinpointResult,
        graph: nx.DiGraph,
        analyzed: Iterable[ComponentId],
    ) -> bool:
        """Whether a scoped diagnosis could have missed the culprit.

        Escalate when the scoped analysis found nothing to blame (the
        anomaly's source may sit outside the neighborhood), when it
        inferred an external factor from a subset (that attribution
        requires *every* component abnormal, which a subset cannot
        establish), or when an abnormal component sits at the frontier —
        with an unanalysed graph neighbor its anomaly could have arrived
        from.
        """
        if result.external_factor:
            return True
        if not result.faulty:
            return True
        abnormal = [
            r.component for r in result.reports.values() if r.is_abnormal
        ]
        return not neighborhood_complete(graph, abnormal, analyzed)

    def diagnose(
        self,
        store: MetricStore,
        violation_time: int,
        *,
        origin: Optional[ComponentId] = None,
    ) -> PinpointResult:
        """Pinpoint faulty components after an SLO violation at ``t_v``.

        Triggers the slave analysis for every monitored component, builds
        the propagation chain and runs integrated pinpointing against the
        dependency graph (offline discovered, or the online topology's
        current weighted snapshot). Components no slave could analyse are
        surfaced in ``PinpointResult.skipped``.

        Args:
            origin: The component whose SLO signal violated (keyword
                only). In ``topology_mode="neighborhood"`` with a
                positive ``topology_top_k``, slaves are dispatched only
                for the top-K components by graph distance from the
                origin; the result is escalated to a full analysis
                whenever the scoped outcome cannot rule out a culprit
                outside the neighborhood (``PinpointResult.escalated``).
                Ignored in ``"full"`` mode — diagnoses are then
                bit-identical to prior releases.
        """
        if violation_time <= store.start:
            raise DiagnosisError("violation time precedes recorded history")
        graph = self._diagnosis_graph()
        scope = self._scope(graph, store, origin)
        trace = self.tracer.span(STAGE_DIAGNOSIS, violation_time=violation_time)
        with trace:
            reports = self._analyze(
                store,
                violation_time,
                store.components if scope is None else sorted(scope),
                trace,
            )
            with trace.child(STAGE_PINPOINT) as pin_span:
                result = pinpoint_faulty_components(
                    reports, self.config, graph
                )
                escalated = False
                if scope is not None:
                    result.analyzed = frozenset(scope)
                    if self._must_widen(result, graph, scope):
                        # The scoped verdict cannot rule out a culprit
                        # beyond the frontier: widen to the full
                        # component set rather than silently miss it.
                        rest = [
                            c
                            for c in store.components
                            if c not in result.analyzed
                        ]
                        more = self._analyze(
                            store, violation_time, rest, trace
                        )
                        merged = {r.component: r for r in reports}
                        merged.update({r.component: r for r in more})
                        reports = [
                            merged[c]
                            for c in store.components
                            if c in merged
                        ]
                        result = pinpoint_faulty_components(
                            reports, self.config, graph
                        )
                        result.analyzed = frozenset(store.components)
                        escalated = True
                result.escalated = escalated
                pin_span.count("components_reported", len(reports))
                pin_span.count(
                    "abnormal_components",
                    sum(1 for r in reports if r.is_abnormal),
                )
                pin_span.count("chain_length", len(result.chain.links))
                pin_span.count("faulty_pinpointed", len(result.faulty))
                if scope is not None:
                    pin_span.count("components_scoped", len(scope))
                    pin_span.count("escalated", int(escalated))
        if self.tracer.enabled:
            self.tracer.observe(trace)
            result.trace = trace
        return result

    def validate(
        self, app, result: PinpointResult
    ) -> Tuple[PinpointResult, Dict[ComponentId, ValidationOutcome]]:
        """Run online pinpointing validation and filter false alarms."""
        outcomes = validate_pinpointing(app, result, self.config)
        return apply_validation(result, outcomes), outcomes


class FChain:
    """One-call facade over the FChain system.

    Example::

        fchain = FChain(FChainConfig(), dependency_graph=graph)
        diagnosis = fchain.localize(
            app.store, violation_time=app.slo.first_violation
        )
        print(diagnosis.faulty)

    Args:
        config: FChain configuration (validated on construction).
        dependency_graph: Offline-discovered dependency graph, or None.
        seed: Deterministic seed label for stochastic steps.
        topology: Online learned :class:`~repro.core.topology.OnlineTopology`
            whose weighted snapshot replaces ``dependency_graph`` when the
            latter is None, and which powers neighborhood-scoped dispatch
            in ``topology_mode="neighborhood"``.
    """

    def __init__(
        self,
        config: Optional[FChainConfig] = None,
        dependency_graph: Optional[nx.DiGraph] = None,
        seed: object = 0,
        *,
        topology: Optional[OnlineTopology] = None,
    ) -> None:
        self.config = (config or FChainConfig()).validate()
        self.master = FChainMaster(
            self.config, dependency_graph, seed=seed, topology=topology
        )

    @property
    def dependency_graph(self) -> Optional[nx.DiGraph]:
        return self.master.dependency_graph

    @property
    def topology(self) -> Optional[OnlineTopology]:
        return self.master.topology

    def close(self) -> None:
        """End the engine's lifetime. It holds no pooled resources
        (every diagnosis runs on the calling thread), so this releases
        nothing; it is what ``with FChain(...)`` calls on exit."""

    def __enter__(self) -> "FChain":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Streaming feed-through
    # ------------------------------------------------------------------
    def observe_many(
        self, component: ComponentId, metric: Metric, values: Iterable[float]
    ) -> None:
        """Feed a batch of consecutive samples into the slave's models."""
        self.master.slave.observe_many(component, metric, values)

    # ------------------------------------------------------------------
    # Localization API
    # ------------------------------------------------------------------
    def localize(
        self,
        store: MetricStore,
        *,
        violation_time: int,
        validate_with=None,
        origin: Optional[ComponentId] = None,
    ) -> Diagnosis:
        """Diagnose the faulty components for a detected SLO violation.

        Args:
            store: Recorded metric samples of the run.
            violation_time: ``t_v`` — when the SLO violation was detected
                (keyword-only).
            validate_with: Optional live application; when given, online
                pinpointing validation runs and the returned diagnosis
                carries the validated result plus per-component outcomes.
            origin: Optional SLO-violating component; enables
                neighborhood-scoped slave dispatch in
                ``topology_mode="neighborhood"`` (see
                :meth:`FChainMaster.diagnose`).

        Returns:
            A :class:`~repro.core.diagnosis.Diagnosis`.
        """
        started = time.perf_counter()
        result = self.master.diagnose(store, violation_time, origin=origin)
        outcomes: Optional[Dict[ComponentId, ValidationOutcome]] = None
        unvalidated: Optional[PinpointResult] = None
        if validate_with is not None:
            unvalidated = result
            trace = result.trace
            if trace is not None:
                with trace.child(STAGE_VALIDATION) as validation_span:
                    result, outcomes = self.master.validate(
                        validate_with, result
                    )
                    validation_span.count("validated_components", len(outcomes))
                    validation_span.count(
                        "false_alarms_removed",
                        sum(1 for o in outcomes.values() if not o.confirmed),
                    )
                # The diagnosis root was already aggregated; fold the
                # post-hoc validation span in on its own.
                self.master.tracer.observe(validation_span)
            else:
                result, outcomes = self.master.validate(validate_with, result)
        return Diagnosis(
            result=result,
            violation_time=violation_time,
            outcomes=outcomes,
            unvalidated=unvalidated,
            latency_seconds=time.perf_counter() - started,
            trace=result.trace,
        )
