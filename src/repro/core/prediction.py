"""Online Markov-chain metric prediction (the PRESS model, paper ref. [12]).

The FChain slave continuously learns each metric's *value-transition*
pattern: the value range is discretized into bins and a discrete-time
Markov chain counts bin-to-bin transitions, with exponential forgetting so
the model tracks the evolving workload. The prediction for the next sample
is the expected value of the next-bin distribution given the current bin.

The model's role in FChain is the *predictability metric*: transitions the
model has seen before (normal workload fluctuation) predict well; fault
manifestations move the metric in ways the model never learned, producing
large prediction errors.

Model state lives in a :class:`ModelBank`: one structure-of-arrays whose
leading axis is the series (*row*). A slave owns one bank for all its
series; a standalone :class:`MarkovPredictor` is a one-row handle onto a
bank of its own. There is one copy of every model and four ways to
advance it, all kept **bit-identical**:

* :meth:`ModelBank.step` — one sample of one row (the scalar reference,
  public as :meth:`MarkovPredictor.step` / :meth:`MarkovPredictor.update`);
* :meth:`ModelBank.advance_block` — a block of consecutive samples for
  each of many rows, vectorized along the *time* axis: bin assignment
  runs on every row's frozen grid at once, the transitions are grouped
  by (row, source bin) with one stable sort, and the predictions are
  reconstructed from the running aggregates by one ``np.cumsum`` over a
  padded grid with a row per group, which performs exactly the same
  sequence of float additions as the scalar path; transition counts
  land with one flat ``np.add.at``;
* :meth:`ModelBank.update_many` — a chunk of one row: the same kernel
  with one row, called once per decay epoch, after the warmup and the
  chain seed are peeled off (property-tested by
  ``tests/properties/test_update_many_properties.py``);
* :meth:`ModelBank.advance_tick` — one sample for each of many rows,
  vectorized along the *series* axis: every row performs the scalar
  rule's own float operations, just side by side.

Any mix of the last three is property-tested against ``step`` by
``tests/properties/test_model_bank_properties.py``.

The time-axis exactness hinges on two facts: sequential aggregate updates
are a left fold, which is precisely what ``np.cumsum`` computes; and
halving at the decay points multiplies by a power of two, which
distributes exactly over sums in IEEE arithmetic.

A non-finite sample is a *gap* on every path: it yields no error, updates
no model state and severs the transition chain, so the next finite sample
only re-seeds the chain. That holds however the stream is chunked — a gap
delivered as a chunk of its own severs exactly like one in the middle of
a longer chunk.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.common.timeseries import TimeSeries

#: Smallest grid span that can be divided safely. Below the smallest
#: normal float, ``(value - lo) / span * bins`` overflows to inf for
#: values only modestly outside the grid, and ``int(inf)`` raises —
#: such spans are treated like the zero-span degenerate grid instead.
_MIN_SPAN = float(np.finfo(float).tiny)

#: Most transitions one :meth:`ModelBank._count_epoch` call groups at
#: once. Its padded grid has a row per (series, source bin) and a column
#: per transition of the widest group, so this caps the grid at
#: ``bins`` times this many cells (5 MB at 40 bins) however far behind a
#: large slave is; one row's decay epoch (``halflife`` = 2000) and a
#: fleet tenant's deferred block (12 series x 85 ticks) stay in one call.
_EPOCH_TRANSITIONS = 1 << 14

#: ``previous_bin`` of a row whose transition chain is severed (before
#: the first post-warmup sample, and after every gap).
_NO_BIN = -1


class ModelBank:
    """Markov predictors for many series, as one structure-of-arrays.

    Every per-model quantity is an array whose leading axis is the row
    (one row per series); rows are appended with :meth:`add_row` and the
    arrays grow geometrically. All rows share ``bins``, ``halflife``,
    ``warmup`` and ``headroom`` (see :class:`MarkovPredictor`).

    Arrays (``B = bins``; only the first ``size`` rows are in use):

    * ``counts[row, B, B]`` — decayed transition counts;
    * ``row_dots[row, b] == counts[row, b] @ centers[row]`` and
      ``row_sums[row, b] == counts[row, b].sum()`` — the running
      aggregates predictions are served from, maintained in lockstep
      with ``counts``;
    * ``marginal_dot[row]``, ``marginal_total[row]`` — the same over
      all transitions (the unvisited-row fallback);
    * ``lo``, ``span``, ``centers[row, B]`` — the frozen grid: lower
      edge, width and bin centers (``span`` stays 0 until the warmup
      finished);
    * ``previous_bin[row]`` — the chain state, ``-1`` when severed;
    * ``updates[row]`` — transitions counted (halving falls on every
      multiple of ``halflife``); ``ready[row]`` — warmup finished.
    """

    #: Names of the per-row state arrays (everything but the pre-freeze
    #: ``warmup_values`` lists).
    ARRAYS = (
        "counts", "row_dots", "row_sums", "marginal_dot", "marginal_total",
        "lo", "span", "centers", "previous_bin", "updates", "ready",
    )

    def __init__(
        self,
        bins: int = 40,
        halflife: int = 2000,
        warmup: int = 60,
        headroom: float = 0.75,
    ) -> None:
        if bins < 2:
            raise ValueError("bins must be >= 2")
        self.bins = bins
        self.halflife = max(1, halflife)
        self.warmup = max(2, warmup)
        self.headroom = headroom
        self.size = 0
        # One row of capacity; rows are added (and the arrays regrown)
        # through add_row / reserve.
        self.counts = np.zeros((1, bins, bins))
        self.row_dots = np.zeros((1, bins))
        self.row_sums = np.zeros((1, bins))
        self.marginal_dot = np.zeros(1)
        self.marginal_total = np.zeros(1)
        self.lo = np.zeros(1)
        self.span = np.zeros(1)
        self.centers = np.zeros((1, bins))
        self.previous_bin = np.full(1, _NO_BIN, dtype=np.int64)
        self.updates = np.zeros(1, dtype=np.int64)
        self.ready = np.zeros(1, dtype=bool)
        #: Samples collected per row until its grid is frozen.
        self.warmup_values: List[list] = []

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return len(self.updates)

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` rows in one reallocation."""
        if rows <= self.capacity:
            return
        for name in self.ARRAYS:
            old = getattr(self, name)
            grown = np.zeros((rows,) + old.shape[1:], dtype=old.dtype)
            grown[: self.size] = old[: self.size]
            setattr(self, name, grown)
        self.previous_bin[self.size :] = _NO_BIN

    def add_row(self) -> int:
        """Append a fresh (warming-up) model; returns its row."""
        if self.size == self.capacity:
            self.reserve(2 * self.capacity)
        self.warmup_values.append([])
        self.size += 1
        return self.size - 1

    # ------------------------------------------------------------------
    # The scalar rule (one sample, one row)
    # ------------------------------------------------------------------
    def _freeze_grid(self, row: int) -> None:
        values = np.asarray(self.warmup_values[row], dtype=float)
        lo, hi = float(values.min()), float(values.max())
        pad = self.headroom * max(hi - lo, abs(hi), 1e-6)
        lo, hi = lo - pad, hi + pad
        self.lo[row], self.span[row] = lo, hi - lo
        edges = np.linspace(lo, hi, self.bins + 1)
        self.centers[row] = 0.5 * (edges[:-1] + edges[1:])
        self.ready[row] = True
        self.warmup_values[row] = []

    def bin_of(self, row: int, value: float) -> int:
        lo = float(self.lo[row])
        span = float(self.span[row])
        if span < _MIN_SPAN:
            # Degenerate grid: a constant warmup series with zero
            # headroom freezes lo == hi (span 0), and a *subnormal*
            # warmup spread can freeze a positive span too small to
            # divide safely. Every value then maps to an edge bin
            # instead of dividing by the (near-)zero span.
            return 0 if value <= lo else self.bins - 1
        raw = (value - lo) / span * self.bins
        if not math.isfinite(raw):
            # The divide overflowed (a value astronomically outside a
            # tiny grid): clamp to the edge bin the sign points at,
            # matching the degenerate-grid rule.
            return 0 if value <= lo else self.bins - 1
        return min(self.bins - 1, max(0, int(raw)))

    def bins_of(self, row: int, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bin_of` over a chunk (identical clamping)."""
        return self._bins(self.lo[row], self.span[row], values)

    def _bins(self, lo, span, values: np.ndarray) -> np.ndarray:
        """:meth:`bin_of` of every value, with ``lo`` and ``span``
        broadcast against ``values`` (one row's grid, or one per row of
        a block)."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            raw = (values - lo) / span * self.bins
        # A degenerate grid or an overflowed divide takes the edge bin
        # the sign points at, as in the scalar rule.
        edge = ~np.isfinite(raw) | (span < _MIN_SPAN)
        if edge.any():
            raw = np.where(
                edge, np.where(values <= lo, 0.0, float(self.bins - 1)), raw
            )
        # Clipping the float before truncation matches the scalar
        # ``min(bins - 1, max(0, int(raw)))`` for every finite value:
        # int() truncates toward zero, and truncation commutes with the
        # clamp on [0, bins - 1].
        return np.clip(raw, 0, self.bins - 1).astype(np.int64)

    def _halve(self, rows) -> None:
        """Exponential forgetting: halve counts and all aggregates.

        Multiplying by 0.5 is exact in IEEE arithmetic and distributes
        over sums, so the aggregates stay equal to their definitions.
        """
        self.counts[rows] *= 0.5
        self.row_dots[rows] *= 0.5
        self.row_sums[rows] *= 0.5
        self.marginal_dot[rows] *= 0.5
        self.marginal_total[rows] *= 0.5

    def predict(self, row: int) -> Optional[float]:
        """Expected next value of one row, or None without a chain state.

        An unvisited transition row falls back to the *marginal*
        expectation over all observed values: the model has never seen
        this state, so its best estimate is the historical norm. This is
        what makes a sustained excursion into an unseen regime — the
        signature of a fault manifestation — keep producing large
        prediction errors tick after tick, whereas a brief benign spike
        returns to well-learned states immediately.
        """
        previous = int(self.previous_bin[row])
        return None if previous < 0 else self._expected(row, previous)

    def _expected(self, row: int, previous: int) -> float:
        total = self.row_sums[row, previous]
        if total > 0:
            return float(self.row_dots[row, previous] / total)
        if self.marginal_total[row] <= 0:
            return float(self.centers[row, previous])
        return float(self.marginal_dot[row] / self.marginal_total[row])

    def step(self, row: int, value: float) -> Optional[float]:
        """Feed one sample to one row; returns its *signed* error.

        See :meth:`MarkovPredictor.step`. This is the reference every
        vectorized path is held to.
        """
        value = float(value)
        if not math.isfinite(value):
            self.previous_bin[row] = _NO_BIN
            return None
        if not self.ready[row]:
            pending = self.warmup_values[row]
            pending.append(value)
            if len(pending) >= self.warmup:
                self._freeze_grid(row)
            return None
        previous = int(self.previous_bin[row])
        current = self.bin_of(row, value)
        self.previous_bin[row] = current
        if previous < 0:
            # No prediction and no transition: the sample only seeds
            # the chain state.
            return None
        predicted = self._expected(row, previous)
        self.counts[row, previous, current] += 1.0
        center = self.centers[row, current]
        self.row_dots[row, previous] += center
        self.row_sums[row, previous] += 1.0
        self.marginal_dot[row] += center
        self.marginal_total[row] += 1.0
        updates = int(self.updates[row]) + 1
        self.updates[row] = updates
        if updates % self.halflife == 0:
            self._halve(row)
        return value - predicted

    # ------------------------------------------------------------------
    # The series axis (one sample each, many rows)
    # ------------------------------------------------------------------
    def advance_tick(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Feed one sample to each of ``rows``; return the signed errors.

        Bit-identical to ``[self.step(r, v) for r, v in zip(rows,
        values)]`` with None mapped to NaN. Rows that have a chain state
        on a regular grid and received a finite sample — the steady
        state of a warm slave — advance together in a fixed number of
        numpy calls; every other row (warming up, just seeded or
        severed, degenerate grid, gap) takes :meth:`step` itself.

        Args:
            rows: Distinct row indices.
            values: One sample per row; non-finite marks a gap.
        """
        values = np.asarray(values, dtype=float)
        previous = self.previous_bin[rows]
        span = self.span[rows]
        regular = (previous >= 0) & (span >= _MIN_SPAN) & np.isfinite(values)
        if regular.all():
            return self._advance_regular(rows, values, previous, span)
        errors = np.full(len(values), np.nan)
        for i in np.flatnonzero(~regular):
            delta = self.step(int(rows[i]), values[i])
            if delta is not None:
                errors[i] = delta
        keep = np.flatnonzero(regular)
        if len(keep):
            errors[keep] = self._advance_regular(
                rows[keep], values[keep], previous[keep], span[keep]
            )
        return errors

    def _advance_regular(
        self,
        rows: np.ndarray,
        values: np.ndarray,
        previous: np.ndarray,
        span: np.ndarray,
    ) -> np.ndarray:
        """:meth:`step` for rows on the regular path, side by side."""
        top = self.bins - 1
        lo = self.lo[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            raw = (values - lo) / span * self.bins
        finite = np.isfinite(raw)
        if not finite.all():
            raw = np.where(
                finite, raw, np.where(values <= lo, 0.0, float(top))
            )
        # Clamp-then-truncate, as in :meth:`bins_of`.
        np.maximum(raw, 0.0, out=raw)
        np.minimum(raw, top, out=raw)
        current = raw.astype(np.int64)

        totals = self.row_sums[rows, previous]
        dots = self.row_dots[rows, previous]
        visited = totals > 0
        if visited.all():
            predicted = dots / totals
        else:
            predicted = self.centers[rows, previous]
            mdot = self.marginal_dot[rows]
            mtot = self.marginal_total[rows]
            np.divide(mdot, mtot, out=predicted, where=mtot > 0)
            np.divide(dots, totals, out=predicted, where=visited)
        errors = values - predicted

        center = self.centers[rows, current]
        self.counts[rows, previous, current] += 1.0
        self.row_dots[rows, previous] = dots + center
        self.row_sums[rows, previous] = totals + 1.0
        self.marginal_dot[rows] += center
        self.marginal_total[rows] += 1.0
        updates = self.updates[rows] + 1
        self.updates[rows] = updates
        due = updates % self.halflife == 0
        if due.any():
            self._halve(rows[due])
        self.previous_bin[rows] = current
        return errors

    # ------------------------------------------------------------------
    # The time axis (many samples, one row or a block of rows)
    # ------------------------------------------------------------------
    def update_many(self, row: int, values) -> np.ndarray:
        """Feed a chunk of consecutive samples to one row; signed errors.

        See :meth:`MarkovPredictor.update_many`.
        """
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("update_many expects a 1-D array of samples")
        n = len(arr)
        errors = np.full(n, np.nan)
        if n == 0:
            return errors
        if n <= 2:
            # Chunks this small gain nothing from the batch machinery.
            for i in range(n):
                delta = self.step(row, arr[i])
                if delta is not None:
                    errors[i] = delta
            return errors
        start = 0
        if not self.ready[row]:
            pending = self.warmup_values[row]
            take = min(n, self.warmup - len(pending))
            pending.extend(arr[:take].tolist())
            if len(pending) >= self.warmup:
                self._freeze_grid(row)
            start = take
            if start >= n or not self.ready[row]:
                return errors
        chunk = arr[start:]
        if not np.isfinite(chunk).all():
            raise ValueError("update_many requires finite samples")
        bins_arr = self.bins_of(row, chunk)
        previous = int(self.previous_bin[row])
        if previous < 0:
            # The first post-warmup sample has no prediction and causes
            # no transition; it only seeds the chain state.
            if len(chunk) == 1:
                self.previous_bin[row] = bins_arr[0]
                return errors
            sources = bins_arr[:-1]
            targets = bins_arr[1:]
            predicted_for = chunk[1:]
            out = errors[start + 1 :]
        else:
            sources = np.concatenate(([previous], bins_arr[:-1]))
            targets = bins_arr
            predicted_for = chunk
            out = errors[start:]
        preds = np.empty(len(targets))
        total = len(targets)
        halflife = self.halflife
        rows = np.array([row])
        position = 0
        while position < total:
            # Increments until (and including) the next halving point —
            # within an epoch no decay happens, so predictions can be
            # reconstructed from epoch-start aggregates plus cumsums.
            updates = int(self.updates[row])
            end = min(total, position + halflife - updates % halflife)
            preds[position:end] = self._count_epoch(
                rows, sources[None, position:end], targets[None, position:end]
            )[0]
            updates += end - position
            self.updates[row] = updates
            if updates % halflife == 0:
                self._halve(row)
            position = end
        np.subtract(predicted_for, preds, out=out)
        self.previous_bin[row] = bins_arr[-1]
        return errors

    def update_many_gapped(self, row: int, values) -> np.ndarray:
        """Feed one row a chunk that may contain gap markers; errors.

        See :meth:`MarkovPredictor.update_many_gapped`.
        """
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("update_many_gapped expects a 1-D array")
        finite = np.isfinite(arr)
        if finite.all():
            return self.update_many(row, arr)
        errors = np.full(len(arr), np.nan)
        idx = np.flatnonzero(finite)
        if len(idx) == 0:
            # A chunk that is all gap severs the chain like any other
            # gap — otherwise how a stream happened to be chunked would
            # decide whether the samples around the gap were chained.
            self.previous_bin[row] = _NO_BIN
            return errors
        run_breaks = np.flatnonzero(np.diff(idx) > 1) + 1
        for run in np.split(idx, run_breaks):
            lo, hi = int(run[0]), int(run[-1]) + 1
            if lo > 0:
                # The samples of this run follow a gap: sever the chain
                # so no cross-gap transition is learned.
                self.previous_bin[row] = _NO_BIN
            errors[lo:hi] = self.update_many(row, arr[lo:hi])
        if not finite[-1]:
            # A trailing gap severs the chain for the *next* chunk too.
            self.previous_bin[row] = _NO_BIN
        return errors

    def advance_block(self, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Feed ``block[i]`` to row ``rows[i]``; return the signed errors.

        Bit-identical to ``update_many_gapped(rows[i], block[i])`` for
        every ``i``. Rows that have a chain state, are warm, hold no gap
        in the block and reach their next halving no earlier than the
        block's last sample — a warm slave some ticks behind a live
        store — advance together in a fixed number of numpy calls; every
        other row takes :meth:`update_many_gapped` itself.

        Args:
            rows: Distinct row indices.
            block: ``[len(rows), ticks]`` consecutive samples per row;
                non-finite marks a gap.
        """
        block = np.asarray(block, dtype=float)
        ticks = block.shape[1]
        errors = np.full(block.shape, np.nan)
        if ticks == 0:
            return errors
        previous = self.previous_bin[rows]
        updates = self.updates[rows]
        together = (
            self.ready[rows]
            & (previous >= 0)
            & (updates % self.halflife + ticks <= self.halflife)
            & np.isfinite(block).all(axis=1)
        )
        for i in np.flatnonzero(~together):
            errors[i] = self.update_many_gapped(int(rows[i]), block[i])
        keep = np.flatnonzero(together)
        if len(keep) == 0:
            return errors
        rows, values = rows[keep], block[keep]
        lo, span = self.lo[rows, None], self.span[rows, None]
        targets = self._bins(lo, span, values)
        sources = np.empty_like(targets)
        sources[:, 0] = previous[keep]
        sources[:, 1:] = targets[:, :-1]
        errors[keep] = values - self._count_epoch(rows, sources, targets)
        updates = updates[keep] + ticks
        self.updates[rows] = updates
        due = updates % self.halflife == 0
        if due.any():
            self._halve(rows[due])
        self.previous_bin[rows] = targets[:, -1]
        return errors

    def _count_epoch(
        self, rows: np.ndarray, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Count a decay-free run of transitions for each of ``rows``.

        ``sources[i, j] -> targets[i, j]`` is row ``rows[i]``'s ``j``-th
        transition. Returns the predictions (made *before* each
        transition lands, as the scalar path does) and advances counts
        and aggregates; ``updates``, halving and the chain state are the
        caller's. Long blocks are counted in slices of at most
        :data:`_EPOCH_TRANSITIONS` transitions, which bounds the padded
        grids below.
        """
        width = sources.shape[1]
        per_call = max(1, _EPOCH_TRANSITIONS // len(rows))
        if width > per_call:
            return np.concatenate(
                [
                    self._count_epoch(
                        rows,
                        sources[:, lo : lo + per_call],
                        targets[:, lo : lo + per_call],
                    )
                    for lo in range(0, width, per_call)
                ],
                axis=1,
            )
        bins = self.bins
        total = sources.size
        cadd = np.take_along_axis(self.centers[rows], targets, axis=1)
        # Group the transitions by (row, source bin). The sort is stable,
        # so each group keeps time order; every group becomes one row of
        # a zero-padded grid whose column 0 is the running aggregate, and
        # a cumsum along it is the scalar path's sequence of additions.
        # The padding only trails a group and is never read.
        cells = (rows[:, None] * bins + sources).ravel()
        order = np.argsort(cells, kind="stable")
        sorted_cells = cells[order]
        first = np.empty(total, dtype=bool)
        first[0] = True
        np.not_equal(sorted_cells[1:], sorted_cells[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        column = np.arange(1, total + 1) - starts[group]
        widths = np.append(starts[1:], total) - starts
        keys = sorted_cells[starts]
        groups = np.arange(len(starts))
        grid = np.zeros((len(starts), int(widths.max()) + 1))
        before = np.empty((2, total))
        for name, increments, into in (
            ("row_dots", cadd.ravel()[order], before[0]),
            ("row_sums", 1.0, before[1]),
        ):
            aggregate = getattr(self, name).reshape(-1)
            grid[:, 0] = aggregate[keys]
            grid[group, column] = increments
            running = np.cumsum(grid, axis=1)
            aggregate[keys] = running[groups, widths]
            into[order] = running[group, column - 1]
        dots, sums = before
        preds = np.empty(total)
        visited = sums > 0
        np.divide(dots, sums, out=preds, where=visited)
        # The marginal aggregates advance on every transition; computing
        # them as seeded cumsums keeps the float sequence identical to
        # the scalar path even when no prediction needs the fallback.
        seq = np.empty((len(rows), width + 1))
        seq[:, 0] = self.marginal_dot[rows]
        seq[:, 1:] = cadd
        marginal_dots = np.cumsum(seq, axis=1)
        seq[:, 0] = self.marginal_total[rows]
        seq[:, 1:] = 1.0
        marginal_totals = np.cumsum(seq, axis=1)
        if not visited.all():
            fallback = np.flatnonzero(~visited)
            at, when = np.divmod(fallback, width)
            mdot = marginal_dots[at, when]
            mtot = marginal_totals[at, when]
            marginal = self.centers[rows[at], sources[at, when]]
            np.divide(mdot, mtot, out=marginal, where=mtot > 0)
            preds[fallback] = marginal
        self.marginal_dot[rows] = marginal_dots[:, -1]
        self.marginal_total[rows] = marginal_totals[:, -1]
        # One flat scatter: indexing the 3-D array directly is far slower.
        np.add.at(self.counts.reshape(-1), cells * bins + targets.ravel(), 1.0)
        return preds.reshape(sources.shape)


class MarkovPredictor:
    """Online one-step-ahead predictor for a single metric series.

    The public scalar reference. It holds no model state of its own: it
    is a handle onto one row of a :class:`ModelBank` (``bank``, ``row``)
    — a bank of its own when constructed directly, a slave's shared bank
    when obtained from :meth:`on`.

    Args:
        bins: Number of value bins.
        halflife: Number of updates after which old transition counts
            carry half weight (implemented by periodic count halving).
        warmup: Samples used to estimate the initial value range before
            the bin grid is frozen.
        headroom: Fractional padding added around the warmup range so
            moderately larger values still fall inside the grid; values
            beyond it clamp to the edge bins (an "unseen regime" signal).
    """

    __slots__ = ("bank", "row")

    def __init__(
        self,
        bins: int = 40,
        halflife: int = 2000,
        warmup: int = 60,
        headroom: float = 0.75,
    ) -> None:
        self.bank = ModelBank(bins, halflife, warmup, headroom)
        self.row = self.bank.add_row()

    @classmethod
    def on(cls, bank: ModelBank, row: int) -> "MarkovPredictor":
        """The handle for an existing row of ``bank``."""
        handle = object.__new__(cls)
        handle.bank = bank
        handle.row = row
        return handle

    # ------------------------------------------------------------------
    @property
    def bins(self) -> int:
        return self.bank.bins

    @property
    def halflife(self) -> int:
        return self.bank.halflife

    @property
    def warmup(self) -> int:
        return self.bank.warmup

    @property
    def headroom(self) -> float:
        return self.bank.headroom

    @property
    def ready(self) -> bool:
        """Whether the warmup finished and predictions are meaningful."""
        return bool(self.bank.ready[self.row])

    @property
    def _counts(self) -> np.ndarray:
        return self.bank.counts[self.row]

    @property
    def _previous_bin(self) -> Optional[int]:
        previous = int(self.bank.previous_bin[self.row])
        return None if previous < 0 else previous

    def _bin_of(self, value: float) -> int:
        return self.bank.bin_of(self.row, value)

    def _bins_of(self, values: np.ndarray) -> np.ndarray:
        return self.bank.bins_of(self.row, values)

    # ------------------------------------------------------------------
    def predict(self) -> Optional[float]:
        """Expected next value given the current state, or None pre-warmup
        (see :meth:`ModelBank.predict`)."""
        return self.bank.predict(self.row)

    def step(self, value: float) -> Optional[float]:
        """Feed one sample; returns the *signed* prediction error for it.

        The error is ``value - predicted`` using the prediction made
        *before* the model saw ``value`` (honest one-step-ahead error) —
        the same convention as ``prediction_errors(..., signed=True)``,
        which lets a continuously fed model replace the batch replay in
        the diagnosis hot path. During warmup, right after it, and for
        the sample that follows a gap the error is None; a non-finite
        ``value`` is itself a gap (None, no update, chain severed).
        """
        return self.bank.step(self.row, value)

    def update(self, value: float) -> Optional[float]:
        """Feed one sample; returns the unsigned prediction error for it.

        The error is ``|predicted - value|``; see :meth:`step` for the
        signed variant the diagnosis pipeline consumes.
        """
        error = self.step(value)
        return None if error is None else abs(error)

    def update_many(self, values) -> np.ndarray:
        """Feed a chunk of consecutive samples; return signed errors.

        Bit-identical to ``[self.step(v) for v in values]`` with None
        mapped to NaN, but the chunk is processed with O(metric) numpy
        calls instead of O(samples) Python calls: warmup and grid-freeze
        are handled mid-chunk, bins are assigned vectorized, transition
        counts accumulate via ``np.add.at`` per decay epoch, and the
        halflife halvings land at exactly the same update indices as the
        scalar path.

        Args:
            values: 1-D array-like of consecutive samples. Post-warmup
                samples must be finite; NaN gap markers belong in
                :meth:`update_many_gapped`, which routes the finite runs
                here.

        Returns:
            ``actual - predicted`` per sample; NaN where the model had
            no prediction yet (warmup and the first post-warmup sample).
        """
        return self.bank.update_many(self.row, values)

    def update_many_gapped(self, values) -> np.ndarray:
        """Feed a chunk that may contain NaN gap markers; return errors.

        Degraded telemetry leaves unfillable holes as NaN slots. This
        wrapper keeps the Markov state sound across them: finite runs go
        through :meth:`update_many` unchanged (an all-finite chunk takes
        exactly that path — bit-identical to the clean pipeline), while
        each gap yields NaN errors, performs *no* model update, and
        breaks the transition chain — the pre-gap and post-gap samples
        were not consecutive, so counting a transition between them
        would teach the model a jump that never happened. A chunk that
        is nothing but gap severs the chain too, so any chunking of a
        stream leaves the same state.

        After a gap the next finite sample only re-seeds the chain state
        (no prediction, no transition), exactly like the first
        post-warmup sample.
        """
        return self.bank.update_many_gapped(self.row, values)

    # ------------------------------------------------------------------
    def transition_matrix(self) -> np.ndarray:
        """Row-normalized transition probabilities (rows with no mass are
        uniform)."""
        if not self.ready:
            raise RuntimeError("model not warmed up")
        counts = self._counts
        totals = counts.sum(axis=1, keepdims=True)
        matrix = np.where(
            totals > 0, counts / np.maximum(totals, 1e-12), 1.0 / self.bins
        )
        return matrix


def prediction_errors(
    series: TimeSeries,
    *,
    bins: int = 40,
    halflife: int = 2000,
    warmup: int = 60,
    signed: bool = False,
) -> np.ndarray:
    """Run a fresh model over a whole series; return per-sample errors.

    Entries where the model had no prediction yet (warmup) are NaN. This
    is the batch path the diagnosis uses: the model is trained online over
    the history, so the error at time ``t`` reflects exactly the data seen
    before ``t``. The whole series goes through
    :meth:`MarkovPredictor.update_many` in one vectorized chunk.

    Args:
        signed: Return ``actual - predicted`` instead of the magnitude.
            The sign separates over-shoots (benign spikes are almost
            always upward) from under-shoots, letting callers compare a
            change point against same-direction history only.
    """
    model = MarkovPredictor(bins=bins, halflife=halflife, warmup=warmup)
    errors = model.update_many(series.values)
    return errors if signed else np.abs(errors)
