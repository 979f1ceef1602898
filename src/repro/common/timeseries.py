"""A small 1 Hz time-series container.

All FChain algorithms consume regularly sampled (1-second interval) metric
series. :class:`TimeSeries` wraps a numpy array together with the timestamp
of its first sample and offers the slicing/window operations the paper's
pipeline needs (look-back windows, burst windows around a change point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


def fill_gaps(values: np.ndarray, *, max_gap: int) -> Tuple[np.ndarray, int, int]:
    """Interpolate NaN runs of length ``<= max_gap`` in a 1-D array.

    Degraded telemetry leaves holes (missing samples, rejected NaN
    readings) as NaN entries; this bounded repair makes short holes
    analysable without fabricating data across long outages. A run is
    filled with the line between its observed neighbours, so no filled
    value ever falls outside the observed min/max of the series
    (property-tested). Leading runs (no previous observation) take the
    next observed value, trailing runs the last one. Runs longer than
    ``max_gap``, and arrays with no finite sample at all, are left
    untouched.

    Returns:
        ``(filled copy, samples filled, samples left missing)``. When
        nothing needs filling the input array itself is returned
        (no copy), with ``(values, 0, 0)``.
    """
    finite = np.isfinite(values)
    n_missing = int(len(values) - finite.sum())
    if n_missing == 0:
        return values, 0, 0
    if not finite.any():
        return values, 0, n_missing
    out = values.copy()
    filled = 0
    missing = 0
    idx = np.flatnonzero(~finite)
    # Split the missing indices into maximal consecutive runs.
    run_breaks = np.flatnonzero(np.diff(idx) > 1) + 1
    for run in np.split(idx, run_breaks):
        lo, hi = int(run[0]), int(run[-1])
        if len(run) > max_gap:
            missing += len(run)
            continue
        prev = values[lo - 1] if lo > 0 else None
        nxt = values[hi + 1] if hi + 1 < len(values) else None
        if prev is not None and not np.isfinite(prev):
            prev = None
        if nxt is not None and not np.isfinite(nxt):
            nxt = None
        if prev is None and nxt is None:
            missing += len(run)
            continue
        if prev is None:
            out[run] = nxt
        elif nxt is None:
            out[run] = prev
        else:
            out[run] = np.linspace(prev, nxt, len(run) + 2)[1:-1]
        filled += len(run)
    return out, filled, missing


@dataclass
class TimeSeries:
    """A regularly sampled series ``values[i]`` at time ``start + i`` seconds.

    Attributes:
        values: Sample values, one per second.
        start: Timestamp (in simulated seconds) of ``values[0]``.
    """

    values: np.ndarray
    start: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("TimeSeries requires a 1-D value array")

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    @property
    def end(self) -> int:
        """Timestamp one past the last sample (exclusive)."""
        return self.start + len(self.values)

    @property
    def times(self) -> np.ndarray:
        """Timestamps aligned with :attr:`values`."""
        return np.arange(self.start, self.end)

    def at(self, time: int) -> float:
        """Return the sample at an absolute timestamp.

        Raises:
            IndexError: If ``time`` falls outside the series.
        """
        idx = time - self.start
        if not 0 <= idx < len(self.values):
            raise IndexError(f"time {time} outside [{self.start}, {self.end})")
        return float(self.values[idx])

    def index_of(self, time: int) -> int:
        """Translate an absolute timestamp to an array index."""
        idx = time - self.start
        if not 0 <= idx < len(self.values):
            raise IndexError(f"time {time} outside [{self.start}, {self.end})")
        return idx

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def window(self, t_from: int, t_to: int) -> "TimeSeries":
        """Return the sub-series covering ``[t_from, t_to)``, clipped.

        The bounds are clipped to the available data, matching how FChain
        slaves take a look-back window ``[t_v - W, t_v]`` that may extend
        past the beginning of recorded history.
        """
        lo = max(t_from, self.start)
        hi = min(t_to, self.end)
        if hi <= lo:
            # Empty window: anchor inside the parent series so the result's
            # grid stays within [start, end].
            return TimeSeries(np.empty(0), start=min(lo, self.end))
        return TimeSeries(self.values[lo - self.start : hi - self.start], start=lo)

    def around(self, time: int, radius: int) -> "TimeSeries":
        """Return the ``±radius`` window centred on ``time`` (clipped).

        Used for the burst-extraction window ``X = x_{t-Q} .. x_{t+Q}``.
        """
        return self.window(time - radius, time + radius + 1)

    def stacked_around(self, times: Sequence[int], radius: int):
        """Stack the ``±radius`` windows of several timestamps by length.

        Interior timestamps all clip to the same ``2 * radius + 1``
        window, so their values stack into one matrix and a consumer can
        process the whole batch with a single vectorized call (the burst
        extractor runs one stacked FFT instead of one FFT per change
        point). Edge timestamps, whose windows clip shorter, land in
        their own same-length groups — grouping by exact length keeps
        every row identical to the ``around()`` window, with no padding
        that would change its spectrum.

        Returns:
            A list of ``(indices, matrix)`` pairs: ``indices`` are
            positions into ``times`` and ``matrix`` is the
            ``(len(indices), L)`` row-stack of their window values.
            Timestamps whose window clips empty are omitted.
        """
        by_length: dict = {}
        for i, time in enumerate(times):
            lo = max(time - radius, self.start)
            hi = min(time + radius + 1, self.end)
            if hi <= lo:
                continue
            by_length.setdefault(hi - lo, []).append((i, lo))
        groups = []
        for length, members in by_length.items():
            indices = np.array([i for i, _ in members])
            matrix = np.stack(
                [
                    self.values[lo - self.start : lo - self.start + length]
                    for _, lo in members
                ]
            )
            groups.append((indices, matrix))
        return groups

    # ------------------------------------------------------------------
    # Data quality (gap awareness)
    # ------------------------------------------------------------------
    def coverage(
        self, t_from: Optional[int] = None, t_to: Optional[int] = None
    ) -> float:
        """Fraction of ``[t_from, t_to)`` covered by finite samples.

        Bounds default to the series' own extent. Ticks outside the
        recorded series (a look-back window reaching past a late-joining
        VM's first sample, or past the last sample of one that left)
        count as uncovered — absence of data is a gap, not a shorter
        denominator. An empty span has coverage 0.
        """
        lo = self.start if t_from is None else t_from
        hi = self.end if t_to is None else t_to
        expected = hi - lo
        if expected <= 0:
            return 0.0
        piece = self.window(lo, hi)
        observed = int(np.isfinite(piece.values).sum())
        return observed / expected

    def gaps(self) -> List[Tuple[int, int]]:
        """Maximal NaN runs as ``(start timestamp, length)`` pairs."""
        idx = np.flatnonzero(~np.isfinite(self.values))
        if len(idx) == 0:
            return []
        run_breaks = np.flatnonzero(np.diff(idx) > 1) + 1
        return [
            (self.start + int(run[0]), len(run))
            for run in np.split(idx, run_breaks)
        ]

    def longest_gap(self) -> int:
        """Length of the longest NaN run (0 when fully observed)."""
        return max((length for _, length in self.gaps()), default=0)

    def filled(self, *, max_gap: int) -> "TimeSeries":
        """Copy with NaN runs of length ``<= max_gap`` repaired.

        See :func:`fill_gaps` for the fill semantics; a series with no
        gaps is returned as-is (same backing array, zero copies), which
        keeps the clean-data path bit-identical.
        """
        out, filled, _ = fill_gaps(self.values, max_gap=max_gap)
        if filled == 0 and out is self.values:
            return self
        return TimeSeries(out, start=self.start)

    # ------------------------------------------------------------------
    # Construction / combination
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: Sequence[float], start: int = 0) -> "TimeSeries":
        """Build a series from any sequence of floats."""
        return cls(np.asarray(list(values), dtype=float), start=start)

    def extended(self, more: Sequence[float]) -> "TimeSeries":
        """Return a new series with ``more`` appended after the last sample."""
        tail = np.asarray(list(more), dtype=float)
        return TimeSeries(np.concatenate([self.values, tail]), start=self.start)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        return float(np.mean(self.values)) if len(self.values) else 0.0

    def std(self) -> float:
        return float(np.std(self.values)) if len(self.values) else 0.0

    def slope_at(self, time: int, span: int = 3) -> float:
        """Least-squares slope of the ``±span`` neighbourhood around ``time``.

        This is the "tangent" used by FChain's rollback step: the local rate
        of change of the (smoothed) metric at a change point.
        """
        piece = self.around(time, span)
        if len(piece) < 2:
            return 0.0
        x = np.arange(len(piece), dtype=float)
        slope = np.polyfit(x, piece.values, 1)[0]
        return float(slope)


def require_same_grid(a: TimeSeries, b: TimeSeries) -> None:
    """Raise ``ValueError`` unless two series cover identical timestamps."""
    if a.start != b.start or len(a) != len(b):
        raise ValueError(
            f"series grids differ: [{a.start},{a.end}) vs [{b.start},{b.end})"
        )
