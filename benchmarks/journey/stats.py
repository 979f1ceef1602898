"""Summary statistics the journey benchmark reports.

A timing is reported as its median plus *the highest percentile that
still has at least ten samples beyond it* — with 33 verdicts that is
p70, with 95 pushes p89 — and the sample count is printed beside both,
so a reader can tell a tail that rests on ten observations from one
that rests on a thousand.

On a shared host one stall of a few hundred milliseconds lands wholly
in the top percentile of a run. When a run has enough events, the tail
is therefore taken per *round* (the run cut into ``ROUNDS`` consecutive
parts, the rule above applied to each) and the median of the rounds is
reported: on the reference box that cut the run-to-run spread of the
push tail from 11 % to 4 %.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

import numpy as np

#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES_BEYOND = 10
#: Consecutive parts a long run is cut into for a steady tail.
ROUNDS = 10


def tail_percentile(n: int) -> float:
    """Highest percentile (0-100) with >= 10 of ``n`` samples beyond it.

    With fewer than twenty samples no percentile above the median
    qualifies; the median itself is returned so callers never report a
    "tail" that rests on fewer than ten observations.
    """
    if n < 2 * TAIL_SAMPLES_BEYOND:
        return 50.0
    return 100.0 * (n - TAIL_SAMPLES_BEYOND) / n


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    return float(np.percentile(values, q))


def median_and_tail(values: Sequence[float]) -> Tuple[float, float, str]:
    """``(median, tail value, how the tail was taken)`` of one timing
    sample, ``values`` in the order they were measured."""
    size = len(values) // ROUNDS
    if size < 2 * TAIL_SAMPLES_BEYOND:
        q = tail_percentile(len(values))
        how = f"p{q:.1f} of {len(values)}"
        return percentile(values, 50.0), percentile(values, q), how
    q = tail_percentile(size)
    tails = [
        percentile(values[start : start + size], q)
        for start in range(0, size * ROUNDS, size)
    ]
    how = f"p{q:.1f} of each {size}, median of {ROUNDS} rounds"
    return percentile(values, 50.0), statistics.median(tails), how


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The acceptance statistic of the benchmark contract: quartiles as
    ``statistics.quantiles(values, n=4)`` gives them.
    """
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else math.inf


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first
