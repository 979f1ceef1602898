"""Property-based proof that the one-draw bootstrap is the shuffle loop.

``_bootstrap_confidence`` draws all permutations of one significance test
with a single ``Generator.permuted`` call and composes them by prefix
doubling. The reference it must equal, kept here verbatim, is the loop it
replaced: ``bootstraps`` sequential in-place ``shuffle`` calls on one work
buffer. Equal means bit for bit: the same confidence, the same change
points from ``detect_change_points`` (compared with ``==``) and the same
``bit_generator.state`` afterwards, so every later draw of the stream is
unchanged too.

The strategies aim at where the two could part: segment lengths from 2
up, bootstrap counts on and off powers of two (the doubling's last step
is partial), tied values (permutation spreads equal to the observed one
test the strict ``<``), constant segments (the ``spread == 0`` early
return must draw nothing) and generators pre-advanced by 0–7 32-bit
draws (an odd count leaves a buffered half word that the bounded
Fisher–Yates consumes first).

``moving_average`` lost its per-sample loop in the same change; the loop
is kept here too and the vectorized form must match it bit for bit.
"""

from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import spawn_rng
from repro.common.timeseries import TimeSeries
from repro.core.cusum import (
    ChangePoint,
    _bootstrap_confidence,
    _cusum_peak,
    detect_change_points,
)
from repro.core.smoothing import moving_average

BOOTSTRAPS = [1, 2, 3, 7, 64, 120, 128, 200]


def _loop_bootstrap_confidence(values, spread, bootstraps, rng):
    """The reference: one ``rng.shuffle`` call per permutation."""
    if spread == 0.0:
        return 0.0
    work = values.copy()
    permutations = np.empty((bootstraps, len(values)))
    for i in range(bootstraps):
        rng.shuffle(work)
        permutations[i] = work
    deviations = permutations - permutations.mean(axis=1, keepdims=True)
    tracks = np.cumsum(deviations, axis=1)
    spreads = tracks.max(axis=1) - tracks.min(axis=1)
    return int(np.count_nonzero(spreads < spread)) / bootstraps


def _loop_detect_change_points(
    series, *, bootstraps=120, confidence=0.95, min_segment=5, seed=0
) -> List[ChangePoint]:
    """The reference segmentation, driving the loop bootstrap."""
    rng = spawn_rng("cusum", seed)
    values = series.values
    found: List[ChangePoint] = []

    def split(lo, hi):
        segment = values[lo:hi]
        if len(segment) < 2 * min_segment:
            return
        peak, spread = _cusum_peak(segment)
        conf = _loop_bootstrap_confidence(segment, spread, bootstraps, rng)
        if conf < confidence:
            return
        index = lo + peak
        if index - lo < min_segment or hi - index < min_segment:
            return
        before = values[lo:index]
        after = values[index:hi]
        found.append(
            ChangePoint(
                time=series.start + index,
                index=index,
                confidence=conf,
                magnitude=float(abs(after.mean() - before.mean())),
                direction=1 if after.mean() >= before.mean() else -1,
            )
        )
        split(lo, index)
        split(index, hi)

    split(0, len(values))
    found.sort(key=lambda cp: cp.time)
    return found


def _loop_moving_average(values, window):
    """The reference smoother: one prefix-sum mean per sample."""
    values = np.asarray(values, dtype=float)
    if window <= 1 or len(values) <= 2:
        return values.copy()
    half = max(1, window // 2)
    out = np.empty_like(values)
    n = len(values)
    csum = np.concatenate([[0.0], np.cumsum(values)])
    for i in range(n):
        radius = min(half, i, n - 1 - i)
        lo, hi = i - radius, i + radius + 1
        out[i] = (csum[hi] - csum[lo]) / (hi - lo)
    return out


@st.composite
def segments(draw, min_size=2, max_size=220):
    """Random, tied, constant, ramp and step segments."""
    n = draw(st.integers(min_size, max_size))
    kind = draw(st.sampled_from(["random", "tied", "constant", "ramp", "step"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(draw(st.floats(-1e3, 1e3)), draw(st.floats(0.01, 50)), n)
    if kind == "tied":
        return rng.integers(0, draw(st.integers(1, 4)), n).astype(float)
    if kind == "constant":
        return np.full(n, float(draw(st.integers(-5, 5))))
    if kind == "ramp":
        return np.arange(n, dtype=float) * draw(st.floats(-3, 3))
    at = draw(st.integers(0, n))
    values = rng.normal(10, 1, n)
    values[at:] += draw(st.floats(-20, 20))
    return values


def _generators(seed, advance):
    """Two identical generators, each pre-advanced by ``advance`` 32-bit draws."""
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        rng.random(advance, dtype=np.float32)
        pair.append(rng)
    return pair


@settings(max_examples=300, deadline=None)
@given(
    values=segments(),
    bootstraps=st.sampled_from(BOOTSTRAPS),
    seed=st.integers(0, 2**32 - 1),
    advance=st.integers(0, 7),
)
def test_bootstrap_confidence_equals_shuffle_loop(values, bootstraps, seed, advance):
    _, spread = _cusum_peak(values)
    fast_rng, loop_rng = _generators(seed, advance)
    fast = _bootstrap_confidence(values, spread, bootstraps, fast_rng)
    loop = _loop_bootstrap_confidence(values, spread, bootstraps, loop_rng)
    assert fast == loop
    assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
    # The next draw proves the streams continue identically.
    assert fast_rng.integers(0, 2**62) == loop_rng.integers(0, 2**62)


@settings(max_examples=150, deadline=None)
@given(
    values=segments(min_size=10),
    bootstraps=st.sampled_from(BOOTSTRAPS),
    min_segment=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    start=st.integers(-1_000, 1_000),
)
def test_detect_change_points_equals_shuffle_loop(
    values, bootstraps, min_segment, seed, start
):
    series = TimeSeries(values, start=start)
    fast = detect_change_points(
        series, bootstraps=bootstraps, min_segment=min_segment, seed=seed
    )
    loop = _loop_detect_change_points(
        series, bootstraps=bootstraps, min_segment=min_segment, seed=seed
    )
    assert fast == loop


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(
        segments(min_size=0, max_size=400),
        st.lists(
            st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
            max_size=60,
        ).map(lambda xs: np.asarray(xs, dtype=float)),
    ),
    window=st.integers(-1, 40),
)
def test_moving_average_equals_loop(values, window):
    fast = moving_average(values, window)
    loop = _loop_moving_average(values, window)
    assert fast.dtype == loop.dtype
    assert fast.tobytes() == loop.tobytes()
