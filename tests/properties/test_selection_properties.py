"""Property-based proof that the selection screen never drops a verdict.

:func:`~repro.core.selection.selection_screened` lets a window skip CUSUM
and its bootstrap when no change point — wherever CUSUM put it — could
pass the PAL floor or the prediction-error test. It is sound only if,
whenever it says "empty", the full pipeline run on the same window also
selects nothing. These properties check exactly that, and that the
screened entry point (``detected`` omitted) equals the unscreened one
(``detected`` computed by :func:`detect_window_change_points`) bit for
bit on every window, screened or not.

The strategies aim at where the bounds are tight: step sizes just
either side of the PAL floor, constant windows, errors at exactly
``margin x`` the routine level (the test is ``<=``) and a hair above it,
NaN errors, exact zeros (sign 0 matches neither direction), and error
histories with fewer than 20 same-sign entries (the routine level is
then 0, so only all-zero or absent errors may screen).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timeseries import TimeSeries
from repro.common.types import Metric
from repro.core.config import FChainConfig
from repro.core.selection import (
    detect_window_change_points,
    history_error_references,
    select_abnormal_changes,
    selection_screened,
    smooth_window,
)

#: Cheap bootstraps: the bounds hold for any bootstrap count.
CONFIG = FChainConfig(cusum_bootstraps=40)
METRIC = Metric.CPU_USAGE
MARGIN = CONFIG.prediction_error_margin
#: Ratios of a step to the PAL floor, dense around 1.
FLOOR_RATIOS = st.one_of(
    st.sampled_from([1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1e-12, 1 + 1e-12]),
    st.floats(0.8, 1.25),
)
#: Error sizes as a fraction of ``margin x`` the routine level.
WITHIN_BOUND = st.one_of(st.sampled_from([1.0, 0.0]), st.floats(0.0, 1.0))
ERROR_FRACTIONS = st.one_of(
    WITHIN_BOUND, st.just(1 + 1e-12), st.floats(1.0, 1.5)
)

#: Spreads of the history's errors, per direction.
ROUTINE_SCALES = st.sampled_from([0.05, 0.5, 5.0, 50.0])


@st.composite
def windows(draw):
    """A raw look-back window and the raw history preceding it."""
    n = draw(st.integers(2 * CONFIG.min_segment, 70))
    kind = draw(st.sampled_from(["constant", "near_floor", "step", "noisy"]))
    level = draw(st.one_of(st.just(0.0), st.floats(0.5, 200.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.full(n, level)
    at = draw(st.integers(1, n - 1))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "near_floor":
        values[at:] += sign * draw(FLOOR_RATIOS) * 0.15 * level
    elif kind == "step":
        values[at:] += sign * draw(st.floats(0.0, 3.0)) * max(level, 1.0)
    elif kind == "noisy":
        values += rng.normal(0.0, draw(st.floats(0.01, 5.0)), n)
        values[at:] += sign * draw(st.floats(0.0, 2.0)) * max(level, 1.0)
    h = draw(st.integers(0, 80))
    history = level + rng.normal(0.0, draw(st.floats(0.0, 2.0)), h)
    return TimeSeries(history, start=-h), TimeSeries(values, start=0)


@st.composite
def error_streams(draw, n, h):
    """Signed window errors sized against the history's routine levels."""
    positives = draw(st.integers(0, min(h, 40)))
    negatives = draw(st.integers(0, min(h, 40) - min(positives, h)))
    # Each direction's routine level is drawn on its own, decades apart,
    # so an opposite-sign error can dwarf a change's own-sign bound.
    up, down = draw(ROUTINE_SCALES), draw(ROUTINE_SCALES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    history_errors = np.zeros(h)
    history_errors[:positives] = np.abs(rng.normal(0.0, up, positives))
    history_errors[positives : positives + negatives] = -np.abs(
        rng.normal(0.0, down, negatives)
    )
    if h and draw(st.booleans()):
        history_errors[rng.integers(0, h, 3)] = np.nan
    rng.shuffle(history_errors)
    references = history_error_references(
        history_errors, CONFIG.history_error_percentile
    )
    # Per case: which kinds of error occur (a window may hold only
    # errors against a change's sign) and whether any may overshoot.
    kinds = draw(
        st.lists(
            st.sampled_from(["nan", "zero", "up", "down"]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    fractions = ERROR_FRACTIONS if draw(st.booleans()) else WITHIN_BOUND
    errors = np.empty(n)
    for i in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "nan":
            errors[i] = np.nan
        elif kind == "zero":
            errors[i] = 0.0
        else:
            direction = 1 if kind == "up" else -1
            scale = MARGIN * references[direction]
            errors[i] = direction * draw(fractions) * scale
    return errors, history_errors


@st.composite
def cases(draw):
    history, raw = draw(windows())
    errors, history_errors = draw(error_streams(len(raw), len(history)))
    return raw, history, errors, history_errors


@settings(max_examples=300, deadline=None)
@given(case=cases(), seed=st.integers(0, 1_000))
def test_screened_windows_select_nothing(case, seed):
    raw, history, errors, history_errors = case
    references = history_error_references(
        history_errors, CONFIG.history_error_percentile
    )
    detected = detect_window_change_points(raw, METRIC, CONFIG, seed=seed)
    unscreened = select_abnormal_changes(
        raw, history, METRIC, CONFIG, seed=seed, errors=errors,
        history_errors=history_errors, detected=detected,
    )
    screened = select_abnormal_changes(
        raw, history, METRIC, CONFIG, seed=seed, errors=errors,
        history_errors=history_errors,
    )
    assert screened == unscreened
    if selection_screened(smooth_window(raw, CONFIG), errors, references, CONFIG):
        assert unscreened == []


ROUTINE = 5.0


def _step_case(error_scale):
    """A clear 12-unit step at tick 30 of a 60-tick window, with a
    history whose routine error level is exactly 5 in both directions —
    above the step's burst threshold (about 4.4), so it is the binding
    expected error."""
    raw = np.full(60, 20.0)
    raw[30:] += 12.0
    history_errors = np.tile([ROUTINE, -ROUTINE], 40)
    errors = np.zeros(60)
    errors[30] = error_scale * MARGIN * ROUTINE
    return (
        TimeSeries(raw, start=0),
        TimeSeries(np.full(80, 20.0), start=-80),
        errors,
        history_errors,
    )


def test_error_at_margin_screens_and_above_it_selects():
    """The screen's error bound is tight: an error of exactly ``margin x``
    the routine level is rejected by selection (``<=``) and screened;
    one ulp above is neither."""
    references = {1: ROUTINE, -1: ROUTINE}
    for scale, expect_screened in ((1.0, True), (np.nextafter(1.0, 2.0), False)):
        raw, history, errors, history_errors = _step_case(scale)
        smoothed = smooth_window(raw, CONFIG)
        assert selection_screened(smoothed, errors, references, CONFIG) is (
            expect_screened
        )
        detected = detect_window_change_points(raw, METRIC, CONFIG)
        assert detected[1], "the step must give CUSUM a point to test"
        changes = select_abnormal_changes(
            raw, history, METRIC, CONFIG, errors=errors,
            history_errors=history_errors, detected=detected,
        )
        assert (changes == []) is expect_screened


def test_opposite_sign_errors_count_when_none_match():
    """An upward change whose forward window holds only a downward error
    is judged on that error (the unsigned fallback), so the screen must
    bound it against the upward routine level — here 0, since the
    history has no upward errors — not the far larger downward one."""
    raw, history, errors, _ = _step_case(0.0)
    errors[30] = -6.0
    history_errors = np.full(80, -10.0)
    references = history_error_references(
        history_errors, CONFIG.history_error_percentile
    )
    assert references == {1: 0.0, -1: 10.0}
    assert not selection_screened(
        smooth_window(raw, CONFIG), errors, references, CONFIG
    )
    changes = select_abnormal_changes(
        raw, history, METRIC, CONFIG, errors=errors,
        history_errors=history_errors,
    )
    assert [change.direction for change in changes] == [1]


def test_constant_window_screens_on_the_pal_floor():
    raw = TimeSeries(np.full(40, 7.5), start=0)
    errors = np.full(40, 1e6)
    assert selection_screened(
        smooth_window(raw, CONFIG), errors, {1: 0.0, -1: 0.0}, CONFIG
    )
