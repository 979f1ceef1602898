"""Property-based proof that the model bank is the scalar rule, side by side.

A slave keeps every series' Markov model in one
:class:`~repro.core.prediction.ModelBank` and advances it four ways:
one sample for many rows (``advance_tick``, the warm service loop), a
few such ticks in a row (the catch-up after a diagnosis), a chunk of
samples for one row (``update_many_gapped``, history replay), and a
block of ticks for many rows at once (``advance_block``, a deferred
sync). Whatever mix of the four a run happens to use, every row must
end up *bit for
bit* where a lone :class:`~repro.core.prediction.MarkovPredictor` fed
the same samples through ``step`` ends up — error stream and every
array of model state, compared with no tolerance.

The strategies aim at the places the series axis could diverge: short
halflives and warmups (halvings and grid freezes land mid-run, at
different ticks per row because gaps delay them), NaN gap markers, a
constant series (a degenerate or tiny grid), astronomically large
outliers (the overflow clamp), and a series that first appears late
(rows are added, and the arrays reallocated, mid-run).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.prediction import MarkovPredictor, ModelBank
from tests.properties.test_update_many_properties import (
    _assert_same_state,
    _scalar_reference,
)

MAX_SERIES, MAX_TICKS = 8, 400

shapes = st.tuples(st.integers(1, MAX_SERIES), st.integers(1, MAX_TICKS))

streams = shapes.flatmap(
    lambda shape: st.tuples(
        arrays(
            dtype=float,
            shape=shape,
            elements=st.one_of(
                st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
                st.just(np.nan),
            ),
        ),
        arrays(dtype=bool, shape=shape, elements=st.booleans()),
    )
)

bank_params = st.fixed_dictionaries(
    {
        "bins": st.integers(2, 12),
        "halflife": st.integers(5, 50),
        "warmup": st.integers(2, 20),
        "headroom": st.sampled_from([0.0, 0.75]),
    }
)

#: One step of a run: ``(kind, a, b)`` — see ``_run_schedule``.
operations = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 255), st.integers(0, 255)),
    min_size=1,
    max_size=40,
)


def _run_schedule(bank, data, schedule, late_after):
    """Feed ``data[row]`` to bank row ``row`` for every row, advancing
    by whatever mix of axes ``schedule`` dictates; returns the errors.

    The last series only gets its row after ``late_after`` operations.
    Each operation makes progress while any sample is left:

    * kind 0 — one tick for every row with samples left;
    * kind 1 — a catch-up of ``b % 6 + 2`` ticks for the rows picked by
      bit mask ``a`` (all of them when the mask picks none);
    * kind 2 — a chunk of ``b % 60 + 1`` samples for one row along the
      time axis;
    * kind 3 — a block of up to ``b % 60 + 1`` ticks (as many as every
      picked row has left) for the rows picked by bit mask ``a`` (all
      of them when the mask picks none), each from its own cursor, in
      one ``advance_block`` call.
    """
    series, ticks = data.shape
    cursors = np.zeros(series, dtype=int)
    errors = np.full(data.shape, np.nan)
    early = series - 1 if series > 1 else series
    for _ in range(early):
        bank.add_row()

    def tick(rows):
        rows = rows[cursors[rows] < ticks]
        if len(rows) == 0:
            return
        at = cursors[rows]
        errors[rows, at] = bank.advance_tick(rows, data[rows, at])
        cursors[rows] += 1

    for count, (kind, a, b) in enumerate(itertools.cycle(schedule)):
        if count == late_after and bank.size < series:
            bank.add_row()
        live = np.flatnonzero(cursors[: bank.size] < ticks)
        if len(live) == 0:
            if bank.size == series:
                break
            continue
        if kind == 0:
            tick(live)
        elif kind == 1:
            picked = live[(a >> live) & 1 == 1]
            for _ in range(b % 6 + 2):
                tick(picked if len(picked) else live)
        elif kind == 2:
            row = int(live[a % len(live)])
            lo = cursors[row]
            hi = min(ticks, lo + b % 60 + 1)
            errors[row, lo:hi] = bank.update_many_gapped(row, data[row, lo:hi])
            cursors[row] = hi
        else:
            picked = live[(a >> live) & 1 == 1]
            rows = picked if len(picked) else live
            width = min(b % 60 + 1, int((ticks - cursors[rows]).min()))
            at = cursors[rows][:, None] + np.arange(width)
            errors[rows[:, None], at] = bank.advance_block(
                rows, data[rows[:, None], at]
            )
            cursors[rows] += width
    return errors


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e308 outliers overflow
@given(
    params=bank_params,
    drawn=streams,
    constant=st.sampled_from([0.0, 5.0]),
    outlier_at=st.integers(0, MAX_TICKS - 1),
    schedule=operations,
    late_after=st.integers(0, 60),
)
@settings(max_examples=120, deadline=None)
def test_any_mix_of_axes_matches_per_series_scalar_loops(
    params, drawn, constant, outlier_at, schedule, late_after
):
    values, holes = drawn
    data = np.where(holes, np.nan, values)
    series, ticks = data.shape
    # Row 0 is constant: a zero-span grid without headroom, a tiny one
    # around 0.0 with it — which the outlier then overflows.
    data[0] = np.where(np.isnan(data[0]), np.nan, constant)
    outlier_at %= ticks
    data[0, outlier_at] = 1.7e308
    data[series - 1, (outlier_at * 7 + 3) % ticks] = -1.7e308

    bank = ModelBank(**params)
    errors = _run_schedule(bank, data, schedule, late_after)

    assert bank.size == series
    for row in range(series):
        reference, expected = _scalar_reference(params, data[row])
        np.testing.assert_array_equal(errors[row], expected, err_msg=f"row {row}")
        _assert_same_state(MarkovPredictor.on(bank, row), reference)
