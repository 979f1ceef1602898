"""Property-based proof that ``update_many`` is the scalar path, batched.

The fleet-scale ingest path rests on one claim: feeding a model any
chunking of a sample stream through
:meth:`~repro.core.prediction.MarkovPredictor.update_many` is
*bit-identical* to feeding the samples one at a time through ``step`` —
errors and every piece of internal state. The strategies deliberately
cross the hard boundaries: chunks that straddle the warmup/grid-freeze
point, halflives small enough that several halvings land inside one
chunk, zero headroom (degenerate one-point grids), and values far
outside the frozen grid (edge-bin clamping). NaN gap markers get the
same treatment through ``update_many_gapped``: a gap severs the chain
wherever the chunk boundaries fall — including a chunk that is nothing
but gap.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.prediction import MarkovPredictor

values_arrays = arrays(
    dtype=float,
    shape=st.integers(1, 160),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)

#: The same streams with NaN gap markers punched in (runs and singles).
gapped_arrays = st.builds(
    lambda data, holes: np.where(holes[: len(data)], np.nan, data),
    values_arrays,
    arrays(dtype=bool, shape=160, elements=st.booleans()),
)

model_params = st.fixed_dictionaries(
    {
        "bins": st.integers(2, 12),
        "halflife": st.integers(1, 30),
        "warmup": st.integers(2, 25),
        "headroom": st.sampled_from([0.0, 0.25, 0.75]),
    }
)


def _scalar_reference(params, data):
    """The ground truth: one ``step`` per sample, None mapped to NaN."""
    model = MarkovPredictor(**params)
    errors = np.full(len(data), np.nan)
    for i, value in enumerate(data):
        delta = model.step(float(value))
        if delta is not None:
            errors[i] = delta
    return model, errors


def _state_of(model):
    """Every piece of one model's state, read off its bank row."""
    bank, row = model.bank, model.row
    state = {name: np.array(getattr(bank, name)[row]) for name in bank.ARRAYS}
    state["warmup_values"] = np.array(bank.warmup_values[row])
    return state


def _assert_same_state(batched, reference):
    actual, expected = _state_of(batched), _state_of(reference)
    for name in expected:
        np.testing.assert_array_equal(
            actual[name], expected[name], err_msg=name
        )


class TestUpdateManyEquivalence:
    @given(
        params=model_params,
        data=values_arrays,
        cuts=st.lists(st.integers(0, 160), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_matches_scalar_loop(self, params, data, cuts):
        """Every chunking — including chunks that straddle warmup and
        halving points — reproduces the scalar feed bit for bit."""
        reference, expected = _scalar_reference(params, data)

        batched = MarkovPredictor(**params)
        bounds = sorted({min(c, len(data)) for c in cuts} | {0, len(data)})
        chunks = [
            batched.update_many(data[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        actual = (
            np.concatenate(chunks) if chunks else np.empty(0)
        )

        np.testing.assert_array_equal(actual, expected)
        _assert_same_state(batched, reference)

    @given(params=model_params, data=values_arrays)
    @settings(max_examples=40, deadline=None)
    def test_single_chunk_matches_scalar_loop(self, params, data):
        """The whole stream in one call — the ingest benchmark's shape."""
        reference, expected = _scalar_reference(params, data)
        batched = MarkovPredictor(**params)
        np.testing.assert_array_equal(batched.update_many(data), expected)
        _assert_same_state(batched, reference)

    @given(
        constant=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        tail=values_arrays,
        halflife=st.integers(1, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_degenerate_grid_matches_scalar_loop(self, constant, tail, halflife):
        """Zero headroom + constant warmup freezes a one-point grid; the
        batch path must clamp through it exactly like the scalar path."""
        params = {"bins": 6, "halflife": halflife, "warmup": 4, "headroom": 0.0}
        data = np.concatenate([np.full(4, constant), tail])
        reference, expected = _scalar_reference(params, data)
        batched = MarkovPredictor(**params)
        np.testing.assert_array_equal(batched.update_many(data), expected)
        _assert_same_state(batched, reference)

    @given(
        params=model_params,
        data=gapped_arrays,
        cuts=st.lists(st.integers(0, 160), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_chunking_of_a_gapped_stream_matches_scalar_loop(
        self, params, data, cuts
    ):
        """Gap markers sever the chain identically under every chunking
        — a NaN delivered as a chunk of its own included."""
        reference, expected = _scalar_reference(params, data)

        batched = MarkovPredictor(**params)
        bounds = sorted({min(c, len(data)) for c in cuts} | {0, len(data)})
        actual = np.concatenate(
            [
                batched.update_many_gapped(data[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])
            ]
        )

        np.testing.assert_array_equal(actual, expected)
        _assert_same_state(batched, reference)

    def test_lone_gap_chunk_severs_the_chain(self):
        """The pinned case: ``[a], [nan], [b]`` must leave the state
        ``[a, nan], [b]`` leaves — no transition learned across the gap."""
        warm = list(np.linspace(10.0, 20.0, 12))
        joined = MarkovPredictor(bins=8, warmup=10)
        joined.update_many_gapped(np.array(warm + [np.nan]))
        joined_error = joined.update_many_gapped(np.array([12.0]))
        split = MarkovPredictor(bins=8, warmup=10)
        split.update_many_gapped(np.array(warm))
        split.update_many_gapped(np.array([np.nan]))
        split_error = split.update_many_gapped(np.array([12.0]))
        np.testing.assert_array_equal(split_error, joined_error)
        assert np.isnan(split_error[0])
        _assert_same_state(split, joined)
