"""Property-based tests for the slave's streaming interface.

The incremental engine's correctness rests on one invariant: the order
in which independent (component, metric) streams are interleaved must
not matter — each stream's model sees exactly its own samples in order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.common.types import Metric
from repro.core.fchain import FChainSlave

series = arrays(
    dtype=float,
    shape=st.shared(st.integers(5, 120), key="len"),
    elements=st.floats(0, 1e4, allow_nan=False, allow_infinity=False),
)

KEYS = (
    ("a", Metric.CPU_USAGE),
    ("a", Metric.MEMORY_USAGE),
    ("b", Metric.CPU_USAGE),
)


def _streams_of(slave):
    return {
        key: np.array(slave.errors_for(*key), copy=True)
        for key in KEYS
        if slave.errors_for(*key) is not None
    }


class TestInterleavingInvariance:
    @given(
        data=st.fixed_dictionaries({key: series for key in KEYS}),
        order=st.permutations(range(len(KEYS))),
    )
    @settings(max_examples=25, deadline=None)
    def test_interleaved_equals_per_stream_replay(self, data, order):
        """Round-robin interleaving across streams (in any stream order)
        produces the same error buffers as replaying each stream alone."""
        reference = FChainSlave()
        for key in KEYS:
            component, metric = key
            reference.observe_many(component, metric, data[key])

        interleaved = FChainSlave()
        length = len(next(iter(data.values())))
        for i in range(length):
            for key_index in order:
                component, metric = KEYS[key_index]
                interleaved.observe_many(component, metric, (data[KEYS[key_index]][i],))

        expected = _streams_of(reference)
        actual = _streams_of(interleaved)
        assert expected.keys() == actual.keys()
        for key in expected:
            np.testing.assert_array_equal(
                actual[key], expected[key], err_msg=str(key)
            )

    @given(data=series, split=st.integers(0, 120))
    @settings(max_examples=25, deadline=None)
    def test_observe_many_equals_repeated_observe(self, data, split):
        """Batched feeding is sample-for-sample identical to single
        observes, regardless of how the batch is split."""
        split = min(split, len(data))
        one_by_one = FChainSlave()
        for value in data:
            one_by_one.observe_many("c", Metric.CPU_USAGE, (float(value),))
        batched = FChainSlave()
        batched.observe_many("c", Metric.CPU_USAGE, data[:split])
        batched.observe_many("c", Metric.CPU_USAGE, data[split:])
        key = ("c", Metric.CPU_USAGE)
        np.testing.assert_array_equal(
            batched.errors_for(*key), one_by_one.errors_for(*key)
        )
        assert len(batched.errors_for(*key)) == len(data)
