"""A perf gate that no host can blur: calls per bootstrap permutation.

Wall time on a shared machine drifts by tens of percent between runs;
the number of Python and C calls one significance test makes does not.
``_bootstrap_confidence`` draws every permutation of a test in one
``Generator.permuted`` call and composes them in a logarithmic number of
gathers, so doubling the bootstrap count must cost barely more *calls* —
the work per added permutation is array elements, not function calls.
The gate fails the day someone reintroduces a per-permutation
``shuffle`` loop.
"""

import sys

import numpy as np

from repro.core.cusum import _bootstrap_confidence, _cusum_peak

SEGMENT = 40
MAX_ADDED_CALLS = 10


def _calls_in_one_test(bootstraps: int) -> int:
    """``call`` + ``c_call`` events of one significance test."""
    values = np.random.default_rng(0).normal(10, 1, SEGMENT)
    values[SEGMENT // 2 :] += 3.0
    _, spread = _cusum_peak(values)
    rng = np.random.default_rng(1)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        confidence = _bootstrap_confidence(values, spread, bootstraps, rng)
    finally:
        sys.setprofile(None)
    assert confidence > 0.9
    return calls


def test_calls_do_not_grow_with_bootstraps():
    few = _calls_in_one_test(120)
    many = _calls_in_one_test(240)
    assert many - few <= MAX_ADDED_CALLS, (
        f"{few} calls at 120 bootstraps, {many} at 240: "
        f"{many - few} added for 120 more permutations"
    )
