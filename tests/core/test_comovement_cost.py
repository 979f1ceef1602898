"""A perf gate that no host can blur: calls per edge in a co-movement tick.

Wall time on a shared machine drifts by tens of percent between runs;
the number of Python and C calls one warm ``observe_comovement`` tick
makes does not. The learner scores every known edge of a tick with one
gathered row product, so ten times as many edges must cost barely more
*calls* — the work per added edge is array elements, not function
calls. The gate fails the day someone reintroduces a per-edge loop (a
``np.corrcoef`` or a scalar EWMA step per edge).
"""

import sys

import numpy as np

from repro.core.topology import OnlineTopology

COMPONENTS = 100
WINDOW = 32
MAX_CALLS_PER_ADDED_EDGE = 1


def _calls_in_one_warm_tick(edges: int) -> int:
    """``call`` + ``c_call`` events of one steady-state co-movement tick."""
    rng = np.random.default_rng(edges)
    names = [f"svc{i:03d}" for i in range(COMPONENTS)]
    pairs = set()
    while len(pairs) < edges:
        src, dst = rng.choice(COMPONENTS, size=2, replace=False)
        pairs.add((names[src], names[dst]))
    topology = OnlineTopology(halflife=300.0, comovement_window=WINDOW)
    topology.observe_traffic(0, dict.fromkeys(sorted(pairs), 1.0))
    signals = rng.normal(50, 5, (WINDOW + 2, COMPONENTS))
    for tick in range(1, WINDOW + 1):
        topology.observe_comovement(tick, dict(zip(names, signals[tick])))
    last = dict(zip(names, signals[WINDOW + 1]))

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        topology.observe_comovement(WINDOW + 1, last)
    finally:
        sys.setprofile(None)
    assert len(topology) == edges
    return calls


def test_marginal_calls_per_edge_stay_flat():
    small, large = 50, 500
    few = _calls_in_one_warm_tick(small)
    many = _calls_in_one_warm_tick(large)
    per_edge = (many - few) / (large - small)
    assert per_edge <= MAX_CALLS_PER_ADDED_EDGE, (
        f"{few} calls at {small} edges, {many} at {large}: "
        f"{per_edge:.1f} per added edge"
    )
