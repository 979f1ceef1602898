"""Property-based guarantees of the data-quality resilience layer.

Three contracts, each checked over generated inputs:

1. **Zero corruption is invisible** — replaying any clean store through
   the tolerant ingestion path yields a bit-identical ``Diagnosis``
   (same faulty set, chain, reports) and full-confidence quality.
2. **Fills never fabricate** — interpolation stays inside the observed
   min/max of the series; a repair can smooth a hole, never invent an
   excursion.
3. **Coverage is monotone in loss** — adding gaps (supersets of missing
   slots) can only lower a window's coverage ratio, never raise it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.common.timeseries import TimeSeries, fill_gaps
from repro.common.types import Metric
from repro.core.config import FChainConfig
from repro.core.fchain import FChain
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import MetricStore

#: Cheap bootstraps keep each generated diagnosis fast.
CONFIG = FChainConfig(cusum_bootstraps=20)

finite_values = arrays(
    dtype=float,
    shape=st.integers(20, 120),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def _store_pair(seed):
    """A clean synthetic faulty store plus its tolerant-ingest replay."""
    rng = np.random.default_rng(seed)
    samples = 220
    data = {}
    for i in range(3):
        cpu = 30 + rng.normal(0, 1.5, samples)
        if i == 1:
            cpu[-60:] += np.linspace(0, 35, 60)
        data[f"comp-{i}"] = {Metric.CPU_USAGE: cpu}
    plain = MetricStore.from_arrays(data)
    tolerant = MetricStore(policy=DataQualityPolicy())
    for component, metrics in data.items():
        for metric, values in metrics.items():
            for t, value in enumerate(values):
                tolerant.ingest(component, metric, t, float(value))
    tolerant.advance_to(samples)
    return plain, tolerant


class TestZeroCorruptionBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_tolerant_replay_matches_plain_store(self, seed):
        plain, tolerant = _store_pair(seed)
        violation = plain.end - 5
        with FChain(CONFIG) as fchain:
            baseline = fchain.localize(plain, violation_time=violation)
        with FChain(CONFIG) as fchain:
            replayed = fchain.localize(tolerant, violation_time=violation)
        assert replayed.result == baseline.result
        assert replayed.confidence == "full"
        assert all(r.clean for r in replayed.quality.values())


@st.composite
def holey_arrays(draw):
    values = draw(finite_values)
    n = len(values)
    holes = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 2, unique=True)
    )
    out = values.copy()
    out[holes] = np.nan
    # Keep at least one observation or there is nothing to fill from.
    if np.isnan(out).all():
        out[draw(st.integers(0, n - 1))] = values[0]
    return out


class TestFillsNeverFabricate:
    @settings(max_examples=200, deadline=None)
    @given(values=holey_arrays(), max_gap=st.integers(0, 20))
    def test_filled_values_stay_inside_observed_range(self, values, max_gap):
        observed = values[np.isfinite(values)]
        filled, n_filled, n_missing = fill_gaps(values.copy(), max_gap=max_gap)
        repaired = filled[np.isfinite(filled)]
        assert repaired.min() >= observed.min()
        assert repaired.max() <= observed.max()
        # Accounting closes: every original hole is either repaired or
        # still missing.
        assert n_filled + n_missing == np.isnan(values).sum()
        assert np.isnan(filled).sum() == n_missing
        # Observed samples are untouched by the repair.
        mask = np.isfinite(values)
        np.testing.assert_array_equal(filled[mask], values[mask])


class TestCoverageMonotonicity:
    @settings(max_examples=150, deadline=None)
    @given(
        values=finite_values,
        seed=st.integers(0, 2**31 - 1),
        p1=st.floats(0.0, 1.0),
        p2=st.floats(0.0, 1.0),
    )
    def test_more_gaps_never_raise_coverage(self, values, seed, p1, p2):
        lo, hi = sorted((p1, p2))
        u = np.random.default_rng(seed).random(len(values))
        light = values.copy()
        light[u < lo] = np.nan
        heavy = values.copy()
        heavy[u < hi] = np.nan  # superset of the light mask
        cov_light = TimeSeries(light, start=0).coverage()
        cov_heavy = TimeSeries(heavy, start=0).coverage()
        assert cov_heavy <= cov_light
        assert 0.0 <= cov_heavy <= cov_light <= 1.0
