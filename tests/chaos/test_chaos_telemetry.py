"""Chaos suite: seeded telemetry corruption against the full pipeline.

Each test corrupts a real faulty application run (the session-scoped
RUBiS CpuHog) with one defect class — random gaps, NaN bursts, clock
skew, delayed out-of-order delivery, VM churn — plus a kitchen-sink mix,
and asserts the resilience-layer contract:

* the diagnosis never raises;
* the output is deterministic per seed (same spec ⇒ same stored data
  and the same ``PinpointResult``);
* every component carries a populated ``DataQualityReport``;
* the verdict is either the correct localization or explicitly hedged —
  a component the layer could not examine appears in ``skipped`` with a
  reason, never silently exonerated.

Seeds come from ``FCHAIN_CHAOS_SEEDS`` (comma-separated, default
``11,23,47``) so CI can pin or rotate them without code changes.
"""

import os

import numpy as np
import pytest

from repro.apps.rubis import DB
from repro.core.config import FChainConfig
from repro.core.fchain import FChain
from repro.eval.chaos import ChaosSpec, corrupt_store
from repro.monitoring.store import KIND_MISSING

#: Cheap bootstraps: chaos coverage does not need tight CUSUM intervals.
CONFIG = FChainConfig(cusum_bootstraps=40)

SEEDS = [
    int(s)
    for s in os.environ.get("FCHAIN_CHAOS_SEEDS", "11,23,47").split(",")
    if s.strip()
]

DEFECTS = {
    "gaps": dict(gap_fraction=0.10),
    "nan-burst": dict(nan_fraction=0.08),
    "skew": dict(max_skew=5),
    "delay": dict(delay_fraction=0.10, delay_max=4),
    "churn": dict(churn=2, churn_max=60),
    "mix": dict(
        gap_fraction=0.05,
        nan_fraction=0.03,
        max_skew=3,
        delay_fraction=0.05,
        churn=1,
    ),
}


def _localize(store, violation, graph=None):
    with FChain(CONFIG, dependency_graph=graph) as fchain:
        return fchain.localize(store, violation_time=violation)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("defect", sorted(DEFECTS))
class TestDefectClasses:
    def test_survives_and_hedges(self, rubis_cpuhog_run, defect, seed):
        app, violation = rubis_cpuhog_run
        spec = ChaosSpec(seed=seed, **DEFECTS[defect])
        store = corrupt_store(app.store, spec)
        diagnosis = _localize(store, violation)

        # Every component's report carries a populated quality summary.
        assert set(diagnosis.quality) == set(store.components)
        for component, report in diagnosis.quality.items():
            assert report.component == component
            assert report.samples_expected > 0
            assert 0.0 <= report.coverage <= 1.0
            assert report.confidence in ("full", "degraded", "inconclusive")

        # The verdict is the true culprit or an explicit hedge — never a
        # wrong component presented with full confidence.
        if DB in diagnosis.faulty:
            assert True
        elif DB in diagnosis.skipped:
            assert diagnosis.skipped_reasons[DB]
            assert diagnosis.confidence != "full"
        else:
            assert diagnosis.is_inconclusive or not diagnosis.faulty

    def test_deterministic_per_seed(self, rubis_cpuhog_run, defect, seed):
        app, violation = rubis_cpuhog_run
        spec = ChaosSpec(seed=seed, **DEFECTS[defect])
        first = corrupt_store(app.store, spec)
        second = corrupt_store(app.store, spec)
        for component in first.components:
            for metric in first.metrics_for(component):
                np.testing.assert_array_equal(
                    first.series(component, metric).values,
                    second.series(component, metric).values,
                )
        assert (
            _localize(first, violation).result
            == _localize(second, violation).result
        )


class TestZeroCorruption:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ingest_replay_is_bit_identical(self, rubis_cpuhog_run, seed):
        """A corruption-free replay must not perturb the diagnosis at all."""
        app, violation = rubis_cpuhog_run
        baseline = _localize(app.store, violation)
        replayed = corrupt_store(app.store, ChaosSpec(seed=seed))
        diagnosis = _localize(replayed, violation)
        assert diagnosis.result == baseline.result
        assert diagnosis.confidence == "full"
        assert all(report.clean for report in diagnosis.quality.values())


class TestTargetedChurn:
    def test_culprit_silent_across_window_is_surfaced_not_exonerated(
        self, rubis_cpuhog_run
    ):
        """VM churn blacking out the culprit's window must be hedged."""
        app, violation = rubis_cpuhog_run
        # Black out every db sample inside [t_v - W, t_v + grace].
        window = range(violation - CONFIG.look_back_window, violation + 9)
        silent = corrupt_store(app.store, ChaosSpec(seed=3))
        for metric in silent.metrics_for(DB):
            ring = silent._series[(DB, metric)]
            qual = silent._quality[(DB, metric)]
            for t in window:
                slot = t - silent.start
                in_range = ring.first <= slot < ring.head
                if in_range and not np.isnan(ring.value_at(slot)):
                    ring.write_at(slot, float("nan"))
                    ring.set_kind(slot, KIND_MISSING)
                    qual.observed -= 1
                    qual.missing += 1
        diagnosis = _localize(silent, violation)
        assert DB not in diagnosis.faulty
        assert DB in diagnosis.skipped
        assert "coverage" in diagnosis.skipped_reasons[DB]
        assert diagnosis.confidence in ("degraded", "inconclusive")
        assert diagnosis.quality[DB].confidence == "inconclusive"
