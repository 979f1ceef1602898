"""Incremental engine equivalence.

The contract under test: the incremental engine (persistent slave state,
warm error streams, per-window caches) must produce *identical*
diagnoses to the original replay engine on the same data — same faulty
sets, same propagation chains (components and onset times), same
external-factor verdicts.
"""

import numpy as np
import pytest

from repro.apps.hadoop import MAPS, HadoopApplication
from repro.common.errors import DiagnosisError
from repro.common.types import METRIC_NAMES, Metric
from repro.core.config import FChainConfig
from repro.core.fchain import FChain, FChainMaster, FChainSlave
from repro.core.prediction import prediction_errors
from repro.core.selection import select_abnormal_changes
from repro.faults.library import InfiniteLoopFault
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore


def _append_ticks(store, component, values, start=0):
    """Strict per-tick ingest of one component's CPU series."""
    for i, value in enumerate(values):
        t = start + i
        store.ingest(
            IngestBatch(
                runs=[
                    IngestRun(
                        component,
                        Metric.CPU_USAGE,
                        t,
                        np.asarray([float(value)]),
                    )
                ],
                watermark=t + 1,
            )
        )


@pytest.fixture(scope="module")
def hadoop_fault_run():
    """A Hadoop run with concurrent infinite loops in the mappers."""
    app = HadoopApplication(seed=72)
    for m in MAPS:
        app.inject(InfiniteLoopFault(900, m))
    app.run(1200)
    violation = app.slo.first_violation_after(900)
    assert violation is not None
    return app, violation


def _diagnosis_key(result):
    return (
        result.faulty,
        result.chain.links,
        result.external_factor,
        result.skipped,
    )


def assert_engines_equivalent(store, violation, seed):
    """Replay vs stream-warmed vs cache-warm, all identical."""
    # Replay: a fresh master per diagnosis pushes the recorded history
    # through fresh models inside ``analyze``.
    expected = FChainMaster(FChainConfig(), seed=seed).diagnose(
        store, violation
    )

    # Warm: the persistent slave streamed the whole store beforehand, as
    # the online loop does tick by tick.
    warm = FChainMaster(FChainConfig(), seed=seed)
    warm.slave.sync_with_store(store, store.end)
    first = warm.diagnose(store, violation)
    # Second warm diagnosis is served from the per-window caches and the
    # already-synced models; it must not drift.
    second = warm.diagnose(store, violation)

    assert _diagnosis_key(first) == _diagnosis_key(expected)
    assert _diagnosis_key(second) == _diagnosis_key(expected)
    for component in expected.faulty:
        assert first.implicated_metrics(component) == (
            expected.implicated_metrics(component)
        )


class TestEngineEquivalence:
    def test_rubis(self, rubis_cpuhog_run):
        app, violation = rubis_cpuhog_run
        assert_engines_equivalent(app.store, violation, seed=101)

    def test_systems(self, systems_memleak_run):
        app, violation = systems_memleak_run
        assert_engines_equivalent(app.store, violation, seed=202)

    def test_hadoop(self, hadoop_fault_run):
        app, violation = hadoop_fault_run
        assert_engines_equivalent(app.store, violation, seed=72)

    def test_matches_inline_batch_reference(self, rubis_cpuhog_run):
        """The slave's warm analysis equals a literal transcription of the
        original batch path: fresh ``prediction_errors`` over the full
        series, then ``select_abnormal_changes`` on the window slices."""
        app, violation = rubis_cpuhog_run
        store = app.store
        config = FChainConfig()
        seed = 101
        slave = FChainSlave(config, seed=seed)
        slave.sync_with_store(store, store.end)
        window_start = violation - config.look_back_window
        window_end = violation + config.analysis_grace + 1
        for component in store.components:
            expected = []
            for metric in store.metrics_for(component):
                full = store.series(component, metric).window(
                    store.start, window_end
                )
                if len(full) < 2 * config.min_segment:
                    continue
                errors = prediction_errors(
                    full,
                    bins=config.markov_bins,
                    halflife=config.markov_halflife,
                    signed=True,
                )
                raw = full.window(window_start, window_end)
                history = full.window(full.start, raw.start)
                split = raw.start - full.start
                expected.extend(
                    select_abnormal_changes(
                        raw,
                        history,
                        metric,
                        config,
                        seed=(seed, component),
                        errors=errors[split:],
                        history_errors=errors[:split],
                    )
                )
            report = slave.analyze(store, component, violation)
            assert report.abnormal_changes == expected

    def test_warm_error_streams_match_batch(self, rubis_cpuhog_run):
        """The slave's signed error buffers equal the batch replay."""
        app, violation = rubis_cpuhog_run
        store = app.store
        config = FChainConfig()
        slave = FChainSlave(config, seed=101)
        slave.sync_with_store(store, store.end)
        component = store.components[0]
        metric = store.metrics_for(component)[0]
        full = store.series(component, metric)
        batch = prediction_errors(
            full,
            bins=config.markov_bins,
            halflife=config.markov_halflife,
            signed=True,
        )
        streamed = slave.errors_for(component, metric)[: len(full)]
        mask = np.isfinite(batch)
        np.testing.assert_allclose(streamed[mask], batch[mask], rtol=1e-12)
        assert np.all(~np.isfinite(streamed[~mask]))


class TestMasterDiagnose:
    def test_reports_in_component_order(self, rubis_cpuhog_run):
        app, violation = rubis_cpuhog_run
        result = FChainMaster(FChainConfig(), seed=1).diagnose(
            app.store, violation
        )
        assert list(result.reports) == app.store.components


class TestIncrementalState:
    def test_rebinding_to_new_store_resets(self):
        a = MetricStore.from_arrays(
            {"c": {Metric.CPU_USAGE: np.full(120, 30.0)}}
        )
        b = MetricStore.from_arrays(
            {"c": {Metric.CPU_USAGE: np.full(120, 70.0)}}
        )
        slave = FChainSlave(FChainConfig())
        slave.sync_with_store(a, a.end)
        assert len(slave.errors_for("c", Metric.CPU_USAGE)) == 120
        slave.sync_with_store(b, b.end)
        # Had the slave kept store-a state, the model would have been fed
        # 240 samples; the reset keeps the streams aligned with store b.
        streamed = slave.errors_for("c", Metric.CPU_USAGE)
        assert len(streamed) == 120
        batch = prediction_errors(
            b.series("c", Metric.CPU_USAGE),
            bins=slave.config.markov_bins,
            halflife=slave.config.markov_halflife,
            signed=True,
        )
        mask = np.isfinite(batch)
        np.testing.assert_allclose(streamed[mask], batch[mask], rtol=1e-12)

    def test_diagnosis_error_before_history(self):
        store = MetricStore.from_arrays(
            {"c": {Metric.CPU_USAGE: np.full(50, 30.0)}}, start=100
        )
        fchain = FChain()
        with pytest.raises(DiagnosisError):
            fchain.localize(store, violation_time=100)
        with pytest.raises(DiagnosisError):
            fchain.localize(store, violation_time=40)

    def test_insufficient_data_surfaced_as_skipped(self):
        store = MetricStore.from_arrays(
            {
                "a": {Metric.CPU_USAGE: np.full(8, 30.0)},
                "b": {Metric.CPU_USAGE: np.full(8, 40.0)},
            }
        )
        diagnosis = FChain().localize(store, violation_time=6)
        assert diagnosis.skipped == frozenset({"a", "b"})
        assert diagnosis.faulty == frozenset()

    def test_partial_component_skipped(self):
        store = MetricStore()
        store.ingest(
            IngestBatch(
                runs=[
                    IngestRun(
                        "full", Metric.CPU_USAGE, 0, np.full(150, 30.0)
                    )
                ],
                watermark=150,
            )
        )
        # "late" holds only a few samples — not enough history for any
        # analysis.
        store.ingest(
            IngestBatch(
                runs=[
                    IngestRun("late", Metric.CPU_USAGE, 0, np.full(4, 10.0))
                ]
            )
        )
        result = FChainMaster(FChainConfig()).diagnose(store, 140)
        assert result.skipped == frozenset({"late"})
        assert "skipped" in result.summary()


class TestStoreViews:
    def test_series_reads_are_zero_copy(self):
        store = MetricStore.from_arrays(
            {"c": {Metric.CPU_USAGE: np.arange(300, dtype=float)}}
        )
        first = store.series("c", Metric.CPU_USAGE)
        second = store.series("c", Metric.CPU_USAGE)
        assert np.shares_memory(first.values, second.values)
        windowed = store.window("c", Metric.CPU_USAGE, 50, 150)
        assert np.shares_memory(windowed.values, first.values)
        np.testing.assert_array_equal(
            windowed.values, np.arange(50, 150, dtype=float)
        )

    def test_views_stay_valid_across_appends(self):
        store = MetricStore()
        _append_ticks(store, "c", range(300))
        early = store.series("c", Metric.CPU_USAGE)
        snapshot = early.values.copy()
        _append_ticks(store, "c", range(300, 900), start=300)
        np.testing.assert_array_equal(early.values, snapshot)
        grown = store.series("c", Metric.CPU_USAGE)
        assert len(grown) == 900
        np.testing.assert_array_equal(
            grown.values, np.arange(900, dtype=float)
        )

    def test_all_metrics_supported(self):
        data = {
            "c": {m: np.full(40, 10.0 + i) for i, m in enumerate(METRIC_NAMES)}
        }
        store = MetricStore.from_arrays(data)
        for metric in METRIC_NAMES:
            assert len(store.series("c", metric)) == 40
