"""Tests for the process-based SlavePool executor.

The acceptance bar is exact: for any store and violation, the process
executor must return the *same reports in the same order* as the thread
executor (and the serial path), with identical timeout/``skipped``
semantics. Equivalence holds because a worker's fresh slave replays the
shared-memory history through ``update_many``, whose chunk invariance
makes the replay bit-identical to the master's warm slave.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.types import Metric, MetricSample
from repro.core import engine
from repro.core.config import FChainConfig
from repro.core.engine import SlavePool, _process_analyze
from repro.core.fchain import FChain, FChainSlave
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import IngestBatch, MetricStore

#: Cheap bootstraps: executor equivalence does not need tight intervals.
CONFIG = FChainConfig(cusum_bootstraps=40)
PROCESS = replace(CONFIG, executor="process")


def _faulty_store(components=4, samples=400, seed=5):
    rng = np.random.default_rng(seed)
    data = {}
    for i in range(components):
        cpu = 30 + rng.normal(0, 1.5, samples)
        mem = 55 + rng.normal(0, 1.0, samples)
        if i == 1:  # one component ramps into a fault near the end
            cpu[-80:] += np.linspace(0, 40, 80)
        data[f"comp-{i}"] = {
            Metric.CPU_USAGE: cpu,
            Metric.MEMORY_USAGE: mem,
        }
    return MetricStore.from_arrays(data)


def _report_key(reports, timed_out):
    return ([(r.component, r.skipped, r.abnormal_changes) for r in reports],
            timed_out)


class TestEquivalence:
    def test_reports_identical_to_thread_executor(self):
        store = _faulty_store()
        violation = store.end - 5

        thread_pool = SlavePool(FChainSlave(CONFIG, seed=3), jobs=3)
        process_pool = SlavePool(FChainSlave(PROCESS, seed=3), jobs=3)
        try:
            expected = _report_key(*thread_pool.analyze_all(store, violation))
            actual = _report_key(*process_pool.analyze_all(store, violation))
            assert actual == expected
        finally:
            process_pool.close()

    def test_nan_readings_warm_slave_matches_process_replay(self):
        """A slave kept warm tick by tick (series axis) over a store
        with NaN readings reports what process workers replaying the
        history in one chunk each report — gaps sever the chain the
        same way however the stream was chunked."""
        clean = _faulty_store()
        store = MetricStore(policy=DataQualityPolicy())
        warm = FChainSlave(CONFIG, seed=3)
        holes = {("comp-1", Metric.CPU_USAGE): (150,),
                 ("comp-2", Metric.MEMORY_USAGE): (90, 91, 250)}
        series = [
            (component, metric, clean.series(component, metric).values)
            for component in clean.components
            for metric in clean.metrics_for(component)
        ]
        for t in range(clean.end):
            store.ingest(
                IngestBatch(
                    samples=[
                        MetricSample(
                            component, metric, t,
                            np.nan if t in holes.get((component, metric), ())
                            else values[t],
                        )
                        for component, metric, values in series
                    ],
                    watermark=t + 1,
                )
            )
            warm.sync_with_store(store, store.end)
        violation = store.end - 5

        thread_pool = SlavePool(warm, jobs=3)
        process_pool = SlavePool(FChainSlave(PROCESS, seed=3), jobs=3)
        try:
            expected = _report_key(*thread_pool.analyze_all(store, violation))
            actual = _report_key(*process_pool.analyze_all(store, violation))
            assert actual == expected
            assert any(changes for _, _, changes in expected[0])
        finally:
            process_pool.close()

    def test_warm_pool_reused_across_diagnoses(self):
        store = _faulty_store()
        thread_pool = SlavePool(FChainSlave(CONFIG, seed=3), jobs=3)
        process_pool = SlavePool(FChainSlave(PROCESS, seed=3), jobs=3)
        try:
            for violation in (store.end - 40, store.end - 5):
                expected = _report_key(
                    *thread_pool.analyze_all(store, violation)
                )
                actual = _report_key(
                    *process_pool.analyze_all(store, violation)
                )
                assert actual == expected
            assert process_pool._pool is not None  # cached, not re-forked
        finally:
            process_pool.close()
            assert process_pool._pool is None

    def test_fchain_facade_identical_diagnoses(self):
        store = _faulty_store()
        violation = store.end - 5
        with FChain(CONFIG, seed=2, jobs=3) as threaded:
            expected = threaded.localize(store, violation_time=violation)
        with FChain(PROCESS, seed=2, jobs=3) as processed:
            actual = processed.localize(store, violation_time=violation)
        assert actual.result.faulty == expected.result.faulty
        assert actual.result.chain.links == expected.result.chain.links
        assert actual.result.skipped == expected.result.skipped
        assert actual.result.external_factor == expected.result.external_factor


def _wedged_analyze(handle, config, seed, component, violation_time):
    """Module-level (hence picklable) wedge for the timeout test."""
    if component == "comp-0":
        time.sleep(5.0)
    return _process_analyze(handle, config, seed, component, violation_time)


class TestTimeout:
    def test_timeout_marks_component_skipped(self, monkeypatch):
        monkeypatch.setattr(engine, "_process_analyze", _wedged_analyze)
        store = _faulty_store()
        pool = SlavePool(FChainSlave(PROCESS, seed=1), jobs=2, timeout=0.5)
        try:
            reports, timed_out = pool.analyze_all(store, store.end - 5)
            assert timed_out == frozenset({"comp-0"})
            by_component = {r.component: r for r in reports}
            assert by_component["comp-0"].skipped
            assert [r.component for r in reports] == store.components
            # The wedged pool was discarded so it cannot poison later calls.
            assert pool._pool is None
            monkeypatch.undo()
            reports, timed_out = pool.analyze_all(store, store.end - 5)
            assert timed_out == frozenset()
            assert [r.component for r in reports] == store.components
            assert not any(r.skipped for r in reports)
        finally:
            pool.close()


class TestConfiguration:
    def test_config_rejects_unknown_executor(self):
        with pytest.raises(ConfigurationError, match="executor"):
            FChainConfig(executor="greenlet")

    def test_pool_defaults_to_config_executor(self):
        pool = SlavePool(FChainSlave(PROCESS))
        assert pool.executor == "process"
        assert SlavePool(FChainSlave(CONFIG)).executor == "thread"
