"""Bit-identity of diagnosis on ring-wrapped stores.

Analysis must survive retention-by-overwrite. These tests build stores
whose rings have wrapped at least once and assert:

* a wrapped store still yields its culprit, and how often the ring
  wrapped does not change the diagnosis;
* a slave that keeps continuously synced while the ring wraps holds the
  same prediction-error streams as one that read the full history from
  an unbounded store — eviction only removes what was already consumed.
"""

import numpy as np
import pytest

from repro.common.types import Metric
from repro.core.config import FChainConfig
from repro.core.fchain import FChainMaster, FChainSlave
from repro.core.prediction import ModelBank
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore

#: Cheap bootstraps: ring equivalence does not need tight intervals.
CONFIG = FChainConfig(cusum_bootstraps=40)

RETENTION = 512
SAMPLES = 1_200  # > 2x retention: every ring has fully wrapped


def _series_data(components=4, samples=SAMPLES, seed=11):
    rng = np.random.default_rng(seed)
    data = {}
    for i in range(components):
        cpu = 30 + rng.normal(0, 1.5, samples)
        mem = 55 + rng.normal(0, 1.0, samples)
        if i == 1:  # one component ramps into a fault near the end
            cpu[-60:] += np.linspace(0, 40, 60)
        data[f"comp-{i}"] = {
            Metric.CPU_USAGE: cpu,
            Metric.MEMORY_USAGE: mem,
        }
    return data


def _wrapped_store(retention=RETENTION):
    return MetricStore.from_arrays(_series_data(), retention=retention)


def _result_key(result):
    return (result.faulty, result.chain.links, result.external_factor)


class TestExecutorIdentity:
    def test_wrapped_store_keeps_its_culprit(self):
        store = _wrapped_store()
        serial = FChainMaster(CONFIG, seed=3).diagnose(store, store.end - 5)
        # The fault lies entirely inside the retained window, so the
        # wrap must not cost the diagnosis its culprit.
        assert "comp-1" in serial.faulty

    def test_wrap_depth_does_not_perturb_the_diagnosis(self):
        # Two retentions, both covering the analysis window: the ring
        # geometry (how often it wrapped) must be invisible to analysis.
        shallow = _wrapped_store(retention=1_024)
        deep = _wrapped_store(retention=256)
        violation = shallow.end - 5
        left = FChainMaster(CONFIG, seed=3).diagnose(
            shallow, violation
        )
        right = FChainMaster(CONFIG, seed=3).diagnose(
            deep, violation
        )
        assert _result_key(left) == _result_key(right)


class TestContinuousSyncIdentity:
    def test_synced_slave_matches_full_history_streams(self):
        self._check_synced_matches_replay(chunk=100, gaps=False)

    @pytest.mark.parametrize(
        "chunk,gaps",
        [(100, True), (7, False), (7, True), (1, False), (1, True)],
        ids=["100-nan", "7-clean", "7-nan", "1-clean", "1-nan"],
    )
    def test_synced_slave_matches_replay_on_either_axis(self, chunk, gaps):
        # chunk=100 replays along the time axis, chunk=1 is the warm
        # tick-by-tick service loop (series axis), chunk=7 a few-tick
        # catch-up on the series axis.
        self._check_synced_matches_replay(chunk, gaps)

    @staticmethod
    def _check_synced_matches_replay(chunk, gaps):
        data = _series_data()
        policy = None
        if gaps:
            # NaN readings, including a lone one the tick-by-tick side
            # syncs as a chunk of its own.
            policy = DataQualityPolicy()
            data["comp-0"][Metric.CPU_USAGE][200] = np.nan
            data["comp-2"][Metric.MEMORY_USAGE][300:304] = np.nan
            data["comp-3"][Metric.CPU_USAGE][1_000] = np.nan
        full_store = MetricStore.from_arrays(data, policy=policy)

        wrapped = MetricStore(retention=256, policy=policy)
        synced = FChainSlave(CONFIG, seed=3)
        # chunk < retention: the slave never falls behind eviction
        for lo in range(0, SAMPLES, chunk):
            hi = min(lo + chunk, SAMPLES)
            wrapped.ingest(
                IngestBatch(
                    runs=[
                        IngestRun(comp, metric, lo, values[lo:hi])
                        for comp, metrics in data.items()
                        for metric, values in metrics.items()
                    ],
                    watermark=hi,
                )
            )
            synced.sync_with_store(wrapped, wrapped.end)

        cold = FChainSlave(CONFIG, seed=3)
        cold.sync_with_store(full_store, full_store.end)

        assert set(synced._rows) == set(cold._rows)
        for key in synced._rows:
            np.testing.assert_array_equal(
                synced.errors_for(*key), cold.errors_for(*key), err_msg=str(key)
            )
            warm, replayed = synced.model_for(*key), cold.model_for(*key)
            for name in ModelBank.ARRAYS:
                np.testing.assert_array_equal(
                    getattr(warm.bank, name)[warm.row],
                    getattr(replayed.bank, name)[replayed.row],
                    err_msg=f"{key} {name}",
                )
