"""Tests for the slave's continuous (streaming) modeling interface."""

import numpy as np

from repro.common.rng import spawn_rng
from repro.common.timeseries import TimeSeries
from repro.common.types import Metric
from repro.core.fchain import FChainSlave
from repro.core.prediction import prediction_errors


class TestStreamingParity:
    def test_streaming_model_matches_batch_errors(self):
        """Feeding samples via observe_many() produces the same error stream as
        the batch path used by diagnosis — the online slave and the
        analysis see the same model."""
        rng = spawn_rng("parity")
        values = 40 + rng.normal(0, 3, 500)
        slave = FChainSlave()
        for v in values:
            slave.observe_many("c", Metric.CPU_USAGE, (float(v),))
        streamed = np.abs(slave.errors_for("c", Metric.CPU_USAGE))
        batch = prediction_errors(TimeSeries(values))
        mask = np.isfinite(batch)
        np.testing.assert_allclose(streamed[mask], batch[mask], rtol=1e-9)

    def test_models_independent_per_metric(self):
        slave = FChainSlave()
        for t in range(100):
            slave.observe_many("c", Metric.CPU_USAGE, (30.0,))
            slave.observe_many("c", Metric.MEMORY_USAGE, (500.0,))
        cpu = slave.model_for("c", Metric.CPU_USAGE)
        mem = slave.model_for("c", Metric.MEMORY_USAGE)
        assert cpu is not mem
        assert cpu.predict() != mem.predict()


class TestSummary:
    def test_summary_lists_chain_and_faulty(self, rubis_cpuhog_run):
        from repro.core import FChain

        app, violation = rubis_cpuhog_run
        result = FChain(seed=101).localize(app.store, violation_time=violation)
        text = result.summary()
        assert "db" in text
        assert "FAULTY" in text
        assert "pinpointed" in text

    def test_summary_external(self):
        from repro.core.pinpoint import PinpointResult
        from repro.core.propagation import PropagationChain

        result = PinpointResult(
            faulty=frozenset(),
            external_factor=True,
            chain=PropagationChain(links=()),
        )
        assert "external factor" in result.summary()

    def test_summary_nothing_found(self):
        from repro.core.pinpoint import PinpointResult
        from repro.core.propagation import PropagationChain

        result = PinpointResult(
            faulty=frozenset(),
            external_factor=False,
            chain=PropagationChain(links=()),
        )
        assert "no abnormal changes" in result.summary()
