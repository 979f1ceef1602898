"""The redesigned localization API: Diagnosis, shims, config validation."""

import numpy as np
import pytest

from repro.baselines.base import LocalizationContext, Localizer
from repro.common.errors import ConfigurationError
from repro.common.types import Metric
from repro.core import Diagnosis, FChain, FChainConfig
from repro.core.fchain import FChainMaster, FChainSlave
from repro.monitoring.store import MetricStore


def _flat_store(samples=200, components=("a", "b")):
    return MetricStore.from_arrays(
        {
            c: {Metric.CPU_USAGE: np.full(samples, 30.0 + 5 * i)}
            for i, c in enumerate(components)
        }
    )


class TestLocalizeSignature:
    def test_keyword_call_returns_diagnosis(self):
        store = _flat_store()
        diagnosis = FChain().localize(store, violation_time=150)
        assert isinstance(diagnosis, Diagnosis)
        assert diagnosis.violation_time == 150
        assert diagnosis.latency_seconds > 0
        assert not diagnosis.validated
        assert diagnosis.outcomes is None
        assert diagnosis.unvalidated is None

    def test_positional_violation_time_rejected(self):
        store = _flat_store()
        with pytest.raises(TypeError):
            FChain().localize(store, 150)

    def test_missing_violation_time_raises(self):
        with pytest.raises(TypeError, match="violation_time"):
            FChain().localize(_flat_store())

    def test_localize_and_validate_removed(self):
        assert not hasattr(FChain(), "localize_and_validate")

    def test_validate_with_validates_diagnosis(self, rubis_cpuhog_run):
        app, violation = rubis_cpuhog_run
        fchain = FChain(seed=101)
        diagnosis = fchain.localize(
            app.store, violation_time=violation, validate_with=app
        )
        assert diagnosis.validated
        assert diagnosis.outcomes is not None
        assert diagnosis.unvalidated is not None
        assert diagnosis.faulty <= diagnosis.unvalidated.faulty

    def test_diagnosis_proxies_pinpoint_result(self):
        store = _flat_store()
        diagnosis = FChain().localize(store, violation_time=150)
        result = diagnosis.result
        assert diagnosis.faulty == result.faulty
        assert diagnosis.external_factor == result.external_factor
        assert diagnosis.chain == result.chain
        assert diagnosis.reports == result.reports
        assert diagnosis.skipped == result.skipped
        assert diagnosis.summary().startswith(result.summary())

    def test_validation_note_in_summary(self, rubis_cpuhog_run):
        app, violation = rubis_cpuhog_run
        diagnosis = FChain(seed=101).localize(
            app.store, violation_time=violation, validate_with=app
        )
        assert "validation" in diagnosis.summary()


class TestLocalizerProtocol:
    class _Recorder(Localizer):
        name = "recorder"

        def __init__(self):
            self.seen = None

        def _localize(self, store, *, violation_time, context):
            self.seen = (store, violation_time, context)
            return frozenset({"x"})

    def test_keyword_call(self):
        scheme = self._Recorder()
        store = _flat_store()
        context = LocalizationContext()
        out = scheme.localize(store, violation_time=9, context=context)
        assert out == frozenset({"x"})
        assert scheme.seen == (store, 9, context)

    def test_default_context_constructed(self):
        scheme = self._Recorder()
        scheme.localize(_flat_store(), violation_time=9)
        assert isinstance(scheme.seen[2], LocalizationContext)

    def test_positional_call_rejected(self):
        scheme = self._Recorder()
        store = _flat_store()
        with pytest.raises(TypeError):
            scheme.localize(store, 9, LocalizationContext())

    def test_missing_violation_time_raises(self):
        with pytest.raises(TypeError, match="violation_time"):
            self._Recorder().localize(_flat_store())

    def test_baselines_keyword_only(self, rubis_cpuhog_run):
        from repro.baselines import PALLocalizer

        app, violation = rubis_cpuhog_run
        context = LocalizationContext()
        scheme = PALLocalizer()
        modern = scheme.localize(
            app.store, violation_time=violation, context=context
        )
        assert isinstance(modern, frozenset)
        with pytest.raises(TypeError):
            scheme.localize(app.store, violation, context)


class TestConfigValidate:
    def test_default_config_valid(self):
        config = FChainConfig()
        assert config.validate() is config

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"look_back_window": 8}, "look_back_window"),
            ({"min_segment": 1}, "min_segment"),
            ({"analysis_grace": -1}, "analysis_grace"),
            ({"cusum_bootstraps": 0}, "cusum_bootstraps"),
            ({"validation_horizon": -5}, "validation_horizon"),
        ],
    )
    def test_rejects_nonsense(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            FChainConfig(**kwargs).validate()

    def test_engine_constructors_validate(self):
        bad = FChainConfig(look_back_window=8)
        with pytest.raises(ConfigurationError):
            FChainSlave(bad)
        with pytest.raises(ConfigurationError):
            FChainMaster(bad)
        with pytest.raises(ConfigurationError):
            FChain(bad)


class TestStreamingFacade:
    def test_observe_feeds_persistent_slave(self):
        fchain = FChain()
        for t in range(120):
            fchain.observe_many("c", Metric.CPU_USAGE, (30.0 + (t % 3),))
        model = fchain.master.slave.model_for("c", Metric.CPU_USAGE)
        assert model is not None and model.ready

    def test_observe_many_matches_observe(self):
        values = [30.0 + (t % 5) for t in range(150)]
        one = FChain()
        for v in values:
            one.observe_many("c", Metric.CPU_USAGE, (v,))
        many = FChain()
        many.observe_many("c", Metric.CPU_USAGE, values)
        np.testing.assert_array_equal(
            many.master.slave.errors_for("c", Metric.CPU_USAGE),
            one.master.slave.errors_for("c", Metric.CPU_USAGE),
        )
