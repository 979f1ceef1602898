"""Tests for the FChain facade (slave, master, one-call API)."""

import pytest

from repro.apps.rubis import DB
from repro.common.errors import DiagnosisError
from repro.common.types import Metric
from repro.core.config import FChainConfig
from repro.core.fchain import FChain, FChainMaster, FChainSlave
from repro.monitoring.store import MetricStore


class TestSlaveStreaming:
    def test_observe_builds_models(self):
        slave = FChainSlave()
        for t in range(100):
            slave.observe_many("web", Metric.CPU_USAGE, (30.0 + (t % 3),))
        model = slave.model_for("web", Metric.CPU_USAGE)
        assert model is not None
        assert model.ready

    def test_unknown_model_none(self):
        assert FChainSlave().model_for("x", Metric.CPU_USAGE) is None


class TestSlaveAnalysis:
    def test_detects_faulty_component(self, rubis_cpuhog_run):
        app, violation = rubis_cpuhog_run
        slave = FChainSlave(FChainConfig(), seed=101)
        report = slave.analyze(app.store, DB, violation)
        assert report.is_abnormal
        assert report.onset_time <= violation

    def test_normal_component_clean_or_later(self, rubis_cpuhog_run):
        app, violation = rubis_cpuhog_run
        slave = FChainSlave(FChainConfig(), seed=101)
        db_onset = slave.analyze(app.store, DB, violation).onset_time
        web = slave.analyze(app.store, "web", violation)
        if web.is_abnormal:
            assert web.onset_time >= db_onset


class TestMaster:
    def test_diagnose_pinpoints_db(
        self, rubis_cpuhog_run, rubis_dependency_graph
    ):
        app, violation = rubis_cpuhog_run
        master = FChainMaster(
            FChainConfig(), rubis_dependency_graph, seed=101
        )
        result = master.diagnose(app.store, violation)
        assert result.faulty == frozenset({DB})

    def test_violation_before_history_rejected(self):
        master = FChainMaster()
        with pytest.raises(DiagnosisError):
            master.diagnose(MetricStore(start=100), 50)


class TestFacade:
    def test_localize(self, rubis_cpuhog_run, rubis_dependency_graph):
        app, violation = rubis_cpuhog_run
        fchain = FChain(dependency_graph=rubis_dependency_graph, seed=101)
        result = fchain.localize(app.store, violation_time=violation)
        assert DB in result.faulty

    def test_validate_with(self, rubis_cpuhog_run, rubis_dependency_graph):
        app, violation = rubis_cpuhog_run
        fchain = FChain(dependency_graph=rubis_dependency_graph, seed=101)
        diagnosis = fchain.localize(
            app.store, violation_time=violation, validate_with=app
        )
        assert DB in diagnosis.faulty
        assert diagnosis.outcomes[DB].confirmed

    def test_default_config(self):
        fchain = FChain()
        assert fchain.config.look_back_window == 100
        assert fchain.dependency_graph is None
