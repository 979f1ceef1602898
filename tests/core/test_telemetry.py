"""End-to-end telemetry tests for the diagnosis pipeline.

The acceptance bar from the observability work: with full telemetry a
single diagnosis trace covers every pipeline stage, ``"off"``
produces no trace at all (and identical diagnoses), and finished traces
aggregate into the default registry whose Prometheus export parses.
"""

from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import FChainConfig
from repro.core.fchain import FChain
from repro.eval.bench import synthetic_store
from repro.obs.registry import default_registry
from repro.obs.trace import (
    PIPELINE_STAGES,
    STAGE_COMPONENT,
    STAGE_DIAGNOSIS,
    STAGE_METRIC,
)
from tests.obs.prometheus_text import parse_prometheus_text

#: Cheap bootstraps — stage coverage does not need tight intervals.
CONFIG = FChainConfig(cusum_bootstraps=40, telemetry="full")


@pytest.fixture(scope="module")
def store():
    return synthetic_store(samples=1200, components=4, metrics=2, seed=7)


@pytest.fixture(autouse=True)
def clean_registry():
    default_registry().reset()
    yield
    default_registry().reset()


def _diagnose(store, config):
    violation = store.end - config.analysis_grace - 1
    with FChain(config, seed=2) as fchain:
        return fchain.localize(store, violation_time=violation)


class TestStageCoverage:
    def test_full_trace_covers_every_pipeline_stage(self, store):
        diagnosis = _diagnose(store, CONFIG)
        trace = diagnosis.trace
        assert trace is not None
        assert trace.name == STAGE_DIAGNOSIS
        assert set(PIPELINE_STAGES) <= trace.stage_names()

    def test_trace_structure_mirrors_the_store(self, store):
        diagnosis = _diagnose(store, CONFIG)
        trace = diagnosis.trace
        components = trace.find_all(STAGE_COMPONENT)
        assert sorted(s.tags["component"] for s in components) == list(
            store.components
        )
        metric_spans = trace.find_all(STAGE_METRIC)
        assert len(metric_spans) == len(store.components) * 2
        assert trace.counter_total("metrics_analyzed") == len(metric_spans)

    def test_trace_durations_are_populated(self, store):
        trace = _diagnose(store, CONFIG).trace
        assert trace.duration > 0
        # Every finished span got a wall-time reading.
        assert all(span.duration >= 0 for span in trace.walk())
        assert trace.stage_seconds()[STAGE_DIAGNOSIS] == trace.duration


class TestModes:
    def test_off_mode_produces_no_trace(self, store):
        diagnosis = _diagnose(store, replace(CONFIG, telemetry="off"))
        assert diagnosis.trace is None
        assert diagnosis.result.trace is None
        assert all(
            r.trace is None for r in diagnosis.result.reports.values()
        )

    def test_off_and_full_produce_identical_diagnoses(self, store):
        off = _diagnose(store, replace(CONFIG, telemetry="off"))
        full = _diagnose(store, CONFIG)
        assert off.result.faulty == full.result.faulty
        assert off.result.chain.links == full.result.chain.links
        assert off.result.external_factor == full.result.external_factor
        # Trace fields are excluded from report equality on purpose.
        assert off.result.reports == full.result.reports

    def test_timings_mode_keeps_spans_drops_counters_and_tags(self, store):
        trace = _diagnose(store, replace(CONFIG, telemetry="timings")).trace
        assert trace is not None
        assert set(PIPELINE_STAGES) <= trace.stage_names()
        assert all(not span.counters for span in trace.walk())
        assert all(not span.tags for span in trace.walk())

    def test_config_rejects_unknown_telemetry(self):
        with pytest.raises(ConfigurationError, match="telemetry"):
            FChainConfig(telemetry="verbose")


class TestRegistryExport:
    def test_diagnosis_populates_default_registry(self, store):
        _diagnose(store, CONFIG)
        registry = default_registry()
        assert registry.get("fchain_diagnoses_total").value() == 1
        spans_total = registry.get("fchain_spans_total")
        for stage in PIPELINE_STAGES:
            assert spans_total.value(stage=stage) >= 1, stage
        assert registry.get("fchain_stage_seconds").count(
            stage=STAGE_DIAGNOSIS
        ) == 1

    def test_prometheus_export_round_trips(self, store):
        _diagnose(store, CONFIG)
        parsed = parse_prometheus_text(default_registry().render_prometheus())
        assert parsed.types["fchain_stage_seconds"] == "histogram"
        assert parsed.value("fchain_diagnoses_total") == 1
        assert (
            parsed.value("fchain_spans_total", stage=STAGE_DIAGNOSIS) == 1
        )

    def test_off_mode_leaves_registry_empty(self, store):
        _diagnose(store, replace(CONFIG, telemetry="off"))
        assert default_registry().metrics() == []
