"""Tests for metric registries and the Prometheus/JSON exporters.

The contract under test: every registry renders to valid Prometheus
text exposition format (0.0.4) that round-trips through
:func:`tests.obs.prometheus_text.parse_prometheus_text` without losing a single
sample, and the JSON dump mirrors the same data.
"""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.export import render_prometheus
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_trace,
    default_registry,
)
from repro.obs.trace import STAGE_DIAGNOSIS, Span
from tests.obs.prometheus_text import parse_prometheus_text


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        counter = Counter("hits_total", "hits", ("stage",))
        counter.inc(stage="a")
        counter.inc(2.5, stage="a")
        counter.inc(stage="b")
        assert counter.value(stage="a") == 3.5
        assert counter.value(stage="b") == 1.0
        assert counter.value(stage="never") == 0.0

    def test_rejects_negative_and_wrong_labels(self):
        counter = Counter("hits_total", "", ("stage",))
        with pytest.raises(ConfigurationError):
            counter.inc(-1, stage="a")
        with pytest.raises(ConfigurationError):
            counter.inc(1, wrong="a")
        with pytest.raises(ConfigurationError):
            counter.inc(1)


class TestGauge:
    def test_set_overwrites_and_inc_dec_accumulate(self):
        gauge = Gauge("fleet_tenants", "", ("shard",))
        gauge.set(5, shard="0")
        gauge.set(2, shard="0")
        assert gauge.value(shard="0") == 2.0
        gauge.inc(shard="0")
        gauge.dec(3, shard="0")
        assert gauge.value(shard="0") == 0.0
        assert gauge.value(shard="never") == 0.0

    def test_gauges_may_go_negative(self):
        gauge = Gauge("delta", "")
        gauge.dec(2.5)
        assert gauge.value() == -2.5

    def test_renders_as_gauge_type(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "queue depth", ("shard",)).set(7, shard="1")
        parsed = parse_prometheus_text(render_prometheus(registry))
        assert parsed.types["depth"] == "gauge"
        assert parsed.value("depth", shard="1") == 7

    def test_registry_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.gauge("x", "")
        with pytest.raises(ConfigurationError):
            registry.counter("x", "")


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        hist = Histogram("lat_seconds", "", (), buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            hist.observe(value)
        ((key, cumulative, total, count),) = list(hist.samples())
        assert key == ()
        assert cumulative == [1, 3, 4]  # le=0.1, le=1.0, +Inf
        assert total == pytest.approx(6.25)
        assert count == 4
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(6.25)

    def test_label_sets_are_independent(self):
        hist = Histogram("lat", "", ("stage",), buckets=(1.0,))
        hist.observe(0.5, stage="a")
        hist.observe(2.0, stage="b")
        assert hist.count(stage="a") == 1
        assert hist.sum(stage="b") == 2.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", ("stage",))
        again = registry.counter("x_total", "ignored", ("stage",))
        assert first is again

    def test_kind_or_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "", ("stage",))
        with pytest.raises(ConfigurationError):
            registry.histogram("x_total", "", ("stage",))
        with pytest.raises(ConfigurationError):
            registry.counter("x_total", "", ("other",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("bad name")
        with pytest.raises(ConfigurationError):
            registry.counter("ok_total", label_names=("bad-label",))

    def test_reset_clears_metrics(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        registry.reset()
        assert registry.get("x_total") is None

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()


class TestPrometheusRoundTrip:
    def _populated(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "fchain_spans_total", "Spans per stage", ("stage",)
        )
        counter.inc(3, stage="smoothing")
        counter.inc(1.5, stage="cusum_bootstrap")
        hist = registry.histogram(
            "fchain_stage_seconds",
            "Wall seconds per stage",
            ("stage",),
            buckets=(0.001, 0.1, 1.0),
        )
        for value in (0.0004, 0.05, 0.07, 2.0):
            hist.observe(value, stage="smoothing")
        return registry

    def test_render_and_parse_preserve_every_sample(self):
        registry = self._populated()
        parsed = parse_prometheus_text(render_prometheus(registry))
        assert parsed.types["fchain_spans_total"] == "counter"
        assert parsed.types["fchain_stage_seconds"] == "histogram"
        assert parsed.helps["fchain_spans_total"] == "Spans per stage"
        assert parsed.value("fchain_spans_total", stage="smoothing") == 3
        assert (
            parsed.value("fchain_spans_total", stage="cusum_bootstrap") == 1.5
        )
        assert (
            parsed.value("fchain_stage_seconds_bucket", stage="smoothing", le="0.001")
            == 1
        )
        assert (
            parsed.value("fchain_stage_seconds_bucket", stage="smoothing", le="0.1")
            == 3
        )
        assert (
            parsed.value("fchain_stage_seconds_bucket", stage="smoothing", le="+Inf")
            == 4
        )
        assert parsed.value(
            "fchain_stage_seconds_sum", stage="smoothing"
        ) == pytest.approx(2.1204)
        assert parsed.value("fchain_stage_seconds_count", stage="smoothing") == 4

    def test_label_values_escape_and_unescape(self):
        registry = MetricsRegistry()
        awkward = 'quote " backslash \\ newline \n end'
        registry.counter("x_total", "", ("tag",)).inc(1, tag=awkward)
        parsed = parse_prometheus_text(render_prometheus(registry))
        assert parsed.value("x_total", tag=awkward) == 1

    def test_render_via_registry_method_matches_function(self):
        registry = self._populated()
        assert registry.render_prometheus() == render_prometheus(registry)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert parse_prometheus_text("").samples == {}


class TestJsonDump:
    def test_json_dump_mirrors_samples_and_serializes(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "things", ("stage",)).inc(2, stage="a")
        hist = registry.histogram("y_seconds", "", (), buckets=(1.0,))
        hist.observe(0.5)
        payload = registry.to_json()
        assert payload["x_total"]["type"] == "counter"
        assert payload["x_total"]["samples"] == [
            {"labels": {"stage": "a"}, "value": 2.0}
        ]
        assert payload["y_seconds"]["buckets"] == [1.0]
        assert payload["y_seconds"]["samples"][0]["cumulative_counts"] == [1, 1]
        json.dumps(payload)  # must be JSON-serializable as-is


class TestAggregateTrace:
    def test_trace_folds_into_stage_metrics(self):
        registry = MetricsRegistry()
        with Span(STAGE_DIAGNOSIS, {"executor": "thread"}) as trace:
            with trace.child("smoothing") as child:
                child.count("points", 4)
            with trace.child("smoothing"):
                pass
        aggregate_trace(trace, registry)
        assert registry.get("fchain_spans_total").value(stage="smoothing") == 2
        assert (
            registry.get("fchain_spans_total").value(stage=STAGE_DIAGNOSIS) == 1
        )
        assert registry.get("fchain_points_total").value(stage="smoothing") == 4
        assert registry.get("fchain_diagnoses_total").value() == 1
        assert (
            registry.get("fchain_stage_seconds").count(stage="smoothing") == 2
        )

    def test_non_diagnosis_root_does_not_count_a_diagnosis(self):
        registry = MetricsRegistry()
        with Span("validation") as span:
            pass
        aggregate_trace(span, registry)
        assert registry.get("fchain_diagnoses_total") is None
