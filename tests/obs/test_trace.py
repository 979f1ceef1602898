"""Tests for the span tracer (``repro.obs.trace``).

Covers the contracts the pipeline instrumentation relies on: spans nest
and time themselves, ``"timings"`` mode drops counters/tags while
keeping durations, the off mode collapses onto the shared
:data:`NULL_SPAN` singleton with no retained allocation, and span trees
survive pickling (incidents cross the process fleet backend's queues).
"""

import gc
import pickle
import time
import tracemalloc

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    PIPELINE_STAGES,
    STAGE_DIAGNOSIS,
    TELEMETRY_MODES,
    NullTracer,
    Span,
    Tracer,
    make_tracer,
)


class TestSpan:
    def test_nesting_builds_a_tree(self):
        with Span("root") as root:
            with root.child("a") as a:
                with a.child("leaf"):
                    pass
            with root.child("b"):
                pass
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["leaf"]
        assert [s.name for s in root.walk()] == ["root", "a", "leaf", "b"]
        assert root.stage_names() == frozenset({"root", "a", "leaf", "b"})

    def test_context_manager_measures_wall_time(self):
        with Span("timed") as span:
            time.sleep(0.01)
        assert span.duration >= 0.01
        # Parent wall time covers the child's.
        with Span("outer") as outer:
            with outer.child("inner"):
                time.sleep(0.005)
        assert outer.duration >= outer.children[0].duration

    def test_counters_and_tags_accumulate(self):
        with Span("s", {"component": "c0"}) as span:
            span.count("hits")
            span.count("hits", 2)
            span.tag(metric="cpu")
        assert span.counters == {"hits": 3}
        assert span.tags == {"component": "c0", "metric": "cpu"}
        assert span.counter_total("hits") == 3

    def test_counter_total_sums_over_descendants(self):
        root = Span("root")
        root.child("a").count("n", 2)
        root.child("a").count("n", 3)
        assert root.counter_total("n") == 5
        assert len(root.find_all("a")) == 2

    def test_stage_seconds_totals_per_name(self):
        root = Span("root")
        a1, a2 = root.child("a"), root.child("a")
        a1.duration, a2.duration, root.duration = 0.25, 0.5, 1.0
        totals = root.stage_seconds()
        assert totals["a"] == pytest.approx(0.75)
        assert totals["root"] == pytest.approx(1.0)

    def test_timings_mode_drops_counters_and_tags(self):
        with Span("s", {"component": "c0"}, full=False) as span:
            span.count("hits", 7)
            span.tag(metric="cpu")
            child = span.child("inner", metric="mem")
            child.count("more", 1)
        assert span.tags == {}
        assert span.counters == {}
        assert child.tags == {}
        assert child.counters == {}

    def test_to_dict_round_trips_structure(self):
        with Span("root", {"executor": "thread"}) as root:
            root.count("n", 4)
            with root.child("leaf"):
                pass
        payload = root.to_dict()
        assert payload["name"] == "root"
        assert payload["tags"] == {"executor": "thread"}
        assert payload["counters"] == {"n": 4}
        assert [c["name"] for c in payload["children"]] == ["leaf"]
        assert payload["duration_ms"] == pytest.approx(root.duration * 1e3)

    def test_format_tree_lists_stages_and_filters_by_min_ms(self):
        root = Span("root", {"executor": "thread"})
        root.duration = 0.05
        fast, slow = root.child("fast"), root.child("slow")
        fast.duration, slow.duration = 0.0001, 0.02
        slow.count("n", 3)
        text = root.format_tree()
        assert "root[executor=thread]" in text
        assert "fast" in text and "slow" in text and "n=3" in text
        filtered = root.format_tree(min_ms=1.0)
        assert "slow" in filtered and "fast" not in filtered

    def test_span_tree_pickles(self):
        with Span("root", {"executor": "process"}) as root:
            root.count("n", 2)
            with root.child("leaf", metric="cpu"):
                pass
        clone = pickle.loads(pickle.dumps(root))
        assert clone.to_dict() == root.to_dict()
        # The clone is still usable as a timing context afterwards.
        with clone.child("post"):
            pass
        assert clone.children[-1].name == "post"


class TestNullSpan:
    def test_everything_returns_the_singleton(self):
        assert NULL_SPAN.child("anything", component="c0") is NULL_SPAN
        with NULL_SPAN as entered:
            assert entered is NULL_SPAN
        assert NULL_SPAN.count("n") is None
        assert NULL_SPAN.tag(a=1) is None
        assert NULL_SPAN.adopt(Span("x")) is None

    def test_off_mode_retains_no_allocation(self):
        def spin(n):
            for _ in range(n):
                with NULL_SPAN.child("stage", component="c") as span:
                    span.count("samples", 128)
                    span.tag(metric="cpu")

        spin(100)  # warm up any interpreter caches
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        spin(5_000)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        retained = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        # 5000 instrumented "calls" must not retain memory proportional
        # to the call count (a real span tree would be several MB).
        assert retained < 50_000


class TestTracers:
    def test_make_tracer_dispatch(self):
        assert make_tracer("off") is NULL_TRACER
        assert isinstance(make_tracer("timings"), Tracer)
        assert isinstance(make_tracer("full"), Tracer)
        with pytest.raises(ConfigurationError):
            make_tracer("verbose")
        with pytest.raises(ConfigurationError):
            Tracer("off")

    def test_null_tracer_hands_out_null_span(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert tracer.span(STAGE_DIAGNOSIS, executor="thread") is NULL_SPAN
        tracer.observe(Span("x"))  # no-op, no registry

    def test_full_tracer_spans_carry_tags(self):
        tracer = Tracer("full", registry=MetricsRegistry())
        span = tracer.span(STAGE_DIAGNOSIS, executor="thread")
        assert span.tags == {"executor": "thread"}

    def test_timings_tracer_spans_drop_tags(self):
        tracer = Tracer("timings", registry=MetricsRegistry())
        span = tracer.span(STAGE_DIAGNOSIS, executor="thread")
        assert span.tags == {}

    def test_observe_aggregates_into_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer("full", registry=registry)
        with tracer.span(STAGE_DIAGNOSIS) as trace:
            with trace.child("stage_x") as child:
                child.count("things", 3)
        tracer.observe(trace)
        assert registry.get("fchain_spans_total").value(stage="stage_x") == 1
        assert registry.get("fchain_things_total").value(stage="stage_x") == 3
        assert registry.get("fchain_diagnoses_total").value() == 1


class TestStageVocabulary:
    def test_pipeline_stage_names_are_stable(self):
        # Exporters and dashboards key on these exact strings; renaming
        # any of them is a breaking change and must fail loudly here.
        assert PIPELINE_STAGES == (
            "diagnosis",
            "store_sync",
            "component",
            "metric",
            "smoothing",
            "cusum_bootstrap",
            "outlier_filter",
            "burst_thresholds",
            "onset_rollback",
            "pinpoint",
        )
        assert TELEMETRY_MODES == ("off", "timings", "full")
