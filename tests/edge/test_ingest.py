"""Wire-format decoding: strict validation, coalescing, tenant routing."""

import json
import math
import pickle

import numpy as np
import pytest

from repro.common.types import METRIC_NAMES, Metric, MetricSample, TickSamples
from repro.core.config import FChainConfig
from repro.core.fchain import FChain
from repro.edge.http import HttpRequest, ProtocolError
from repro.edge.ingest import (
    PERFORMANCE_COMPONENT,
    decode_csv_push,
    decode_json_push,
    decode_push,
    group_ticks,
    store_csv_text,
)
from repro.monitoring.quality import DataQualityPolicy
from repro.monitoring.slo import LatencySLO
from repro.monitoring.store import MetricStore
from repro.service.sources import TickBatch
from repro.service.tick import TickCore


def sample(component="web", metric="cpu_usage", time=0, value=0.5):
    return {"component": component, "metric": metric, "time": time, "value": value}


def json_request(payload, query=None):
    return HttpRequest(
        method="POST",
        path="/v1/ingest",
        query=query or {},
        headers={"content-type": "application/json"},
        body=json.dumps(payload).encode(),
    )


def csv_request(text, query=None):
    return HttpRequest(
        method="POST",
        path="/v1/ingest",
        query=query or {},
        headers={"content-type": "text/csv"},
        body=text.encode(),
    )


class TestJsonDecode:
    def test_samples_become_enum_keyed_metric_samples(self):
        push = decode_json_push({"samples": [sample()]})
        assert push.samples == 1
        [batch] = push.batches
        [decoded] = batch.samples
        assert decoded.component == "web"
        # The store keys series by the Metric enum; a raw string here
        # would silently feed series no diagnosis reads.
        assert decoded.metric is Metric.CPU_USAGE
        assert decoded.time == 0 and decoded.value == 0.5

    def test_bare_list_shorthand(self):
        push = decode_json_push([sample(time=3)])
        assert [b.time for b in push.batches] == [3]

    def test_performance_points_ride_along(self):
        push = decode_json_push(
            {
                "samples": [sample(time=1)],
                "performance": [{"time": 1, "value": 0.25}],
            }
        )
        [batch] = push.batches
        assert batch.performance == 0.25

    def test_unknown_metric_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_json_push({"samples": [sample(metric="cpu")]})
        assert excinfo.value.status == 400
        assert "cpu_usage" in str(excinfo.value)

    @pytest.mark.parametrize(
        "payload",
        [
            {"samples": [sample()], "extra": 1},
            {"samples": [{**sample(), "bonus": 1}]},
            {"samples": [{"component": "web"}]},
            {"samples": [sample(time="soon")]},
            {"samples": [sample(time=1.5)]},
            {"samples": [sample(value="high")]},
            {"samples": [sample(component="")]},
            {"samples": "nope"},
            {"performance": [{"time": 1}]},
            {"tenant": 7, "samples": [sample()]},
            "just a string",
            {},
        ],
    )
    def test_malformed_payloads_are_400(self, payload):
        with pytest.raises(ProtocolError) as excinfo:
            decode_json_push(payload)
        assert excinfo.value.status == 400

    def test_nan_value_passes_through_to_quality_policy(self):
        push = decode_json_push({"samples": [sample(value=float("nan"))]})
        [decoded] = push.batches[0].samples
        assert math.isnan(decoded.value)

    def test_nan_time_is_rejected(self):
        with pytest.raises(ProtocolError):
            decode_json_push({"samples": [sample(time=float("nan"))]})


class TestCsvDecode:
    def test_round_trip_through_store_csv_text(self):
        text = store_csv_text(
            [
                (0, "web", "cpu_usage", 0.5),
                (0, PERFORMANCE_COMPONENT, "latency", 0.05),
                (1, "db", "disk_read", 0.9),
            ]
        )
        push = decode_csv_push(text.encode())
        assert push.samples == 2
        assert [b.time for b in push.batches] == [0, 1]
        assert push.batches[0].performance == 0.05
        assert push.batches[1].samples[0].metric is Metric.DISK_READ

    def test_header_is_mandatory(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_csv_push(b"0,web,cpu_usage,0.5\n")
        assert excinfo.value.status == 400

    def test_blank_lines_skipped(self):
        text = "time,component,metric,value\n\n0,web,cpu_usage,0.5\n\n"
        assert decode_csv_push(text.encode()).samples == 1

    @pytest.mark.parametrize(
        "row",
        [
            "0,web,cpu_usage",
            "zero,web,cpu_usage,0.5",
            "0,web,cpu_usage,high",
            "0,,cpu_usage,0.5",
            "0,web,,0.5",
            "0,web,made_up_metric,0.5",
        ],
    )
    def test_malformed_rows_are_400(self, row):
        text = f"time,component,metric,value\n{row}\n"
        with pytest.raises(ProtocolError) as excinfo:
            decode_csv_push(text.encode())
        assert excinfo.value.status == 400

    def test_empty_push_rejected(self):
        with pytest.raises(ProtocolError):
            decode_csv_push(b"time,component,metric,value\n")


class TestCoalesce:
    def test_batches_sorted_and_grouped(self):
        push = decode_json_push(
            {
                "samples": [sample(time=5), sample(time=2), sample(time=5)],
                "performance": [{"time": 9, "value": 1.0}],
            }
        )
        assert [b.time for b in push.batches] == [2, 5, 9]
        assert len(push.batches[1].samples) == 2
        assert push.batches[2].samples == []
        assert push.batches[2].performance == 1.0

    def test_empty_inputs_yield_no_batches(self):
        assert group_ticks([], [], [], [], {}) == []


class TestOutOfRangeValues:
    """An integer literal beyond float range is the client's fault."""

    HUGE = 10**400

    def test_sample_value_is_400(self):
        payload = {"samples": [sample(), sample(time=1, value=self.HUGE)]}
        with pytest.raises(ProtocolError) as excinfo:
            decode_json_push(payload)
        assert excinfo.value.status == 400
        assert str(excinfo.value) == "samples[1]: value out of range"

    def test_performance_value_is_400(self):
        payload = {
            "samples": [sample()],
            "performance": [{"time": 0, "value": 1}, {"time": 1, "value": -self.HUGE}],
        }
        with pytest.raises(ProtocolError) as excinfo:
            decode_json_push(payload)
        assert excinfo.value.status == 400
        assert str(excinfo.value) == "performance[1]: value out of range"

    def test_the_edge_answers_400_not_500(self):
        request = json_request({"samples": [sample(value=self.HUGE)]})
        assert b"1" + b"0" * 400 in request.body
        with pytest.raises(ProtocolError) as excinfo:
            decode_push(request)
        assert excinfo.value.status == 400


def _ticks(components=3, start=0, stop=80):
    """``(tick, [(component, metric, value)], performance)`` of a run."""
    rng = np.random.default_rng(5)
    names = [f"vm{i}" for i in range(components)]
    return [
        (
            t,
            [
                (name, metric, float(rng.normal(50.0, 5.0)))
                for name in names
                for metric in METRIC_NAMES
            ],
            0.05,
        )
        for t in range(start, stop)
    ]


def _json_push(ticks):
    payload = {
        "samples": [
            {"component": c, "metric": m.value, "time": t, "value": v}
            for t, rows, _ in ticks
            for c, m, v in rows
        ],
        "performance": [{"time": t, "value": p} for t, _, p in ticks],
    }
    return decode_json_push(json.loads(json.dumps(payload)))


def _list_batches(ticks):
    return [
        TickBatch(
            time=t,
            samples=[MetricSample(c, m, t, v) for c, m, v in rows],
            performance=p,
        )
        for t, rows, p in ticks
    ]


def _state(core):
    """Stored series, quality counters and warm-bank rows, as bytes."""
    slave = core.fchain.master.slave
    state = {}
    for component in core.store.components:
        for metric in core.store.metrics_for(component):
            model = slave.model_for(component, metric)
            state[component, metric] = (
                core.store.series(component, metric).values.tobytes(),
                core.store.series_quality(component, metric),
                np.asarray(slave.errors_for(component, metric)).tobytes(),
                model.bank.counts[model.row].tobytes(),
                model.bank.row_dots[model.row].tobytes(),
                int(model.bank.previous_bin[model.row]),
                int(model.bank.updates[model.row]),
            )
    return state


class TestTickSamplesTravel:
    def test_decoded_columns_equal_their_list_form(self):
        ticks = _ticks(stop=3)
        decoded = _json_push(ticks).batches
        assert all(isinstance(b.samples, TickSamples) for b in decoded)
        assert decoded == _list_batches(ticks)
        assert _list_batches(ticks) == decoded
        first = decoded[0].samples
        component, metric, value = ticks[0][1][1]
        assert first[1] == MetricSample(component, metric, 0, value)
        assert first[-1].component == "vm2"
        assert first[2:5] == list(first)[2:5]

    def test_a_decoded_batch_survives_pickle(self):
        ticks = _ticks(stop=2)
        for batch, listed in zip(_json_push(ticks).batches, _list_batches(ticks)):
            copy = pickle.loads(pickle.dumps(batch))
            assert isinstance(copy.samples, TickSamples)
            assert copy == batch
            assert copy == listed

    def test_tick_core_fed_columns_equals_tick_core_fed_lists(self):
        ticks = _ticks()
        states = []
        for batches in (_json_push(ticks).batches, _list_batches(ticks)):
            core = TickCore(
                MetricStore(policy=DataQualityPolicy()),
                FChain(FChainConfig()),
                LatencySLO(0.1, sustain=1),
            )
            for batch in batches:
                core.process(batch)
            assert core.store.end == len(ticks)
            states.append(_state(core))
        assert len(states[0]) == 3 * len(METRIC_NAMES)
        assert states[0] == states[1]


class TestDecodePush:
    def test_content_type_dispatch(self):
        assert decode_push(json_request({"samples": [sample()]})).samples == 1
        text = store_csv_text([(0, "web", "cpu_usage", 0.5)])
        assert decode_push(csv_request(text)).samples == 1

    def test_unsupported_content_type_is_415(self):
        request = json_request({"samples": [sample()]})
        request.headers["content-type"] = "application/xml"
        with pytest.raises(ProtocolError) as excinfo:
            decode_push(request)
        assert excinfo.value.status == 415

    def test_query_tenant_applies(self):
        push = decode_push(
            json_request({"samples": [sample()]}, query={"tenant": "acme"})
        )
        assert push.tenant == "acme"

    def test_body_and_query_tenant_must_agree(self):
        agreeing = json_request(
            {"samples": [sample()], "tenant": "acme"}, query={"tenant": "acme"}
        )
        assert decode_push(agreeing).tenant == "acme"
        disagreeing = json_request(
            {"samples": [sample()], "tenant": "acme"}, query={"tenant": "evil"}
        )
        with pytest.raises(ProtocolError) as excinfo:
            decode_push(disagreeing)
        assert excinfo.value.status == 400
