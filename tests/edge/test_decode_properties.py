"""Property-based proof that the columnar JSON decoder is the per-entry one.

``decode_json_push`` validates a push's ``samples`` a column at a time
and groups the columns into per-tick ``TickSamples``. The reference
below is the decoder it replaced, written out plainly: one validator
call per field of every entry, one ``MetricSample`` per entry, and a
``coalesce`` that groups the samples by tick. The one deliberate change
is carried by both: an integer value beyond float range is a 400
(``value out of range``), not an ``OverflowError``.

Valid pushes must decode to the same tenant, sample count and batches
(time, samples as ``MetricSample`` lists, performance); a push with one
defect at a random index must raise the same status and message.
"""

import math
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import Metric, MetricSample
from repro.edge.http import ProtocolError
from repro.edge.ingest import decode_json_push
from repro.service.sources import TickBatch

_SAMPLE_FIELDS = {"component", "metric", "time", "value"}
_ENVELOPE_FIELDS = {"samples", "performance", "tenant"}


def _bad(message):
    return ProtocolError(400, message)


def _as_time(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{where}: time must be a number, got {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value) or value != int(value):
            raise _bad(f"{where}: time must be an integral tick, got {value!r}")
    return int(value)


def _as_value(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{where}: value must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _bad(f"{where}: value out of range") from None


def _as_name(value, what, where):
    if not isinstance(value, str) or not value:
        raise _bad(f"{where}: {what} must be a non-empty string, got {value!r}")
    return value


def _as_metric(name, where):
    try:
        return Metric(name)
    except ValueError:
        raise _bad(
            f"{where}: unknown metric {name!r}; monitored metrics are "
            f"{[m.value for m in Metric]}"
        ) from None


def _coalesce(samples: List[MetricSample], performance: Dict[int, float]):
    by_tick: Dict[int, List[MetricSample]] = {}
    for sample in samples:
        by_tick.setdefault(sample.time, []).append(sample)
    ticks = sorted(set(by_tick) | set(performance))
    return [
        TickBatch(
            time=t,
            samples=by_tick.get(t, []),
            performance=performance.get(t),
        )
        for t in ticks
    ]


def _reference(payload):
    """The per-entry decoder: ``(tenant, samples, batches)``."""
    if isinstance(payload, list):
        payload = {"samples": payload}
    if not isinstance(payload, dict):
        raise _bad("push must be a JSON object or a list of samples")
    unknown = set(payload) - _ENVELOPE_FIELDS
    if unknown:
        raise _bad(f"unknown push fields: {sorted(unknown)}")
    tenant = payload.get("tenant", "")
    if not isinstance(tenant, str):
        raise _bad(f"tenant must be a string, got {tenant!r}")
    raw_samples = payload.get("samples", [])
    if not isinstance(raw_samples, list):
        raise _bad("samples must be a list")
    samples = []
    for index, entry in enumerate(raw_samples):
        where = f"samples[{index}]"
        if not isinstance(entry, dict):
            raise _bad(f"{where}: each sample must be an object")
        unknown = set(entry) - _SAMPLE_FIELDS
        if unknown:
            raise _bad(f"{where}: unknown fields {sorted(unknown)}")
        missing = _SAMPLE_FIELDS - set(entry)
        if missing:
            raise _bad(f"{where}: missing fields {sorted(missing)}")
        samples.append(
            MetricSample(
                component=_as_name(entry["component"], "component", where),
                metric=_as_metric(_as_name(entry["metric"], "metric", where), where),
                time=_as_time(entry["time"], where),
                value=_as_value(entry["value"], where),
            )
        )
    raw_performance = payload.get("performance", [])
    if not isinstance(raw_performance, list):
        raise _bad("performance must be a list of {time, value} points")
    performance = {}
    for index, entry in enumerate(raw_performance):
        where = f"performance[{index}]"
        if not isinstance(entry, dict) or set(entry) != {"time", "value"}:
            raise _bad(f"{where}: each point must be {{time, value}}")
        performance[_as_time(entry["time"], where)] = _as_value(entry["value"], where)
    if not samples and not performance:
        raise _bad("empty push: no samples and no performance points")
    return tenant, len(samples), _coalesce(samples, performance)


def _decoded(payload):
    push = decode_json_push(payload)
    return push.tenant, push.samples, push.batches


def _outcome(decode, payload):
    try:
        tenant, samples, batches = decode(payload)
    except ProtocolError as error:
        return "error", error.status, str(error)
    return (
        tenant,
        samples,
        [(b.time, list(b.samples), b.performance) for b in batches],
    )


TIMES = st.one_of(st.integers(0, 8), st.integers(0, 8).map(float))
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**20), 10**20),
)
ENTRIES = st.fixed_dictionaries(
    {
        "component": st.sampled_from(["web", "app", "db", "a b"]),
        "metric": st.sampled_from([m.value for m in Metric]),
        "time": TIMES,
        "value": VALUES,
    }
)
POINTS = st.fixed_dictionaries({"time": TIMES, "value": VALUES})


@st.composite
def pushes(draw, min_samples=0):
    samples = draw(st.lists(ENTRIES, min_size=min_samples, max_size=40))
    if draw(st.booleans()):
        samples.sort(key=lambda entry: entry["time"])
    if draw(st.booleans()):
        return samples  # the bare-list shorthand
    payload = {"samples": samples}
    if draw(st.booleans()):
        payload["performance"] = draw(st.lists(POINTS, max_size=6))
    if draw(st.booleans()):
        payload["tenant"] = draw(st.sampled_from(["", "acme", "t-0007"]))
    return payload


@settings(max_examples=300, deadline=None)
@given(payload=pushes())
def test_valid_pushes_decode_like_the_per_entry_loop(payload):
    # A NaN reading is the very float object on both sides, so list
    # equality (identity before ==) holds for it too.
    assert _outcome(_decoded, payload) == _outcome(_reference, payload)


DEFECTS = {
    "bool time": lambda entry: entry.update(time=True),
    "bool value": lambda entry: entry.update(value=False),
    "non-integral time": lambda entry: entry.update(time=2.5),
    "nan time": lambda entry: entry.update(time=math.nan),
    "inf time": lambda entry: entry.update(time=-math.inf),
    "string time": lambda entry: entry.update(time="3"),
    "string value": lambda entry: entry.update(value="high"),
    "missing key": lambda entry: entry.pop("metric"),
    "extra key": lambda entry: entry.update(bonus=1),
    "unknown metric": lambda entry: entry.update(metric="cpu"),
    "empty metric": lambda entry: entry.update(metric=""),
    "unhashable metric": lambda entry: entry.update(metric=["cpu_usage"]),
    "empty component": lambda entry: entry.update(component=""),
    "non-string component": lambda entry: entry.update(component=7),
    "overflowing value": lambda entry: entry.update(value=10**400),
}


@settings(max_examples=300, deadline=None)
@given(
    payload=pushes(min_samples=1),
    defect=st.sampled_from(sorted(DEFECTS) + ["non-dict entry"]),
    where=st.integers(0, 10**6),
)
def test_defective_pushes_fail_like_the_per_entry_loop(payload, defect, where):
    samples = payload if isinstance(payload, list) else payload["samples"]
    index = where % len(samples)
    if defect == "non-dict entry":
        samples[index] = [samples[index]["time"], samples[index]["value"]]
    else:
        DEFECTS[defect](samples[index])
    decoded = _outcome(_decoded, payload)
    assert decoded[0] == "error"
    assert decoded == _outcome(_reference, payload)
    assert decoded[2].startswith(f"samples[{index}]: ")


@settings(max_examples=100, deadline=None)
@given(payload=pushes(), where=st.integers(0, 10**6))
def test_an_overflowing_performance_value_fails_like_the_reference(payload, where):
    if isinstance(payload, list):
        payload = {"samples": payload}
    points = payload.setdefault("performance", [])
    points.insert(where % (len(points) + 1), {"time": 1, "value": -(10**400)})
    decoded = _outcome(_decoded, payload)
    assert decoded == _outcome(_reference, payload)
    assert decoded[0] == "error"
