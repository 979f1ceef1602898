"""Decoding and validation of ``POST /v1/ingest`` payloads.

External collectors push telemetry in one of two wire formats:

* **JSON** (``application/json``) — an object with a ``samples`` list
  (each ``{"component", "metric", "time", "value"}``), an optional
  ``performance`` list of ``{"time", "value"}`` SLO-signal points, and
  an optional ``tenant`` string for fleet routing. A bare top-level
  list is accepted as shorthand for ``{"samples": [...]}``.
* **CSV** (``text/csv``) — the long metric format the rest of the repo
  speaks (``time,component,metric,value`` with a header row). Rows
  whose component is :data:`PERFORMANCE_COMPONENT` carry the
  application performance signal instead of a metric sample.

Either format is decoded into four sample *columns* (components,
metrics, times, values) and grouped into per-tick
:class:`~repro.service.sources.TickBatch`\\ es, sorted by time, whose
samples are :class:`~repro.common.types.TickSamples` — equal to the
lists an in-process feed would have produced, which is what makes an
HTTP replay of a recorded trace bit-identical to the in-process
``repro replay`` of the same trace. Validation is strict at the
boundary (unknown fields, non-numeric times/values and NaN/inf
*timestamps* are 400s); *value* weirdness like NaN readings is let
through on purpose, because downstream the tolerant
:class:`~repro.monitoring.quality.DataQualityPolicy` is the component
that decides how defective telemetry is handled.

A JSON ``samples`` list is validated a column at a time: key sets,
types, integral times and metric names are each checked over the whole
push in C, with no Python-level call per sample. Only when a check
fails does the decoder walk the entries one by one, to name the first
defective one in the 400.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import eq
from typing import Dict, List, Optional, Tuple

from repro.common.types import Metric, TickSamples
from repro.edge.http import HttpRequest, ProtocolError
from repro.service.sources import TickBatch

#: CSV component name whose rows carry the SLO performance signal.
PERFORMANCE_COMPONENT = "@performance"

#: Fields accepted on a JSON sample object.
_SAMPLE_FIELDS = {"component", "metric", "time", "value"}

#: Fields accepted on the JSON push envelope.
_ENVELOPE_FIELDS = {"samples", "performance", "tenant"}

#: Wire name -> metric, the one lookup that turns names into ``Metric``s.
_METRICS = {metric.value: metric for metric in Metric}

#: JSON number types (``bool`` is a distinct type, so it stays out).
_NUMBER_TYPES = {int, float}

#: Sample columns: components, metrics, times, values.
_Columns = Tuple[List[str], List[Metric], List[int], List[float]]


@dataclass
class Push:
    """One decoded ingest payload, grouped by tick and ready to route.

    Attributes:
        batches: Per-tick batches, sorted by tick time.
        tenant: Fleet tenant the push belongs to (empty = single-tenant
            pipeline mode).
        samples: Total metric samples across the batches.
    """

    batches: List[TickBatch] = field(default_factory=list)
    tenant: str = ""
    samples: int = 0


def _bad(message: str) -> ProtocolError:
    return ProtocolError(400, message)


def _as_time(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{where}: time must be a number, got {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value) or value != int(value):
            raise _bad(f"{where}: time must be an integral tick, got {value!r}")
    return int(value)


def _as_value(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{where}: value must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # An integer literal beyond float range: the client's fault.
        raise _bad(f"{where}: value out of range") from None


def _as_name(value, what: str, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise _bad(f"{where}: {what} must be a non-empty string, got {value!r}")
    return value


def _as_metric(name: str, where: str) -> Metric:
    # The store is keyed by the Metric enum, not by raw strings — an
    # unconverted name would land in a series no diagnosis ever reads.
    metric = _METRICS.get(name)
    if metric is None:
        raise _bad(
            f"{where}: unknown metric {name!r}; monitored metrics are "
            f"{[m.value for m in Metric]}"
        )
    return metric


def _bulk_columns(entries: list) -> Optional[_Columns]:
    """The columns of ``entries`` if every entry is valid, else ``None``.

    Every check covers a whole column with one C-level call. The checks
    accept exactly what JSON produces for a valid push; ``None`` hands
    the entries to :func:`_checked_columns`, which names the defect (or
    accepts what only a Python caller can build, such as an ``int``
    subclass).
    """
    try:
        if not all(map(eq, map(dict.keys, entries), repeat(_SAMPLE_FIELDS))):
            return None
    except TypeError:  # an entry that is not an object
        return None
    components = [entry["component"] for entry in entries]
    names = [entry["metric"] for entry in entries]
    times = [entry["time"] for entry in entries]
    values = [entry["value"] for entry in entries]
    if not set(map(type, components)) <= {str} or "" in components:
        return None
    try:
        metrics = list(map(_METRICS.get, names))
    except TypeError:  # an unhashable metric name
        return None
    if None in metrics:
        return None
    time_types = set(map(type, times))
    if not time_types <= _NUMBER_TYPES:
        return None
    if float in time_types:
        try:
            ticks = list(map(int, times))
        except (ValueError, OverflowError):  # a NaN or infinite time
            return None
        if ticks != times:
            return None
        times = ticks
    value_types = set(map(type, values))
    if not value_types <= _NUMBER_TYPES:
        return None
    if int in value_types:
        try:
            values = list(map(float, values))
        except OverflowError:
            return None
    return components, metrics, times, values


def _checked_columns(entries: list) -> _Columns:
    """The columns of ``entries``, built entry by entry.

    Raises the 400 of the first defective entry, naming its index.
    """
    components: List[str] = []
    metrics: List[Metric] = []
    times: List[int] = []
    values: List[float] = []
    for index, entry in enumerate(entries):
        where = f"samples[{index}]"
        if not isinstance(entry, dict):
            raise _bad(f"{where}: each sample must be an object")
        unknown = set(entry) - _SAMPLE_FIELDS
        if unknown:
            raise _bad(f"{where}: unknown fields {sorted(unknown)}")
        missing = _SAMPLE_FIELDS - set(entry)
        if missing:
            raise _bad(f"{where}: missing fields {sorted(missing)}")
        components.append(_as_name(entry["component"], "component", where))
        metrics.append(_as_metric(_as_name(entry["metric"], "metric", where), where))
        times.append(_as_time(entry["time"], where))
        values.append(_as_value(entry["value"], where))
    return components, metrics, times, values


def group_ticks(
    components: List[str],
    metrics: List[Metric],
    times: List[int],
    values: List[float],
    performance: Dict[int, float],
) -> List[TickBatch]:
    """Group sample columns and performance points into per-tick batches.

    Batches are sorted by tick and samples keep their arrival order
    within a tick. A push in tick order — what a collector sends — is
    cut into one slice per tick; any other order is first put in tick
    order by a stable sort of the sample indices.
    """
    if times != sorted(times):
        order = sorted(range(len(times)), key=times.__getitem__)
        components = [components[i] for i in order]
        metrics = [metrics[i] for i in order]
        times = [times[i] for i in order]
        values = [values[i] for i in order]
    batches = []
    lo = 0
    for tick in sorted(set(times).union(performance)):
        hi = bisect_right(times, tick, lo)
        batches.append(
            TickBatch(
                time=tick,
                samples=TickSamples(
                    tick, components[lo:hi], metrics[lo:hi], values[lo:hi]
                ),
                performance=performance.get(tick),
            )
        )
        lo = hi
    return batches


def decode_json_push(payload) -> Push:
    """Decode the JSON wire format into a :class:`Push`."""
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
    columns = _bulk_columns(raw_samples) or _checked_columns(raw_samples)

    raw_performance = payload.get("performance", [])
    if not isinstance(raw_performance, list):
        raise _bad("performance must be a list of {time, value} points")
    performance: Dict[int, float] = {}
    for index, entry in enumerate(raw_performance):
        where = f"performance[{index}]"
        if not isinstance(entry, dict) or set(entry) != {"time", "value"}:
            raise _bad(f"{where}: each point must be {{time, value}}")
        performance[_as_time(entry["time"], where)] = _as_value(entry["value"], where)

    if not raw_samples and not performance:
        raise _bad("empty push: no samples and no performance points")
    return Push(
        batches=group_ticks(*columns, performance),
        tenant=tenant,
        samples=len(raw_samples),
    )


def decode_csv_push(body: bytes, tenant: str = "") -> Push:
    """Decode the CSV wire format into a :class:`Push`."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as error:
        raise _bad(f"CSV body is not UTF-8: {error}") from error
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [cell.strip() for cell in header] != [
        "time",
        "component",
        "metric",
        "value",
    ]:
        raise _bad(
            "CSV push needs the header time,component,metric,value "
            f"(got {header!r})"
        )
    components: List[str] = []
    metrics: List[Metric] = []
    times: List[int] = []
    values: List[float] = []
    performance: Dict[int, float] = {}
    for line_number, row in enumerate(reader, start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        where = f"csv line {line_number}"
        if len(row) != 4:
            raise _bad(f"{where}: expected 4 columns, got {len(row)}")
        try:
            time = int(row[0])
            value = float(row[3])
        except ValueError as error:
            raise _bad(f"{where}: {error}") from error
        component = row[1].strip()
        metric = row[2].strip()
        if not component:
            raise _bad(f"{where}: empty component")
        if component == PERFORMANCE_COMPONENT:
            performance[time] = value
            continue
        if not metric:
            raise _bad(f"{where}: empty metric")
        metrics.append(_as_metric(metric, where))
        components.append(component)
        times.append(time)
        values.append(value)
    if not components and not performance:
        raise _bad("empty push: no samples and no performance points")
    return Push(
        batches=group_ticks(components, metrics, times, values, performance),
        tenant=tenant,
        samples=len(components),
    )


def decode_push(request: HttpRequest) -> Push:
    """Decode one ``POST /v1/ingest`` request body by content type.

    A ``?tenant=`` query parameter routes the push in fleet mode; a JSON
    body may name the tenant inline instead (the body wins when both
    are present and agree; disagreement is a 400).
    """
    query_tenant = request.query.get("tenant", "")
    content_type = request.content_type
    if content_type in ("", "application/json"):
        push = decode_json_push(request.json())
    elif content_type in ("text/csv", "application/csv"):
        push = decode_csv_push(request.body, tenant=query_tenant)
    else:
        raise ProtocolError(
            415,
            f"unsupported content type {content_type!r}: "
            "push application/json or text/csv",
        )
    if query_tenant:
        if push.tenant and push.tenant != query_tenant:
            raise _bad(
                f"tenant mismatch: body says {push.tenant!r}, "
                f"query says {query_tenant!r}"
            )
        push.tenant = query_tenant
    return push


def store_csv_text(samples: List[Tuple[int, str, str, float]]) -> str:
    """Render rows back to the CSV wire format (load-generator helper)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["time", "component", "metric", "value"])
    writer.writerows(samples)
    return out.getvalue()


__all__ = [
    "PERFORMANCE_COMPONENT",
    "Push",
    "decode_csv_push",
    "decode_json_push",
    "decode_push",
    "group_ticks",
    "store_csv_text",
]
