"""Counter/histogram registries for pipeline telemetry.

A :class:`MetricsRegistry` is a process-local collection of named
:class:`Counter` and :class:`Histogram` metrics with Prometheus-style
label sets. Finished diagnosis traces are folded in via
:func:`aggregate_trace`; the registry then renders to the Prometheus
text exposition format (:meth:`MetricsRegistry.render_prometheus`) or a
JSON dump (:meth:`MetricsRegistry.to_json`).

Everything is plain Python — no client library dependency — and the
exporter output parses back to the registry's exact samples (asserted
by ``tests/obs/test_registry.py``).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds) — spans from sub-millisecond stage
#: timings up to multi-second whole-diagnosis latencies.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelKey = Tuple[str, ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(f"invalid metric name {name!r}")
    return name


def _check_labels(label_names: Sequence[str]) -> Tuple[str, ...]:
    for label in label_names:
        if not _LABEL_RE.match(label):
            raise ConfigurationError(f"invalid label name {label!r}")
    return tuple(label_names)


class _Metric:
    """Shared label-set bookkeeping for counters and histograms."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        if set(labels) != set(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)


class Counter(_Metric):
    """A monotonically increasing value per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = OrderedDict()

    def inc(self, n: float = 1.0, **labels) -> None:
        if n < 0:
            raise ConfigurationError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + n

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        yield from self._values.items()


class Gauge(_Metric):
    """A value that can go up and down per label set.

    Used for instantaneous fleet state — registered tenants, per-shard
    queue depth — where a counter's monotonicity would be wrong.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()):
        super().__init__(name, help, label_names)
        self._values: Dict[LabelKey, float] = OrderedDict()

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, n: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + n

    def dec(self, n: float = 1.0, **labels) -> None:
        self.inc(-n, **labels)

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        yield from self._values.items()


class Histogram(_Metric):
    """Cumulative-bucket histogram per label set (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        self.buckets = bounds
        # Per label set: per-bucket counts (+Inf implicit), sum, count.
        self._counts: Dict[LabelKey, List[int]] = OrderedDict()
        self._sums: Dict[LabelKey, float] = {}
        self._totals: Dict[LabelKey, int] = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
                self._counts[key] = counts
                self._sums[key] = 0.0
                self._totals[key] = 0
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            self._sums[key] += value
            self._totals[key] += 1

    def count(self, **labels) -> int:
        return self._totals.get(self._key(labels), 0)

    def sum(self, **labels) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[LabelKey, List[int], float, int]]:
        """``(label key, cumulative bucket counts incl. +Inf, sum, count)``."""
        for key, counts in self._counts.items():
            cumulative: List[int] = []
            running = 0
            for c in counts:
                running += c
                cumulative.append(running)
            yield key, cumulative, self._sums[key], self._totals[key]


class MetricsRegistry:
    """A named collection of counters and histograms.

    ``counter()`` / ``histogram()`` are get-or-create: instrumented code
    declares its metrics at use time and repeated declarations return the
    same object (conflicting kinds or label sets raise).
    """

    def __init__(self) -> None:
        self._metrics: "OrderedDict[str, _Metric]" = OrderedDict()
        self._lock = threading.Lock()

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, label_names, buckets=buckets
        )

    def _get_or_create(self, cls, name, help, label_names, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(label_names):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.label_names}"
                    )
                return existing
            metric = cls(name, help, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        return list(self._metrics.values())

    def reset(self) -> None:
        """Drop every registered metric (test isolation)."""
        with self._lock:
            self._metrics.clear()

    # -- exporters ------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        from repro.obs.export import render_prometheus

        return render_prometheus(self)

    def to_json(self) -> Dict:
        """JSON dump of every metric's samples."""
        from repro.obs.export import registry_to_json

        return registry_to_json(self)


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry tracers aggregate into."""
    return _DEFAULT_REGISTRY


def _counter_metric_name(span_counter: str) -> str:
    safe = re.sub(r"[^a-zA-Z0-9_]", "_", span_counter)
    return f"fchain_{safe}_total"


def aggregate_trace(trace, registry: MetricsRegistry) -> None:
    """Fold one finished span tree into stage histograms and counters.

    Produces:

    * ``fchain_stage_seconds{stage=...}`` — histogram of per-span wall
      times (nested stages each contribute their own wall time);
    * ``fchain_spans_total{stage=...}`` — spans recorded per stage;
    * ``fchain_<counter>_total{stage=...}`` — one counter per span
      counter name (``"full"`` telemetry only);
    * ``fchain_diagnoses_total`` — completed diagnosis traces.
    """
    from repro.obs.trace import STAGE_DIAGNOSIS

    stage_seconds = registry.histogram(
        "fchain_stage_seconds",
        "Wall-clock seconds spent per pipeline stage",
        ("stage",),
    )
    spans_total = registry.counter(
        "fchain_spans_total", "Spans recorded per pipeline stage", ("stage",)
    )
    for span in trace.walk():
        stage_seconds.observe(span.duration, stage=span.name)
        spans_total.inc(1, stage=span.name)
        for counter_name, value in span.counters.items():
            registry.counter(
                _counter_metric_name(counter_name),
                f"Total {counter_name.replace('_', ' ')} across diagnoses",
                ("stage",),
            ).inc(value, stage=span.name)
    if trace.name == STAGE_DIAGNOSIS:
        registry.counter(
            "fchain_diagnoses_total", "Completed diagnosis traces"
        ).inc(1)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "aggregate_trace",
    "default_registry",
]
