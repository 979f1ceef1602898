"""Nested-span tracing for the diagnosis pipeline.

A :class:`Span` is a plain, picklable record of one timed pipeline stage:
name, wall-clock duration, optional tags (component, metric,
violation time), optional counters (change points found / filtered /
survived) and child spans. Spans are context managers::

    with tracer.span(STAGE_DIAGNOSIS, violation_time=t) as root:
        with root.child(STAGE_STORE_SYNC) as sync:
            sync.count("samples", n)

Each component analysis builds its own span tree, carried back in its
:class:`~repro.core.propagation.ComponentReport`, and the master adopts
the finished trees into the diagnosis root, so a diagnosis is one
trace. Spans take no locks: a span tree is built by one thread.

When telemetry is off the instrumentation collapses onto
:data:`NULL_SPAN`, a shared no-op singleton: no spans, no timing reads,
no retained allocation per call.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional

from repro.common.errors import ConfigurationError

# ----------------------------------------------------------------------
# Stage names — the stable vocabulary of a diagnosis trace.
# ``Diagnosis.trace`` consumers (exporters, dashboards, the regression
# tests) key on these strings; treat renames as breaking changes.
# ----------------------------------------------------------------------
STAGE_DIAGNOSIS = "diagnosis"
STAGE_STORE_SYNC = "store_sync"
STAGE_COMPONENT = "component"
STAGE_METRIC = "metric"
STAGE_SMOOTHING = "smoothing"
STAGE_CUSUM = "cusum_bootstrap"
STAGE_OUTLIERS = "outlier_filter"
STAGE_BURST = "burst_thresholds"
STAGE_ROLLBACK = "onset_rollback"
STAGE_PINPOINT = "pinpoint"
STAGE_VALIDATION = "validation"
STAGE_SERVICE_TICK = "service_tick"
STAGE_SLO_EVAL = "slo_eval"
STAGE_DISPATCH = "dispatch"
STAGE_DRAIN = "drain"
STAGE_EDGE_REQUEST = "edge_request"

#: Every stage a full (cold-cache) diagnosis that selects at least one
#: abnormal change passes through, in pipeline order.
PIPELINE_STAGES = (
    STAGE_DIAGNOSIS,
    STAGE_STORE_SYNC,
    STAGE_COMPONENT,
    STAGE_METRIC,
    STAGE_SMOOTHING,
    STAGE_CUSUM,
    STAGE_OUTLIERS,
    STAGE_BURST,
    STAGE_ROLLBACK,
    STAGE_PINPOINT,
)

#: Stages of one online service-loop tick (``repro.service``): the tick
#: root, the SLO evaluation and the trigger/dispatch decision, plus the
#: shutdown drain. Diagnoses dispatched by the loop carry the regular
#: ``PIPELINE_STAGES`` vocabulary of their own.
SERVICE_STAGES = (
    STAGE_SERVICE_TICK,
    STAGE_SLO_EVAL,
    STAGE_DISPATCH,
    STAGE_DRAIN,
)

#: Stages of the HTTP edge (``repro.edge``): one span per request,
#: tagged with route, method and response status.
EDGE_STAGES = (STAGE_EDGE_REQUEST,)

#: Recognized ``FChainConfig.telemetry`` values.
TELEMETRY_MODES = ("off", "timings", "full")


class Span:
    """One timed pipeline stage with tags, counters and children."""

    __slots__ = ("name", "tags", "duration", "counters", "children", "_full", "_started")

    def __init__(self, name: str, tags: Optional[Dict[str, object]] = None, *, full: bool = True):
        self.name = name
        self.tags: Dict[str, object] = dict(tags) if (full and tags) else {}
        self.duration: float = 0.0
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self._full = full
        self._started: Optional[float] = None

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        if self._started is not None:
            self.duration = time.perf_counter() - self._started
            self._started = None
        return False

    # -- building -------------------------------------------------------
    def child(self, name: str, **tags) -> "Span":
        """Create (and attach) a nested span; use as a context manager."""
        span = Span(name, tags, full=self._full)
        self.children.append(span)
        return span

    def count(self, name: str, n: float = 1) -> None:
        """Bump a counter on this span (``"full"`` telemetry only)."""
        if self._full:
            self.counters[name] = self.counters.get(name, 0) + n

    def tag(self, **tags) -> None:
        """Attach tags to this span (``"full"`` telemetry only)."""
        if self._full:
            self.tags.update(tags)

    def adopt(self, span: "Span") -> None:
        """Attach an independently built span tree (worker merge-back)."""
        self.children.append(span)

    # -- queries --------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def stage_names(self) -> frozenset:
        """The set of stage names appearing anywhere in this trace."""
        return frozenset(span.name for span in self.walk())

    def find_all(self, name: str) -> List["Span"]:
        """Every span in the trace with the given stage name."""
        return [span for span in self.walk() if span.name == name]

    def counter_total(self, name: str) -> float:
        """Sum of one counter over the whole trace."""
        return sum(span.counters.get(name, 0) for span in self.walk())

    def stage_seconds(self) -> Dict[str, float]:
        """Total wall time per stage name across the trace.

        Nested stages each report their own wall time, so parent stages
        (``diagnosis``, ``component``) include their children's time —
        the timeline reads like a flame graph, not a partition.
        """
        totals: Dict[str, float] = {}
        for span in self.walk():
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-ready representation of the span tree."""
        payload: Dict = {"name": self.name, "duration_ms": self.duration * 1e3}
        if self.tags:
            payload["tags"] = dict(self.tags)
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    def format_tree(self, *, indent: int = 0, min_ms: float = 0.0) -> str:
        """Human-readable timeline (``repro trace`` output)."""
        lines = []
        label = self.name
        if self.tags:
            tagged = ",".join(f"{k}={v}" for k, v in sorted(self.tags.items()))
            label += f"[{tagged}]"
        line = f"{'  ' * indent}{label:<{max(1, 44 - 2 * indent)}} {self.duration * 1e3:9.2f} ms"
        if self.counters:
            line += "  " + " ".join(
                f"{k}={v:g}" for k, v in sorted(self.counters.items())
            )
        lines.append(line)
        for child in self.children:
            if child.duration * 1e3 >= min_ms:
                lines.append(child.format_tree(indent=indent + 1, min_ms=min_ms))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.2f} ms, "
            f"{len(self.children)} children)"
        )

    # -- pickling (``__slots__`` has no ``__dict__``) --------------------
    def __getstate__(self):
        return (
            self.name, self.tags, self.duration, self.counters,
            self.children, self._full,
        )

    def __setstate__(self, state):
        (self.name, self.tags, self.duration, self.counters,
         self.children, self._full) = state
        self._started = None


class _NullSpan:
    """Shared no-op span: the entire cost of ``telemetry="off"``.

    Every method returns the singleton itself (or does nothing), so
    instrumented call sites allocate no spans and read no clocks.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def child(self, name: str, **tags) -> "_NullSpan":
        return self

    def count(self, name: str, n: float = 1) -> None:
        pass

    def tag(self, **tags) -> None:
        pass

    def adopt(self, span) -> None:
        pass


#: The singleton no-op span used wherever telemetry is off.
NULL_SPAN = _NullSpan()


class Tracer:
    """Produces root spans and aggregates finished traces.

    Args:
        mode: ``"timings"`` or ``"full"`` (``"off"`` is served by
            :class:`NullTracer` — use :func:`make_tracer`).
        registry: The :class:`~repro.obs.registry.MetricsRegistry`
            finished traces are aggregated into; defaults to the
            process-wide :func:`~repro.obs.registry.default_registry`.
    """

    enabled = True

    def __init__(self, mode: str = "full", registry=None) -> None:
        if mode not in ("timings", "full"):
            raise ConfigurationError(
                f"tracer mode {mode!r} is not supported: choose 'timings' "
                "or 'full' ('off' means no tracer at all)"
            )
        self.mode = mode
        if registry is None:
            from repro.obs.registry import default_registry

            registry = default_registry()
        self.registry = registry

    def span(self, name: str, **tags) -> Span:
        """A fresh root span (not attached to anything)."""
        return Span(name, tags, full=self.mode == "full")

    def observe(self, trace: Span) -> None:
        """Aggregate one finished trace into the metrics registry."""
        from repro.obs.registry import aggregate_trace

        aggregate_trace(trace, self.registry)


class NullTracer:
    """The ``telemetry="off"`` tracer: hands out :data:`NULL_SPAN`."""

    enabled = False
    mode = "off"
    registry = None

    def span(self, name: str, **tags) -> _NullSpan:
        return NULL_SPAN

    def observe(self, trace) -> None:
        pass


#: Shared no-op tracer instance.
NULL_TRACER = NullTracer()


def make_tracer(mode: str, registry=None):
    """Build the tracer for a ``FChainConfig.telemetry`` value."""
    if mode == "off":
        return NULL_TRACER
    if mode not in TELEMETRY_MODES:
        raise ConfigurationError(
            f"telemetry={mode!r} is not supported: choose one of "
            f"{TELEMETRY_MODES}"
        )
    return Tracer(mode, registry=registry)


__all__ = [
    "EDGE_STAGES",
    "NULL_SPAN",
    "NULL_TRACER",
    "PIPELINE_STAGES",
    "SERVICE_STAGES",
    "TELEMETRY_MODES",
    "STAGE_BURST",
    "STAGE_COMPONENT",
    "STAGE_CUSUM",
    "STAGE_DIAGNOSIS",
    "STAGE_DISPATCH",
    "STAGE_DRAIN",
    "STAGE_EDGE_REQUEST",
    "STAGE_METRIC",
    "STAGE_OUTLIERS",
    "STAGE_PINPOINT",
    "STAGE_ROLLBACK",
    "STAGE_SERVICE_TICK",
    "STAGE_SLO_EVAL",
    "STAGE_SMOOTHING",
    "STAGE_STORE_SYNC",
    "STAGE_VALIDATION",
    "NullTracer",
    "Span",
    "Tracer",
    "make_tracer",
]
