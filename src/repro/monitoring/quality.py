"""The tolerant ingest mode and data-quality reports for degraded telemetry.

FChain's algorithms assume clean 1 Hz samples from every VM; a
production collector sees missing samples, NaN readings, duplicated and
out-of-order deliveries, clock skew between slaves, and VMs joining or
leaving mid-window. This module is the vocabulary of the resilience
layer that lets the pipeline run on such telemetry with *graceful
degradation*:

* :class:`DataQualityPolicy` — the tolerant ingest mode and its fixed
  budgets (gap fill up to 10 ticks, a 10-tick skew and late window, a
  0.6 coverage floor); a store built without one is strict, and every
  defect raises;
* :class:`SeriesQuality` — mutable per-(component, metric) ingest
  counters kept by :class:`~repro.monitoring.store.MetricStore`;
* :class:`DataQualityReport` — the frozen per-component summary a
  :class:`~repro.core.propagation.ComponentReport` (and through it every
  :class:`~repro.core.diagnosis.Diagnosis`) carries, so operators can
  see *why* a verdict was degraded or inconclusive.

The critical invariant, regression-tested: on clean telemetry every
stage of the pipeline is bit-identical to a run without the layer —
the tolerant mode only changes behaviour where the data is already
broken.

Drop/fill/skew events are exported as counters through the existing
Prometheus registry (:mod:`repro.obs.registry`); clean ingest emits
nothing, so the hot path stays counter-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Confidence grades a component-level quality report can carry.
CONFIDENCE_FULL = "full"
CONFIDENCE_DEGRADED = "degraded"
CONFIDENCE_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DataQualityPolicy:
    """The tolerant ingest mode: a store built with one survives broken
    telemetry; a store built without one (``policy=None``) is strict.

    The tolerant store records a NaN/inf reading as a missing tick, pads
    a hole between the series head and an arriving sample, learns a
    constant per-series clock offset from the first sample, accepts
    late samples as backfill and keeps the first of two deliveries. The
    strict store raises :class:`~repro.common.errors.DataQualityError`
    on each of these, except that a series' very first sample may start
    mid-run (a late-joining VM); the prefix before it is missing.

    The budgets are constants, not settings:

    Attributes:
        max_gap: Longest run of consecutive missing ticks that is
            repaired, by interpolation between the observed neighbours
            (a forward pad when the sample closing the gap is itself
            invalid). Longer outages stay NaN (*unfillable*) and degrade
            the metric instead of being papered over.
        max_skew: A series whose first sample is at most this many
            ticks off the tick being delivered is clock-skew aligned;
            late samples no older than this behind the series head are
            still accepted as backfill.
        min_coverage: Fraction of a metric's look-back window that must
            be covered by *observed* (not filled) samples for the metric
            to take part in change-point selection; below it the metric
            is inconclusive. A component with no conclusive metric
            degrades to an inconclusive verdict rather than risking a
            mis-ranking built on mostly-synthesized data.
    """

    max_gap = 10
    max_skew = 10
    min_coverage = 0.6


@dataclass
class SeriesQuality:
    """Mutable ingest counters for one (component, metric) series.

    ``observed`` counts samples that landed with their own value;
    ``filled_*`` counts slots synthesized by the fill policy; ``missing``
    counts slots currently NaN (unfillable or not-yet-backfilled);
    ``invalid``/``late_dropped``/``duplicates`` count samples the policy
    dropped. ``skew_offset`` is the learned per-series clock offset
    (``None`` until the first sample arrives).
    """

    seen: int = 0
    observed: int = 0
    filled_forward: int = 0
    filled_interpolated: int = 0
    missing: int = 0
    invalid: int = 0
    duplicates: int = 0
    late_accepted: int = 0
    late_dropped: int = 0
    skew_offset: Optional[int] = None
    #: Slot index -> how the slot was synthesized ("missing"/"forward"/
    #: "interpolate"). Consulted when a late sample backfills the slot,
    #: and by the analysis side to exclude synthesized slots from the
    #: observed-coverage ratio.
    gap_slots: Dict[int, str] = field(default_factory=dict, repr=False)

    @property
    def filled(self) -> int:
        return self.filled_forward + self.filled_interpolated

    @property
    def dropped(self) -> int:
        return self.invalid + self.duplicates + self.late_dropped

    def snapshot(self) -> "SeriesQuality":
        """Detached copy (picklable, read-only use).

        The slot map is copied too: the analysis side consults it to
        tell genuinely observed samples from policy-synthesized ones.
        """
        return SeriesQuality(
            seen=self.seen,
            observed=self.observed,
            filled_forward=self.filled_forward,
            filled_interpolated=self.filled_interpolated,
            missing=self.missing,
            invalid=self.invalid,
            duplicates=self.duplicates,
            late_accepted=self.late_accepted,
            late_dropped=self.late_dropped,
            skew_offset=self.skew_offset,
            gap_slots=dict(self.gap_slots),
        )

    def merge(self, other: "SeriesQuality") -> None:
        """Accumulate another series' counters into this aggregate."""
        self.seen += other.seen
        self.observed += other.observed
        self.filled_forward += other.filled_forward
        self.filled_interpolated += other.filled_interpolated
        self.missing += other.missing
        self.invalid += other.invalid
        self.duplicates += other.duplicates
        self.late_accepted += other.late_accepted
        self.late_dropped += other.late_dropped


@dataclass(frozen=True)
class DataQualityReport:
    """Per-component data-quality summary attached to a diagnosis.

    Attributes:
        component: The component the report describes.
        samples_expected: Look-back-window slots the analysis wanted,
            summed over the component's metrics.
        samples_observed: Slots covered by genuinely observed values.
        samples_filled: Slots repaired by the fill policy (at ingest or
            at window extraction).
        samples_missing: Slots that stayed NaN (unfillable gaps,
            late-joining/leaving VM, truncated tail).
        samples_dropped: Ingest-side drops (invalid readings, stale late
            arrivals, duplicates) for this component's series.
        metrics_total: Metrics with enough recorded history to consider.
        metrics_analyzed: Metrics that passed the coverage floor and
            went through change-point selection.
        metrics_inconclusive: Metrics excluded for insufficient coverage
            or unfillable gaps inside the look-back window.
        coverage: ``samples_observed / samples_expected`` (1.0 when
            nothing was expected — an empty report is not degraded).
        confidence: ``"full"`` (clean data), ``"degraded"`` (analysis
            ran but on repaired/partial data) or ``"inconclusive"`` (no
            metric met the coverage floor; the component's verdict must
            not be trusted either way).
    """

    component: str
    samples_expected: int = 0
    samples_observed: int = 0
    samples_filled: int = 0
    samples_missing: int = 0
    samples_dropped: int = 0
    metrics_total: int = 0
    metrics_analyzed: int = 0
    metrics_inconclusive: int = 0
    coverage: float = 1.0
    confidence: str = CONFIDENCE_FULL

    @property
    def clean(self) -> bool:
        """True when no defect of any kind touched this component."""
        return (
            self.samples_filled == 0
            and self.samples_missing == 0
            and self.samples_dropped == 0
            and self.metrics_inconclusive == 0
        )

    @classmethod
    def build(
        cls,
        component: str,
        *,
        samples_expected: int,
        samples_observed: int,
        samples_filled: int,
        samples_missing: int,
        samples_dropped: int,
        metrics_total: int,
        metrics_analyzed: int,
        metrics_inconclusive: int,
    ) -> "DataQualityReport":
        """Derive coverage and the confidence grade from the raw counts."""
        coverage = (
            samples_observed / samples_expected if samples_expected else 1.0
        )
        if metrics_total and metrics_analyzed == 0:
            confidence = CONFIDENCE_INCONCLUSIVE
        elif (
            samples_filled
            or samples_missing
            or samples_dropped
            or metrics_inconclusive
        ):
            confidence = CONFIDENCE_DEGRADED
        else:
            confidence = CONFIDENCE_FULL
        return cls(
            component=component,
            samples_expected=samples_expected,
            samples_observed=samples_observed,
            samples_filled=samples_filled,
            samples_missing=samples_missing,
            samples_dropped=samples_dropped,
            metrics_total=metrics_total,
            metrics_analyzed=metrics_analyzed,
            metrics_inconclusive=metrics_inconclusive,
            coverage=coverage,
            confidence=confidence,
        )


# ---------------------------------------------------------------------
# Prometheus counters for ingest-time quality events
# ---------------------------------------------------------------------
class IngestMetrics:
    """Lazily created drop/fill/skew counters on a metrics registry.

    One instance is cached per policy-enabled store; counters are only
    touched when a defect actually occurs, so clean ingest pays nothing.
    """

    def __init__(self, registry=None) -> None:
        if registry is None:
            from repro.obs.registry import default_registry

            registry = default_registry()
        self.dropped = registry.counter(
            "fchain_ingest_dropped_total",
            "Samples dropped at ingestion by the data-quality policy",
            ("reason",),
        )
        self.filled = registry.counter(
            "fchain_ingest_filled_total",
            "Gap ticks synthesized by the fill policy",
            ("method",),
        )
        self.gap_ticks = registry.counter(
            "fchain_ingest_gap_ticks_total",
            "Gap ticks recorded as missing (unfilled) at ingestion",
        )
        self.backfilled = registry.counter(
            "fchain_ingest_backfilled_total",
            "Late out-of-order samples accepted into an open slot",
        )
        self.skew_aligned = registry.counter(
            "fchain_ingest_skew_aligned_total",
            "Series whose clock skew was detected and aligned",
        )


__all__ = [
    "CONFIDENCE_DEGRADED",
    "CONFIDENCE_FULL",
    "CONFIDENCE_INCONCLUSIVE",
    "DataQualityPolicy",
    "DataQualityReport",
    "IngestMetrics",
    "SeriesQuality",
]
