"""Metric storage and SLO detection.

The FChain slaves continuously sample six system metrics per guest VM at
1 Hz; the application side exposes an SLO signal (response time, job
progress, or per-tuple processing time). This package holds the metric
store both sides share and the SLO detectors that trigger diagnosis.

The supported write surface is :meth:`MetricStore.ingest` fed with
:class:`IngestBatch` / :class:`IngestRun`. A store has two ingest modes,
not a policy language: ``MetricStore(policy=DataQualityPolicy())`` is
tolerant (gaps, NaN, skew and late delivery are repaired or recorded),
``MetricStore()`` is strict (every defect raises). Import those names
from here — ``repro.monitoring.store`` internals are not a stable
surface.
"""

from repro.monitoring.quality import (
    DataQualityPolicy,
    DataQualityReport,
    SeriesQuality,
)
from repro.monitoring.slo import (
    LatencySLO,
    ProgressSLO,
    SLODetector,
    SLOStatus,
)
from repro.monitoring.store import IngestBatch, IngestRun, MetricStore

__all__ = [
    "DataQualityPolicy",
    "DataQualityReport",
    "IngestBatch",
    "IngestRun",
    "LatencySLO",
    "MetricStore",
    "ProgressSLO",
    "SeriesQuality",
    "SLODetector",
    "SLOStatus",
]
