"""The deterministic synthetic store behind ``repro trace`` and the tests.

:func:`synthetic_store` builds a long-history :class:`MetricStore` of
workload-like series with one step fault near the end, so a diagnosis at
``store.end - 1`` has a genuine abnormal change to pinpoint. ``repro
trace``, ``benchmarks/bench_telemetry_overhead.py`` and the equivalence
tests (edge, fleet, service, chaos, telemetry) all diagnose it.

Performance is measured elsewhere, by one benchmark: the journey
(``BENCHMARK.json``, ``benchmarks/journey/``).
"""

from __future__ import annotations

import numpy as np

from repro.common.types import METRIC_NAMES
from repro.monitoring.store import MetricStore


def synthetic_store(
    *,
    samples: int = 10_000,
    components: int = 8,
    metrics: int = 3,
    seed: int = 7,
    fault_component: int = 0,
    fault_lead: int = 40,
) -> MetricStore:
    """A deterministic long-history store with one step fault at the end.

    Every series is a workload-like signal (slow sinusoid + diurnal drift
    + Gaussian noise + occasional flash bursts). One component receives a
    clear level shift ``fault_lead`` ticks before the end, so a diagnosis
    at ``store.end - 1`` has a genuine abnormal change to select.

    Args:
        samples: Ticks of recorded history.
        components: Number of components (``c0`` … ``c{n-1}``).
        metrics: Monitored metrics per component (first ``metrics``
            entries of the canonical metric order).
        seed: Deterministic RNG seed.
        fault_component: Index of the component that receives the fault.
        fault_lead: Ticks before the end at which the fault manifests.
    """
    if metrics < 1 or metrics > len(METRIC_NAMES):
        raise ValueError(f"metrics must be in [1, {len(METRIC_NAMES)}]")
    rng = np.random.default_rng(seed)
    t = np.arange(samples, dtype=float)
    data = {}
    for c in range(components):
        per_metric = {}
        for m, metric in enumerate(METRIC_NAMES[:metrics]):
            base = 40.0 + 6.0 * c + 3.0 * m
            signal = (
                base
                + 8.0 * np.sin(2 * np.pi * t / (240.0 + 15.0 * c))
                + 3.0 * np.sin(2 * np.pi * t / 1900.0)
                + rng.normal(0.0, 1.1, samples)
            )
            # Sparse benign flash bursts so the burst extractor has
            # realistic high-frequency content to calibrate against.
            bursts = rng.random(samples) < 0.004
            signal[bursts] += rng.uniform(5.0, 12.0, int(bursts.sum()))
            if c == fault_component and m == 0:
                signal[samples - fault_lead :] += 30.0
            per_metric[metric] = signal
        data[f"c{c}"] = per_metric
    return MetricStore.from_arrays(data)
