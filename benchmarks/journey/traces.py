"""Seeded columnar trace generator shared by the synthetic workloads.

``steady_push``, ``incident_push`` and ``fleet_inproc`` all replay
traces made here; the program under test only ever receives the
generated inputs (push bodies or ``TickBatch`` objects), never the
seed. Every series is the same workload-like signal
``repro.eval.bench.synthetic_store`` uses — slow sinusoid + long drift
+ Gaussian noise + sparse benign flash bursts, with a gentler swing (see
``SWING``) — held as one
``(ticks, components, metrics)`` array so a tick, a push body or a
whole run is a slice.

**Fault rotation.** A fault is a ``FAULT_TICKS``-tick level shift of
``+-FAULT_SHIFT`` on one series, with the SLO signal degrading
``SLO_LAG`` ticks later. Fault ``k`` hits combination ``k`` of the
distinct (component, metric, sign) triples: a *repeated* identical
fault is learned as normal by the warm Markov model (its second
occurrence on the same series returns an empty verdict), so a workload
that wants every verdict correct must not repeat one.

Same arguments, same arrays, byte-identical push bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.common.types import METRIC_NAMES, Metric, MetricSample
from repro.service.sources import TickBatch

#: Amplitude of each series' slow sinusoid. ``synthetic_store`` uses 8.0;
#: with only a few hundred ticks of history the warm model has seen less
#: than two periods and reads a look-back window on the sinusoid's steep
#: flank as a slow abnormal trend (about 1 verdict in 100 then blamed
#: ``c0`` instead of the injected culprit; none in 3 000 at 3.0).
SWING = 3.0
#: Level shift of an injected fault, in metric units (noise sigma 1.1).
FAULT_SHIFT = 30.0
#: Ticks an injected level shift lasts.
FAULT_TICKS = 60
#: Ticks between the metric shift and the SLO signal degrading.
SLO_LAG = 2
#: SLO signal when healthy / while a fault is active (threshold 0.1).
PERF_HEALTHY = 0.010
PERF_DEGRADED = 0.500
#: Threshold and sustain of the detector every synthetic workload uses.
SLO_THRESHOLD = 0.1
SLO_SUSTAIN = 5
#: Decimals kept per value: what a collector would put on the wire.
VALUE_DECIMALS = 4


@dataclass(frozen=True)
class Fault:
    """One injected level shift and the verdict it should produce."""

    index: int
    tick: int
    component: str
    metric: Metric
    sign: int

    @property
    def slo_tick(self) -> int:
        """First tick the SLO signal is degraded."""
        return self.tick + SLO_LAG

    @property
    def clear_tick(self) -> int:
        """First healthy tick after the fault."""
        return self.tick + FAULT_TICKS


@dataclass
class Trace:
    """A generated run: metric values, SLO signal, injected faults.

    Attributes:
        components: Component names, in column order.
        metrics: Monitored metrics, in column order.
        values: ``(ticks, components, metrics)`` metric values.
        performance: ``(ticks,)`` SLO signal.
        faults: Injected faults, by tick.
    """

    components: Tuple[str, ...]
    metrics: Tuple[Metric, ...]
    values: np.ndarray
    performance: np.ndarray
    faults: Tuple[Fault, ...] = ()

    @property
    def samples_per_tick(self) -> int:
        return len(self.components) * len(self.metrics)


def rotation(components: int, metrics: int, index: int) -> Tuple[int, int, int]:
    """Combination ``index`` of the distinct (component, metric, sign).

    Consecutive indices walk the components first, so back-to-back
    faults never land on the same component.
    """
    component = index % components
    metric = (index // components) % metrics
    sign = 1 if (index // (components * metrics)) % 2 == 0 else -1
    return component, metric, sign


def generate(
    seed,
    *,
    ticks: int,
    components: int,
    metrics: int,
    fault_ticks: Sequence[int] = (),
    rotation_offset: int = 0,
    prefix: str = "c",
) -> Trace:
    """Generate one trace.

    Args:
        seed: Anything ``numpy.random.default_rng`` accepts.
        ticks: Length of the trace.
        components: Component count (named ``{prefix}0`` ...).
        metrics: Metrics per component (first of the canonical order).
        fault_ticks: Onset tick of each injected fault, ascending.
        rotation_offset: Index of the first fault's combination.
        prefix: Component name prefix.
    """
    if not 1 <= metrics <= len(METRIC_NAMES):
        raise ValueError(f"metrics must be in [1, {len(METRIC_NAMES)}]")
    if len(fault_ticks) > components * metrics * 2:
        raise ValueError(
            f"{len(fault_ticks)} faults but only {components * metrics * 2} "
            "distinct (component, metric, sign) combinations"
        )
    rng = np.random.default_rng(seed)
    t = np.arange(ticks, dtype=float)[:, None, None]
    c = np.arange(components, dtype=float)[None, :, None]
    m = np.arange(metrics, dtype=float)[None, None, :]
    shape = (ticks, components, metrics)
    values = (
        40.0 + 6.0 * c + 3.0 * m
        + SWING * np.sin(2 * np.pi * t / (240.0 + 15.0 * c))
        + 1.0 * np.sin(2 * np.pi * t / 1900.0)
        + rng.normal(0.0, 1.1, shape)
    )
    bursts = rng.random(shape) < 0.004
    values[bursts] += rng.uniform(5.0, 12.0, int(bursts.sum()))
    performance = PERF_HEALTHY * (1.0 + 0.1 * rng.random(ticks))

    names = tuple(f"{prefix}{i}" for i in range(components))
    faults: List[Fault] = []
    for index, onset in enumerate(fault_ticks):
        ci, mi, sign = rotation(components, metrics, rotation_offset + index)
        values[onset : onset + FAULT_TICKS, ci, mi] += sign * FAULT_SHIFT
        performance[onset + SLO_LAG : onset + FAULT_TICKS] = PERF_DEGRADED
        faults.append(Fault(index, int(onset), names[ci], METRIC_NAMES[mi], sign))
    return Trace(
        components=names,
        metrics=tuple(METRIC_NAMES[:metrics]),
        values=np.round(values, VALUE_DECIMALS),
        performance=np.round(performance, 6),
        faults=tuple(faults),
    )


def encode_push(trace: Trace, start: int, stop: int) -> bytes:
    """The JSON body of one push carrying ticks ``[start, stop)``."""
    heads = [
        f'{{"component":"{component}","metric":"{metric.value}","time":'
        for component in trace.components
        for metric in trace.metrics
    ]
    rows = trace.values[start:stop].reshape(stop - start, -1).tolist()
    samples = ",".join(
        f'{head}{tick},"value":{value!r}}}'
        for tick, row in zip(range(start, stop), rows)
        for head, value in zip(heads, row)
    )
    points = ",".join(
        f'{{"time":{tick},"value":{value!r}}}'
        for tick, value in zip(
            range(start, stop), trace.performance[start:stop].tolist()
        )
    )
    return f'{{"samples":[{samples}],"performance":[{points}]}}'.encode()


def encode_pushes(trace: Trace, start: int, stop: int, chunk: int) -> List[bytes]:
    """Pre-encoded bodies of ``chunk`` ticks each covering ``[start, stop)``."""
    return [
        encode_push(trace, offset, min(offset + chunk, stop))
        for offset in range(start, stop, chunk)
    ]


def materialise(trace: Trace, start: int, stop: int) -> List[TickBatch]:
    """Ticks ``[start, stop)`` as the ``TickBatch`` objects a feed yields."""
    keys = [
        (component, metric)
        for component in trace.components
        for metric in trace.metrics
    ]
    rows = trace.values[start:stop].reshape(stop - start, -1).tolist()
    performance = trace.performance[start:stop].tolist()
    return [
        TickBatch(
            time=tick,
            samples=[
                MetricSample(component, metric, tick, value)
                for (component, metric), value in zip(keys, row)
            ],
            performance=performance[tick - start],
        )
        for tick, row in zip(range(start, stop), rows)
    ]
