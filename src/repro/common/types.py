"""Core identifier and value types shared across the library.

FChain treats each guest VM as one *component* and monitors six system-level
metrics per component at a 1-second sampling interval (paper Sec. III-A).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional


class Metric(enum.Enum):
    """The six black-box system-level metrics FChain monitors per VM.

    These mirror the libxenstat/libvirt attributes listed in the paper:
    cpu usage, memory usage, network in, network out, disk read, disk write.
    """

    CPU_USAGE = "cpu_usage"
    MEMORY_USAGE = "memory_usage"
    NETWORK_IN = "network_in"
    NETWORK_OUT = "network_out"
    DISK_READ = "disk_read"
    DISK_WRITE = "disk_write"

    def __str__(self) -> str:
        return self.value


#: All monitored metrics in a stable order (used for vectorized storage).
METRIC_NAMES = tuple(Metric)


# A component is identified by a plain string (e.g. "web", "app1", "PE3").
# Using a NewType-like alias keeps signatures self-describing without
# imposing a wrapper object on hot paths.
ComponentId = str


@dataclass(frozen=True)
class MetricSample:
    """One sampled metric value.

    Attributes:
        component: The component (guest VM) the sample belongs to.
        metric: Which of the six system metrics was sampled.
        time: Sample timestamp in simulated seconds.
        value: The sampled value (units depend on the metric: percent for
            CPU, MB for memory, KB/s for network and disk rates).
    """

    component: ComponentId
    metric: Metric
    time: int
    value: float


class TickSamples(Sequence):
    """One tick's metric samples, held as columns.

    The network edge decodes a push straight into these: ``components``,
    ``metrics`` and ``values`` are parallel lists (``Metric`` members and
    Python floats), and every sample carries the tick's ``time``.
    :meth:`MetricStore.ingest <repro.monitoring.store.MetricStore.ingest>`
    reads the columns directly; to everyone else this is a read-only
    sequence of :class:`MetricSample`, built on demand, that compares
    equal to the list of the same samples and pickles by its columns.
    """

    __slots__ = ("time", "components", "metrics", "values")

    def __init__(
        self,
        time: int,
        components: List[ComponentId],
        metrics: List[Metric],
        values: List[float],
    ) -> None:
        self.time = time
        self.components = components
        self.metrics = metrics
        self.values = values

    @classmethod
    def of(cls, samples: Sequence) -> Optional["TickSamples"]:
        """``samples`` as one tick's columns: ``samples`` itself when it
        already is one, None when there are none or they do not share
        one time."""
        if isinstance(samples, TickSamples):
            return samples
        times = [s.time for s in samples]
        if not times or times.count(times[0]) != len(times):
            return None
        return cls(
            times[0],
            [s.component for s in samples],
            [s.metric for s in samples],
            [s.value for s in samples],
        )

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        return MetricSample(
            self.components[index], self.metrics[index], self.time, self.values[index]
        )

    def __iter__(self):
        return map(
            MetricSample, self.components, self.metrics, repeat(self.time), self.values
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, TickSamples):
            return list(self) == list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __reduce__(self):
        return TickSamples, (self.time, self.components, self.metrics, self.values)

    def __repr__(self) -> str:
        return f"TickSamples({list(self)!r})"
