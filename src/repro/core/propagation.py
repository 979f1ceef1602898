"""Abnormal change propagation analysis.

The FChain master assembles the slaves' per-component reports into a
propagation chain: components sorted by the onset time of their abnormal
changes. If C1's onset precedes C2's, the abnormal change is said to
propagate C1 -> C2 (paper Sec. II-C, Fig. 2's PE3 -> PE6 -> PE2 example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.common.types import ComponentId, Metric
from repro.core.selection import AbnormalChange


@dataclass
class ComponentReport:
    """One slave's findings for one component.

    Attributes:
        component: The component examined.
        abnormal_changes: Selected abnormal changes across all metrics
            (empty when the component looks normal).
        skipped: True when the slave could not analyse the component at
            all — no metric had enough recorded history, or no metric
            met the data-quality coverage floor. Such a component is
            *unknown*, not normal, and is surfaced through
            ``PinpointResult.skipped`` instead of being silently dropped.
        skip_reason: Human-readable reason when ``skipped`` is True
            (insufficient history / coverage below the policy floor).
            Excluded from equality — the verdict is defined by the data,
            not its narration.
        quality: The per-component
            :class:`~repro.monitoring.quality.DataQualityReport` of the
            analysis window (None for hand-built or pre-layer reports).
            Excluded from equality like ``trace``: two analyses agreeing
            on the abnormal changes are the same finding.
        trace: The telemetry span tree of this component's analysis, or
            None when telemetry is off. Excluded from equality — two
            analyses of the same data are the same report regardless of
            how long each stage took.
    """

    component: ComponentId
    abnormal_changes: List[AbnormalChange] = field(default_factory=list)
    skipped: bool = False
    skip_reason: Optional[str] = field(default=None, compare=False)
    quality: Optional[object] = field(default=None, compare=False, repr=False)
    trace: Optional[object] = field(default=None, compare=False, repr=False)

    @property
    def is_abnormal(self) -> bool:
        return bool(self.abnormal_changes)

    @property
    def onset_time(self) -> Optional[int]:
        """Earliest abnormal onset across metrics (paper Sec. II-B)."""
        if not self.abnormal_changes:
            return None
        return min(change.onset_time for change in self.abnormal_changes)

    @property
    def trend(self) -> Optional[int]:
        """Direction (+1/-1) of the earliest abnormal change."""
        if not self.abnormal_changes:
            return None
        earliest = min(self.abnormal_changes, key=lambda c: c.onset_time)
        return earliest.direction

    @property
    def implicated_metrics(self) -> List[Metric]:
        """Metrics with abnormal changes, earliest onset first."""
        ordered = sorted(self.abnormal_changes, key=lambda c: c.onset_time)
        seen: List[Metric] = []
        for change in ordered:
            if change.metric not in seen:
                seen.append(change.metric)
        return seen


@dataclass(frozen=True)
class PropagationChain:
    """Components ordered by abnormal onset time.

    Attributes:
        links: ``(component, onset_time)`` pairs, earliest first.
    """

    links: Tuple[Tuple[ComponentId, int], ...]

    @property
    def components(self) -> List[ComponentId]:
        return [component for component, _ in self.links]

    def onset_of(self, component: ComponentId) -> int:
        for name, onset in self.links:
            if name == component:
                return onset
        raise KeyError(component)

    def edges(self) -> List[Tuple[ComponentId, ComponentId]]:
        """Inferred propagation edges between consecutive chain links."""
        names = self.components
        return list(zip(names, names[1:]))


def build_chain(
    reports: Sequence[ComponentReport],
) -> PropagationChain:
    """Sort abnormal components into a propagation chain by onset time.

    Components with identical onsets are ordered by name for determinism.
    """
    abnormal = [r for r in reports if r.is_abnormal]
    ordered = sorted(abnormal, key=lambda r: (r.onset_time, r.component))
    return PropagationChain(
        links=tuple((r.component, r.onset_time) for r in ordered)
    )
