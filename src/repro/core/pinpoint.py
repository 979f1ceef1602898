"""Integrated faulty-component pinpointing (paper Sec. II-C).

Three steps:

1. derive the abnormal change propagation chain by sorting onset times;
2. pinpoint the chain source; later components whose onsets fall within
   the concurrency threshold of a pinpointed component are concurrent
   faults;
3. for the remaining suspicious components, use the inter-component
   dependency graph to decide whether their anomaly is explained by
   propagation from a pinpointed component — if no (consistently
   directed) dependency path exists, the propagation is spurious and the
   component carries an independent fault.

Additionally, when *every* component is abnormal with a common monotone
trend, the anomaly is attributed to an external factor (workload surge,
shared-service problem) and nothing inside the application is blamed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

import networkx as nx

from repro.common.types import ComponentId, Metric
from repro.core.config import FChainConfig
from repro.core.dependency import propagation_path_exists
from repro.core.propagation import ComponentReport, PropagationChain, build_chain


@dataclass
class PinpointResult:
    """Outcome of integrated fault diagnosis.

    Attributes:
        faulty: Pinpointed faulty components (empty when nothing is
            abnormal or an external factor is inferred).
        external_factor: True when the anomaly was attributed to an
            external cause (workload change / shared service).
        chain: The abnormal change propagation chain that was analysed.
        reports: Per-component slave reports (all components, including
            normal ones).
        skipped: Components the slaves could not examine — no metric
            had enough recorded history or met the coverage floor. They
            are neither faulty nor known-normal.
        trace: The diagnosis-wide telemetry span tree (each component's
            span tree adopted into it), or None when telemetry is off.
            Excluded from equality.
        analyzed: Components the slaves actually examined for this
            result, or None when diagnosis ran unscoped (the default
            full fan-out). Set by the master in topology-guided
            neighborhood mode; excluded from equality.
        escalated: True when a neighborhood-scoped diagnosis had to
            widen to the full component set because the scoped result
            could not rule out a culprit outside the neighborhood.
            Excluded from equality.
    """

    faulty: FrozenSet[ComponentId]
    external_factor: bool
    chain: PropagationChain
    reports: Dict[ComponentId, ComponentReport] = field(default_factory=dict)
    skipped: FrozenSet[ComponentId] = frozenset()
    trace: Optional[object] = field(default=None, compare=False, repr=False)
    analyzed: Optional[FrozenSet[ComponentId]] = field(
        default=None, compare=False
    )
    escalated: bool = field(default=False, compare=False)

    def implicated_metrics(self, component: ComponentId) -> List[Metric]:
        """Abnormal metrics of a pinpointed component (for validation)."""
        report = self.reports.get(component)
        return report.implicated_metrics if report else []

    @property
    def skipped_reasons(self) -> Dict[ComponentId, str]:
        """Why each skipped component could not be examined."""
        reasons: Dict[ComponentId, str] = {}
        for component in self.skipped:
            report = self.reports.get(component)
            reason = getattr(report, "skip_reason", None) if report else None
            reasons[component] = reason or "insufficient recorded history"
        return reasons

    @property
    def quality(self) -> Dict[ComponentId, object]:
        """Per-component data-quality reports, where the slaves built one."""
        return {
            component: report.quality
            for component, report in self.reports.items()
            if getattr(report, "quality", None) is not None
        }

    def summary(self) -> str:
        """Human-readable diagnosis summary (for logs and operators)."""
        if self.external_factor:
            return (
                "external factor: all components shifted together "
                "(workload change or shared-service problem); no "
                "application component pinpointed"
            )
        if not self.chain.links:
            text = "no abnormal changes found in the look-back window"
            if self.skipped:
                reasons = self.skipped_reasons
                detail = ", ".join(
                    f"{component} ({reasons[component]})"
                    for component in sorted(self.skipped)
                )
                text += f"; skipped: {detail}"
                text += (
                    "\nverdict is inconclusive: the skipped components "
                    "could not be ruled out"
                )
            return text
        lines = ["abnormal change propagation chain:"]
        for component, onset in self.chain.links:
            report = self.reports.get(component)
            metrics = (
                ", ".join(str(m) for m in report.implicated_metrics)
                if report
                else ""
            )
            marker = "  <-- FAULTY" if component in self.faulty else ""
            lines.append(
                f"  {component} @ t={onset}s ({metrics}){marker}"
            )
        lines.append(f"pinpointed: {sorted(self.faulty)}")
        if self.skipped:
            reasons = self.skipped_reasons
            detail = ", ".join(
                f"{component} ({reasons[component]})"
                for component in sorted(self.skipped)
            )
            lines.append(f"skipped: {detail}")
        return "\n".join(lines)


def _external_factor(
    reports: Sequence[ComponentReport],
    trend_fraction: float,
    max_onset_spread: float,
) -> bool:
    """All components abnormal, one shared trend, near-simultaneous onset?

    An external cause (workload surge, shared NFS/network problem) hits
    every component through the same channel at the same time, so besides
    the paper's conditions — every component abnormal with a common
    upward or downward trend — the onsets must be tightly clustered. A
    fault *cascade* can eventually touch every component too, but its
    onsets are ordered by propagation and spread over many seconds.
    """
    if not reports:
        return False
    abnormal = [r for r in reports if r.is_abnormal]
    if len(abnormal) < len(reports):
        return False
    trends = [r.trend for r in abnormal]
    share_up = sum(1 for t in trends if t > 0) / len(trends)
    if max(share_up, 1.0 - share_up) < trend_fraction:
        return False
    # The onsets of *every* abnormal component must cluster: an external
    # shift hits everything at once, whereas a fault cascade's culprit
    # manifests well before its victims — that early onset is exactly the
    # evidence that the anomaly originates inside the application.
    onsets = [r.onset_time for r in abnormal]
    return max(onsets) - min(onsets) <= max_onset_spread


def pinpoint_faulty_components(
    reports: Sequence[ComponentReport],
    config: FChainConfig,
    dependency_graph: Optional[nx.DiGraph] = None,
) -> PinpointResult:
    """Run the integrated pinpointing algorithm.

    Args:
        reports: One report per monitored component (normal components
            included, with empty abnormal-change lists).
        config: FChain configuration (concurrency threshold, external
            trend fraction).
        dependency_graph: Black-box discovered dependency graph in
            request-flow direction, or None/empty when discovery found
            nothing (FChain then falls back to pure propagation order).

    Returns:
        The pinpointing result.
    """
    by_name = {r.component: r for r in reports}
    chain = build_chain(reports)
    skipped = frozenset(r.component for r in reports if r.skipped)

    if not chain.links:
        return PinpointResult(
            faulty=frozenset(),
            external_factor=False,
            chain=chain,
            reports=by_name,
            skipped=skipped,
        )

    external_spread = max(5.0, 2.0 * config.concurrency_threshold)
    if _external_factor(
        reports, config.external_trend_fraction, external_spread
    ):
        return PinpointResult(
            faulty=frozenset(),
            external_factor=True,
            chain=chain,
            reports=by_name,
            skipped=skipped,
        )

    have_dependencies = (
        dependency_graph is not None and dependency_graph.number_of_edges() > 0
    )

    source, source_onset = chain.links[0]
    faulty = {source}
    onsets = {component: onset for component, onset in chain.links}

    for component, onset in chain.links[1:]:
        distance = min(abs(onset - onsets[f]) for f in faulty)
        if distance <= config.concurrency_threshold:
            # Too close to be explained by propagation: a concurrent fault.
            faulty.add(component)
            continue
        if have_dependencies:
            explained = any(
                propagation_path_exists(dependency_graph, f, component)
                for f in faulty
            )
            if not explained:
                # No dependency path from any pinpointed component: the
                # inferred propagation is spurious, so this component's
                # anomaly must be an independent fault (Fig. 5).
                faulty.add(component)

    return PinpointResult(
        faulty=frozenset(faulty),
        external_factor=False,
        chain=chain,
        reports=by_name,
        skipped=skipped,
    )
