"""Campaign runner: execute fault-injection runs, score every scheme.

Each run simulates one application with one materialized fault campaign,
waits for the SLO violation, and produces a :class:`RunRecord`. All
schemes then analyse the *same* record, so their precision/recall numbers
are directly comparable — mirroring how the paper evaluates every scheme
over the same application runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence

import networkx as nx

from repro.apps.base import Application
from repro.apps.hadoop import HadoopApplication
from repro.apps.rubis import RubisApplication
from repro.apps.systems import SystemSApplication
from repro.baselines.base import LocalizationContext, Localizer
from repro.common.types import ComponentId
from repro.core.config import FChainConfig
from repro.core.dependency import discover_dependencies
from repro.core.fchain import FChain
from repro.eval.metrics import PrecisionRecall, RocPoint
from repro.eval.scenarios import Scenario
from repro.monitoring.store import MetricStore

#: Post-violation margin simulated so the analysis grace window and the
#: online validation have data/state to work with.
POST_VIOLATION_MARGIN = 40

_PROFILES = {
    "rubis": lambda: RubisApplication(seed=999, duration=240, record_packets=True),
    "systems": lambda: SystemSApplication(
        seed=999, duration=240, record_packets=True
    ),
    "hadoop": lambda: HadoopApplication(seed=999, record_packets=True),
}

_GRAPH_CACHE: Dict[str, nx.DiGraph] = {}


def dependency_graph_for(app_name: str) -> nx.DiGraph:
    """Offline black-box dependency discovery for one application type.

    The paper runs discovery offline on accumulated traces and stores the
    result (Sec. II-C footnote 3); here the profiling run is executed once
    per application type and cached for the whole process.
    """
    if app_name not in _GRAPH_CACHE:
        app = _PROFILES[app_name]()
        app.run(240)
        _GRAPH_CACHE[app_name] = discover_dependencies(app.packet_trace).graph
    return _GRAPH_CACHE[app_name]


@dataclass
class RunRecord:
    """One completed fault-injection run.

    Attributes:
        scenario: The scenario that produced the run.
        seed: Run seed.
        app: The application (still live; used by online validation).
        violation_time: First SLO violation at/after injection.
        injection_time: When the fault campaign fired.
        ground_truth: Components a perfect localizer should pinpoint.
    """

    scenario: Scenario
    seed: object
    app: Application
    violation_time: int
    injection_time: int
    ground_truth: FrozenSet[ComponentId]

    @property
    def store(self) -> MetricStore:
        return self.app.store


def execute_run(scenario: Scenario, seed: object) -> Optional[RunRecord]:
    """Simulate one run of a scenario; None when no violation occurred.

    The application runs until the first SLO violation after the fault
    injection plus a small margin, or gives up after ``scenario.max_wait``
    post-injection seconds (load-dependent faults occasionally need a
    workload peak that never arrives in the window).
    """
    app = scenario.make_app(seed)
    faults, t_inject, truth = scenario.campaign.materialize(seed)
    for fault in faults:
        app.inject(fault)
    app.run(t_inject)
    violation: Optional[int] = None
    deadline = t_inject + scenario.max_wait
    while app.time < deadline:
        app.run(min(25, deadline - app.time))
        violation = app.slo.first_violation_after(t_inject)
        if violation is not None:
            break
    if violation is None:
        return None
    margin = violation + POST_VIOLATION_MARGIN - app.time
    if margin > 0:
        app.run(margin)
    return RunRecord(
        scenario=scenario,
        seed=seed,
        app=app,
        violation_time=violation,
        injection_time=t_inject,
        ground_truth=truth,
    )


def generate_runs(
    scenario: Scenario, n_runs: int, *, base_seed: object = "eval"
) -> List[RunRecord]:
    """Generate ``n_runs`` completed runs (skipping violation-free seeds)."""
    records: List[RunRecord] = []
    seed_index = 0
    while len(records) < n_runs and seed_index < 4 * n_runs + 10:
        record = execute_run(scenario, (base_seed, scenario.name, seed_index))
        seed_index += 1
        if record is not None:
            records.append(record)
    return records


def context_for(scenario: Scenario, record: RunRecord) -> LocalizationContext:
    """Build the scheme-facing context for one run."""
    config = FChainConfig()
    if scenario.look_back_window:
        config = config.with_window(scenario.look_back_window)
    return LocalizationContext(
        config=config,
        topology=record.app.topology,
        dependency_graph=dependency_graph_for(scenario.app_name),
        slo_component=scenario.slo_component,
        seed=record.seed,
    )


class FChainLocalizer(Localizer):
    """FChain wrapped in the common scheme interface."""

    name = "FChain"

    def _localize(
        self,
        store: MetricStore,
        *,
        violation_time: int,
        context: LocalizationContext,
    ) -> FrozenSet[ComponentId]:
        fchain = FChain(
            context.config,
            dependency_graph=context.dependency_graph,
            seed=context.seed,
        )
        return fchain.localize(store, violation_time=violation_time).faulty


class FChainValidatedLocalizer(Localizer):
    """FChain with online pinpointing validation (``FChain+VAL``).

    Needs the live application to fork, so it is fed through
    :func:`evaluate_schemes`, which passes the whole run record.
    """

    name = "FChain+VAL"

    def __init__(self) -> None:
        self._record: Optional[RunRecord] = None

    def bind(self, record: RunRecord) -> None:
        self._record = record

    def _localize(
        self,
        store: MetricStore,
        *,
        violation_time: int,
        context: LocalizationContext,
    ) -> FrozenSet[ComponentId]:
        if self._record is None:
            raise RuntimeError("FChain+VAL needs a bound run record")
        fchain = FChain(
            context.config,
            dependency_graph=context.dependency_graph,
            seed=context.seed,
        )
        diagnosis = fchain.localize(
            store, violation_time=violation_time, validate_with=self._record.app
        )
        return diagnosis.faulty


def evaluate_schemes(
    scenario: Scenario,
    schemes: Sequence[Localizer],
    n_runs: int = 10,
    *,
    base_seed: object = "eval",
    records: Optional[List[RunRecord]] = None,
) -> Dict[str, PrecisionRecall]:
    """Run a scenario and score every scheme on the same runs.

    Returns:
        Precision/recall accumulators keyed by scheme name.
    """
    records = records if records is not None else generate_runs(
        scenario, n_runs, base_seed=base_seed
    )
    results = {scheme.name: PrecisionRecall() for scheme in schemes}
    for record in records:
        context = context_for(scenario, record)
        for scheme in schemes:
            if isinstance(scheme, FChainValidatedLocalizer):
                scheme.bind(record)
            pinpointed = scheme.localize(
                record.store,
                violation_time=record.violation_time,
                context=context,
            )
            results[scheme.name].update(pinpointed, record.ground_truth)
    return results


def sweep_thresholds(
    scenario: Scenario,
    scheme_factory: Callable[[float], Localizer],
    thresholds: Iterable[float],
    n_runs: int = 10,
    *,
    base_seed: object = "eval",
    records: Optional[List[RunRecord]] = None,
) -> List[RocPoint]:
    """ROC sweep for a threshold-parameterized scheme over shared runs."""
    records = records if records is not None else generate_runs(
        scenario, n_runs, base_seed=base_seed
    )
    points: List[RocPoint] = []
    for threshold in thresholds:
        scheme = scheme_factory(threshold)
        accumulator = PrecisionRecall()
        for record in records:
            context = context_for(scenario, record)
            pinpointed = scheme.localize(
                record.store,
                violation_time=record.violation_time,
                context=context,
            )
            accumulator.update(pinpointed, record.ground_truth)
        points.append(
            RocPoint(threshold, accumulator.precision, accumulator.recall)
        )
    return points
