"""Parallel slave fan-out for the incremental diagnosis engine.

The paper's slaves live on separate nodes and analyse their components
concurrently; the master merely collects their reports. In this
reproduction every slave analysis is a method call on shared in-process
state, so :class:`SlavePool` restores the paper's concurrency: it fans
per-component ``analyze()`` calls out across a thread pool while
keeping the master's view deterministic — reports always come back in
component order, no matter which worker finished first.

Thread safety relies on two properties of
:class:`~repro.core.fchain.FChainSlave`: the shared online-model state
is warmed *serially* (one ``sync_with_store`` pass) before the fan-out,
so workers only read it; and per-component analysis touches only that
component's ``(component, metric)`` cache keys, so concurrent workers
never write the same entry. Serial and threaded analyses therefore
produce identical reports.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.types import ComponentId
from repro.core.propagation import ComponentReport
from repro.monitoring.store import MetricStore
from repro.obs.trace import NULL_SPAN, STAGE_STORE_SYNC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.fchain import FChainSlave


class SlavePool:
    """Fan per-component slave analyses out across a thread pool.

    Args:
        slave: The (stateful, incremental) slave whose ``analyze`` is
            fanned out; its warm model state is shared by all workers.
        jobs: Worker count. ``None``, 0 or 1 analyse serially on the
            calling thread (the default — fully deterministic and free of
            pool overhead); ``>= 2`` enables the concurrent fan-out.
        timeout: Optional per-slave timeout in seconds. A slave that has
            not produced its report within the timeout (counted from when
            the master starts waiting on it; earlier waits overlap later
            slaves' compute) is abandoned and its component reported as
            ``skipped`` with a timeout ``skip_reason`` — diagnosis latency
            stays bounded even if one component's analysis wedges.
    """

    def __init__(
        self,
        slave: "FChainSlave",
        *,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        if jobs is not None and jobs < 0:
            raise ConfigurationError("jobs must be >= 0 (0/1 mean serial)")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("timeout must be positive seconds")
        self.slave = slave
        self.jobs = jobs
        self.timeout = timeout

    # ------------------------------------------------------------------
    def analyze_all(
        self,
        store: MetricStore,
        violation_time: int,
        components: Optional[Sequence[ComponentId]] = None,
        *,
        span=NULL_SPAN,
    ) -> Tuple[List[ComponentReport], FrozenSet[ComponentId]]:
        """Analyse every component's look-back window before ``t_v``.

        Args:
            span: Optional parent telemetry span (the diagnosis root).
                The master-side warm sync is timed under it and every
                worker's finished component span tree is adopted into
                it, so a fanned-out diagnosis is still one trace.

        Returns:
            ``(reports, timed_out)`` — one report per component in sorted
            component order (timed-out components get an empty, skipped
            report), plus the set of components that hit the timeout.
        """
        ordered = (
            sorted(components) if components is not None else store.components
        )
        if self.jobs is None or self.jobs <= 1 or len(ordered) <= 1:
            reports = [
                self.slave.analyze(store, component, violation_time)
                for component in ordered
            ]
            timed_out: FrozenSet[ComponentId] = frozenset()
        else:
            reports, timed_out = self._analyze_parallel(
                store, violation_time, ordered, span=span
            )
        for report in reports:
            if report.trace is not None:
                span.adopt(report.trace)
        return reports, timed_out

    def _analyze_parallel(
        self,
        store: MetricStore,
        violation_time: int,
        ordered: Sequence[ComponentId],
        *,
        span=NULL_SPAN,
    ) -> Tuple[List[ComponentReport], FrozenSet[ComponentId]]:
        """Submit one analysis per component and gather them in order.

        A component whose report is not ready within ``timeout`` is
        abandoned and reported as skipped.
        """
        # Warm the shared online models serially so the concurrent
        # analyses only read slave state (see module docstring).
        horizon = violation_time + self.slave.config.analysis_grace + 1
        with span.child(STAGE_STORE_SYNC, scope="warm") as sync_span:
            self.slave.sync_with_store(store, horizon)
            sync_span.count("components_warmed", len(store.components))

        executor = ThreadPoolExecutor(
            max_workers=min(self.jobs, len(ordered)),
            thread_name_prefix="fchain-slave",
        )
        results: Dict[ComponentId, ComponentReport] = {}
        timed_out: List[ComponentId] = []
        try:
            futures = [
                executor.submit(
                    self.slave.analyze, store, component, violation_time
                )
                for component in ordered
            ]
            for component, future in zip(ordered, futures):
                try:
                    results[component] = future.result(timeout=self.timeout)
                except FutureTimeoutError:
                    future.cancel()
                    timed_out.append(component)
                    results[component] = ComponentReport(
                        component=component,
                        skipped=True,
                        skip_reason=(
                            f"analysis timed out ({self.timeout:g}s timeout)"
                        ),
                    )
        finally:
            # Never block the master on an abandoned worker: queued
            # futures are cancelled, running ones finish in the
            # background without being waited for.
            executor.shutdown(wait=not timed_out, cancel_futures=True)
        return [results[component] for component in ordered], frozenset(timed_out)


__all__ = ["SlavePool"]
