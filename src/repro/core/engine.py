"""Parallel slave fan-out for the incremental diagnosis engine.

The paper's slaves live on separate nodes and analyse their components
concurrently; the master merely collects their reports. In this
reproduction every slave analysis is a method call on shared in-process
state, so :class:`SlavePool` restores the paper's concurrency: it fans
per-component ``analyze()`` calls out across a
:mod:`concurrent.futures` pool while keeping the master's view
deterministic — reports always come back in component order, no matter
which worker finished first.

Two executors are available, chosen by ``FChainConfig.executor``:

* ``"thread"`` (default) shares the warm slave state across a thread
  pool. Thread safety relies on two properties of
  :class:`~repro.core.fchain.FChainSlave`: the shared online-model state
  is warmed *serially* (one ``sync_with_store`` pass) before the
  fan-out, so workers only read it; and per-component analysis touches
  only that component's ``(component, metric)`` cache keys, so
  concurrent workers never write the same entry.
* ``"process"`` escapes the GIL for the Python-heavy parts of selection:
  the store is exported once into a ``multiprocessing.shared_memory``
  segment (:mod:`repro.monitoring.shared`) and worker processes attach
  zero-copy views of it. Each worker replays the history it needs into a
  fresh slave, one chunk per series along the model bank's time axis.
  The bank ends in the same state however a stream is chunked — the
  time axis, the series axis a warm slave advances along and the scalar
  rule are bit-identical, and a gap severs the Markov chain wherever
  chunk boundaries fall — so the replay equals the master's warm slave
  and both executors produce identical reports (asserted by
  ``tests/core/test_process_executor.py``).
"""

from __future__ import annotations

import multiprocessing
import warnings
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError
from repro.common.types import ComponentId
from repro.core.propagation import ComponentReport
from repro.monitoring.shared import SharedStoreExport, SharedStoreHandle, attach_store
from repro.monitoring.store import MetricStore
from repro.obs.trace import NULL_SPAN, STAGE_STORE_SYNC

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.fchain import FChainSlave


#: Per-worker-process cache: shared segment name -> (attached store, slave).
#: One diagnosis uses one segment, so the cache is cleared whenever a new
#: segment shows up — worker memory stays bounded by one store view.
_WORKER_STATE: Dict[str, tuple] = {}


def fork_available() -> bool:
    """Whether the ``fork`` multiprocessing start method exists here.

    The process executor requires fork: workers must inherit the
    imported modules and attach the shared-memory store in a few
    milliseconds, which ``spawn`` cannot do. POSIX platforms have it;
    Windows (and some sandboxed runtimes) do not.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def _process_analyze(
    handle: SharedStoreHandle,
    config,
    seed: object,
    component: ComponentId,
    violation_time: int,
) -> ComponentReport:
    """Analyse one component inside a pool worker.

    Module-level so it pickles by reference under any start method. The
    attached store and a fresh slave are cached per shared segment: every
    component the worker handles for one diagnosis reuses one attachment
    and one progressively warmed slave. The fresh slave replays exactly
    the samples ``analyze`` needs, which the model bank's chunk
    invariance (see the module docstring) makes bit-identical to the
    thread executor's long-lived warm slave.
    """
    state = _WORKER_STATE.get(handle.shm_name)
    if state is None:
        from repro.core.fchain import FChainSlave  # local: import cycle

        _WORKER_STATE.clear()
        state = (attach_store(handle), FChainSlave(config, seed=seed))
        _WORKER_STATE[handle.shm_name] = state
    store, slave = state
    return slave.analyze(store, component, violation_time)


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Finalizer target: reap a pool whose owner was garbage-collected."""
    pool.shutdown(wait=False, cancel_futures=True)


class SlavePool:
    """Fan per-component slave analyses out across a worker pool.

    Args:
        slave: The (stateful, incremental) slave whose ``analyze`` is
            fanned out. In thread mode its warm model state is shared by
            all workers; in process mode its config/seed parameterize the
            per-worker slaves.
        jobs: Worker count. ``None``, 0 or 1 analyse serially on the
            calling thread (the default — fully deterministic and free of
            pool overhead); ``>= 2`` enables the concurrent fan-out.
        timeout: Optional per-slave timeout in seconds. A slave that has
            not produced its report within the timeout (counted from when
            the master starts waiting on it; earlier waits overlap later
            slaves' compute) is abandoned and its component reported as
            ``skipped`` with a timeout ``skip_reason`` — diagnosis latency
            stays bounded even if one component's analysis wedges.

    The executor (``"thread"`` or ``"process"``, see the module
    docstring) is the slave config's ``executor`` field. Both produce
    identical reports, ordering and ``skipped`` semantics. The process
    pool is kept alive across ``analyze_all`` calls; call :meth:`close`
    (or let the pool be garbage-collected) to reap the workers.
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
        executor = slave.config.validate().executor
        if executor == "process" and not fork_available():
            warnings.warn(
                "executor='process' needs the 'fork' multiprocessing "
                "start method, which this platform does not provide "
                f"(available: {multiprocessing.get_all_start_methods()}); "
                "falling back to the thread executor",
                RuntimeWarning,
                stacklevel=2,
            )
            executor = "thread"
        self.slave = slave
        self.jobs = jobs
        self.timeout = timeout
        self.executor = executor
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._finalizer: Optional[weakref.finalize] = None

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
                Master-side data preparation (warm sync / shared-memory
                export) is timed under it and every worker's finished
                component span tree is adopted into it — both executors
                merge back into one diagnosis trace.

        Returns:
            ``(reports, timed_out)`` — one report per component in sorted
            component order (timed-out components get an empty, skipped
            report), plus the set of components that hit the timeout.
        """
        ordered = (
            sorted(components) if components is not None else store.components
        )
        if self.jobs is None or self.jobs <= 1 or len(ordered) <= 1:
            reports, timed_out = self._analyze_serial(
                store, violation_time, ordered
            )
        elif self.executor == "process":
            reports, timed_out = self._analyze_process(
                store, violation_time, ordered, span=span
            )
        else:
            reports, timed_out = self._analyze_parallel(
                store, violation_time, ordered, span=span
            )
        for report in reports:
            if report.trace is not None:
                span.adopt(report.trace)
        return reports, timed_out

    def _analyze_serial(
        self,
        store: MetricStore,
        violation_time: int,
        ordered: Sequence[ComponentId],
    ) -> Tuple[List[ComponentReport], FrozenSet[ComponentId]]:
        reports = [
            self.slave.analyze(store, component, violation_time)
            for component in ordered
        ]
        return reports, frozenset()

    def _analyze_parallel(
        self,
        store: MetricStore,
        violation_time: int,
        ordered: Sequence[ComponentId],
        *,
        span=NULL_SPAN,
    ) -> Tuple[List[ComponentReport], FrozenSet[ComponentId]]:
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
        # Never block the master on an abandoned worker: queued futures
        # are cancelled, running ones finish in the background without
        # being waited for.
        return self._collect(
            ordered,
            lambda component: executor.submit(
                self.slave.analyze, store, component, violation_time
            ),
            release=lambda wedged: executor.shutdown(
                wait=not wedged, cancel_futures=True
            ),
        )

    def _analyze_process(
        self,
        store: MetricStore,
        violation_time: int,
        ordered: Sequence[ComponentId],
        *,
        span=NULL_SPAN,
    ) -> Tuple[List[ComponentReport], FrozenSet[ComponentId]]:
        with span.child(STAGE_STORE_SYNC, scope="export") as export_span:
            export = SharedStoreExport(store)
            export_span.count("components_exported", len(store.components))
        config, seed = self.slave.config, self.slave.seed
        try:
            executor = self._process_pool(len(ordered))
            return self._collect(
                ordered,
                lambda component: executor.submit(
                    _process_analyze,
                    export.handle,
                    config,
                    seed,
                    component,
                    violation_time,
                ),
                release=self._release_process_pool,
            )
        finally:
            # Unlinking only removes the segment's name; workers that
            # already attached (including abandoned ones) keep reading
            # valid memory until their own mappings go away.
            export.close()

    def _collect(
        self,
        ordered: Sequence[ComponentId],
        submit: Callable[[ComponentId], Future],
        *,
        release: Callable[[bool], None],
    ) -> Tuple[List[ComponentReport], FrozenSet[ComponentId]]:
        """Submit one analysis per component and gather them in order.

        A component whose report is not ready within ``timeout`` is
        abandoned and reported as skipped. ``release(wedged)`` runs
        however collection ends; ``wedged`` says whether any worker was
        abandoned still running.
        """
        results: Dict[ComponentId, ComponentReport] = {}
        timed_out: List[ComponentId] = []
        try:
            futures = [submit(component) for component in ordered]
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
            release(bool(timed_out))
        return [results[component] for component in ordered], frozenset(timed_out)

    # ------------------------------------------------------------------
    # Process-pool lifecycle
    # ------------------------------------------------------------------
    def _process_pool(self, wanted: int) -> ProcessPoolExecutor:
        """The cached worker-process pool, (re)created on demand."""
        workers = min(self.jobs, wanted)
        if self._pool is not None and self._pool_workers < workers:
            self._discard_process_pool(wait=True)
        if self._pool is None:
            if not fork_available():  # pragma: no cover - non-POSIX
                raise ConfigurationError(
                    "the process executor requires the 'fork' start "
                    "method; SlavePool should have fallen back to "
                    "executor='thread' at construction"
                )
            # Fork keeps worker start-up at a few ms and inherits the
            # imported modules.
            context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            )
            self._pool_workers = workers
            self._finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
        return self._pool

    def _release_process_pool(self, wedged: bool) -> None:
        if wedged:
            # A wedged worker must never poison a later diagnosis: drop
            # the whole pool without waiting on it — the next call forks
            # a fresh one.
            self._discard_process_pool(wait=False)

    def _discard_process_pool(self, wait: bool) -> None:
        if self._pool is None:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self._pool.shutdown(wait=wait, cancel_futures=True)
        self._pool = None
        self._pool_workers = 0

    def close(self) -> None:
        """Reap any cached worker processes (idempotent)."""
        self._discard_process_pool(wait=True)


__all__ = ["SlavePool"]
