"""The four workloads of the sample's journey.

Each workload drives the program through its real public entry points
(``EdgeServer`` + ``EdgeClient`` over loopback, ``OnlinePipeline.process``,
``FleetSupervisor.ingest``) with inputs its generator made from the seed,
checks every verdict, and — in a traced run — replays a prefix hop by
hop for the layer ledger (:mod:`ledger`). See ``README.md`` for why
these four and which layer each isolates.

Sizes are fixed amounts of *work* derived from ``--seconds`` through the
nominal rates below (what the parent commit sustained on the 2-core
reference box), so two commits always see identical inputs; a faster
commit simply finishes sooner.
"""

from __future__ import annotations

import itertools
import pathlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

import ledger
import traces
from repro.apps.mesh import MeshApplication
from repro.common.types import MetricSample
from repro.core.config import FChainConfig
from repro.core.topology import OnlineTopology
from repro.edge.client import EdgeClient
from repro.edge.server import EdgeConfig, EdgeServer
from repro.edge.store import (
    IncidentStoreSink,
    MemoryIncidentStore,
    SqliteIncidentStore,
)
from repro.faults.library import BottleneckFault
from repro.fleet.supervisor import FleetConfig, FleetSupervisor
from repro.fleet.tenant import TenantRuntime, TenantSpec
from repro.monitoring.slo import LatencySLO
from repro.service.pipeline import OnlinePipeline
from repro.service.sources import SimFeed, TickBatch
from stats import median_and_tail, percentile

#: Where run-time files (SQLite stores, span files) go: inside the
#: benchmark's own directory, never outside the checkout.
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

JSON_HEADERS = {"Content-Type": "application/json"}
#: Edge ingest queue bound (the server default) and the closed-loop
#: window kept under it so a healthy run never sees a 429.
EDGE_QUEUE_DEPTH = 256
OUTSTANDING_TICKS = 200
DRAIN_TIMEOUT_S = 120.0

#: (component, first violation tick, one past the last) of one expected verdict.
Expected = Tuple[str, int, int]
#: (violation tick, pinpointed components) of one delivered verdict.
Verdict = Tuple[int, List[str]]


def synthetic_detector() -> LatencySLO:
    return LatencySLO(traces.SLO_THRESHOLD, sustain=traces.SLO_SUSTAIN)


def quiet_detector() -> LatencySLO:
    """A detector that never trips: whole-``process()`` timing passes
    must not start a diagnosis thread next to the ticks being timed."""
    return LatencySLO(1e9, sustain=traces.SLO_SUSTAIN)


def expected_of(faults: Sequence[traces.Fault]) -> List[Expected]:
    return [(f.component, f.slo_tick, f.clear_tick) for f in faults]


def check_verdicts(
    expected: Sequence[Expected], verdicts: Sequence[Verdict]
) -> Dict[str, int]:
    """Match delivered verdicts to injected faults.

    Returns counts of ``missing`` (a fault nobody diagnosed),
    ``duplicate`` (a second verdict for one fault), ``wrong`` (a verdict
    that does not name exactly the injected culprit) and ``spurious``
    (a verdict no fault explains), plus ``correct``.
    """
    counts = dict(correct=0, missing=0, duplicate=0, wrong=0, spurious=0)
    claimed = [0] * len(expected)
    for tick, faulty in verdicts:
        owner = next(
            (
                index
                for index, (_, first, last) in enumerate(expected)
                if first <= tick < last
            ),
            None,
        )
        if owner is None:
            counts["spurious"] += 1
            continue
        claimed[owner] += 1
        if claimed[owner] > 1:
            counts["duplicate"] += 1
        elif list(faulty) == [expected[owner][0]]:
            counts["correct"] += 1
        else:
            counts["wrong"] += 1
    counts["missing"] = sum(1 for n in claimed if n == 0)
    return counts


@dataclass
class Run:
    """Raw observations of one end-to-end (untraced) run.

    Attributes:
        samples: Metric samples delivered in the timed region.
        deliveries: Operations attempted (pushes, queries, ticks,
            tenant batches).
        wall_s: First timed delivery until fully drained.
        latencies_ms: The workload's headline latency, one per event.
        failures: Failed operations by kind.
        expected: Verdicts the injected faults should produce.
        verdicts: Verdicts the benchmark's own sink saw.
        done_at: Seconds from the start at which each delivery (push or
            tick) had completed — the untraced wall of any prefix.
        counters: End-to-end counters the ledger reports, keyed by
            their per-layer metric name.
        ingest_wall_s: Fleet only: the part of ``wall_s`` before
            ``close()``.
        dispatches: ``{tenant: {dispatched_tick: violation_tick}}`` as
            the run dispatched them (tenant ``""`` outside the fleet).
    """

    samples: int = 0
    deliveries: int = 0
    wall_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    failures: Dict[str, int] = field(default_factory=dict)
    expected: List[Expected] = field(default_factory=list)
    verdicts: List[Verdict] = field(default_factory=list)
    done_at: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    ingest_wall_s: float = 0.0
    dispatches: Dict[str, Dict[int, int]] = field(default_factory=dict)
    verdict_counts: Dict[str, int] = field(default_factory=dict)

    def fail(self, kind: str, count: int = 1) -> None:
        if count:
            self.failures[kind] = self.failures.get(kind, 0) + int(count)

    def saw(self, seen: Sequence[Tuple[float, str, object]]) -> None:
        """Record how the run dispatched each verdict its sink saw."""
        for _, tenant, incident in seen:
            self.dispatches.setdefault(tenant, {})[
                incident.dispatched_tick
            ] = incident.violation_tick

    def judge(self) -> None:
        """Check the verdicts and fold what is wrong into ``failures``."""
        self.verdict_counts = check_verdicts(self.expected, self.verdicts)
        for kind in ("missing", "duplicate", "wrong", "spurious"):
            self.fail(f"verdict_{kind}", self.verdict_counts[kind])

    @property
    def attempted(self) -> int:
        return self.deliveries + len(self.expected)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class _Sink:
    """Benchmark-owned incident sink: stamps when each verdict arrives."""

    def __init__(self) -> None:
        self.seen: List[Tuple[float, str, object]] = []

    def __call__(self, *args) -> None:
        tenant, incident = args if len(args) == 2 else ("", args[0])
        self.seen.append((time.perf_counter(), tenant, incident))


class Workload:
    """One named workload: generate → build → drive → (trace).

    ``generate`` runs once; ``build`` brings a fresh system under test
    up to its first timed delivery (warm-up included) and may be called
    again after ``teardown`` — the runner builds several times and
    reports the median, so one slow start does not move ``setup_s``.
    """

    name = ""
    #: What ``latency_*`` measures on this workload.
    latency_of = ""

    def __init__(self, seed: int, seconds: float, quick: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.quick = quick

    def generate(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def drive(self) -> Run:
        raise NotImplementedError

    def trace(
        self, run: Run, recorder: ledger.SpanRecorder
    ) -> Tuple[Dict[str, float], int]:
        """Hop-by-hop replay of a prefix: per-layer metrics, and how
        many of the replay's own verdicts were wrong."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# HTTP push workloads
# ----------------------------------------------------------------------
class _PushWorkload(Workload):
    """Shared by the two workloads that enter through ``POST /v1/ingest``.

    One generator thread, one keep-alive connection; bodies are encoded
    during set-up so the timed loop spends no time generating.
    """

    components = 0
    metrics = 6
    chunk = 0  # ticks per push
    warm_ticks = 0
    trace_pushes = 0  # timed pushes the traced replay covers
    _stores = 0  # incident stores opened so far (one file each)

    def _generate(self, ticks: int, fault_ticks: Sequence[int]) -> None:
        self.trace_data = traces.generate(
            self.seed,
            ticks=ticks,
            components=self.components,
            metrics=self.metrics,
            fault_ticks=fault_ticks,
        )
        self.bodies = traces.encode_pushes(self.trace_data, 0, ticks, self.chunk)
        self.warm_pushes = self.warm_ticks // self.chunk

    def _incident_store(self):
        return MemoryIncidentStore()

    def build(self) -> None:
        self.sink = _Sink()
        self.incident_store = self._incident_store()
        self.server = EdgeServer(
            EdgeConfig(port=0, queue_depth=EDGE_QUEUE_DEPTH),
            incident_store=self.incident_store,
        )
        self.server.attach_pipeline(
            synthetic_detector(),
            fchain_config=FChainConfig(),
            seed=self.seed,
            sinks=[self.sink],
        )
        self.server.start()
        self.client = EdgeClient("127.0.0.1", self.server.port)
        self.pushed_ticks = 0
        for body in self.bodies[: self.warm_pushes]:
            self._await_window()
            status = self._push(body)
            if status != 202:
                raise RuntimeError(f"warm-up push refused with {status}")
        self._await_ticks(self.pushed_ticks)

    def teardown(self) -> None:
        self.client.close()
        self.server.close()

    def _await_window(self) -> None:
        """Closed-loop flow control: wait until one more push keeps at
        most OUTSTANDING_TICKS in flight (under the edge queue bound)."""
        pipeline = self.server.pipeline
        limit = OUTSTANDING_TICKS - self.chunk
        while self.pushed_ticks - pipeline.ticks > limit:
            time.sleep(0.0002)

    def _push(self, body: bytes) -> int:
        status = self.client.request(
            "POST", "/v1/ingest", body=body, headers=JSON_HEADERS
        ).status
        if status == 202:
            self.pushed_ticks += self.chunk
        return status

    def _await_ticks(self, ticks: int) -> None:
        pipeline = self.server.pipeline
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while pipeline.ticks < ticks:
            if self.server.pipeline_error or time.monotonic() > deadline:
                raise RuntimeError(
                    f"pipeline stuck at {pipeline.ticks}/{ticks} ticks: "
                    f"{self.server.pipeline_error}"
                )
            time.sleep(0.0005)

    def _finish(self, run: Run, pushes: int) -> None:
        """Failure counts and edge/service counters common to both."""
        pipeline = self.server.pipeline
        run.deliveries += pushes
        run.samples = pushes * self.chunk * self.trace_data.samples_per_tick
        run.verdicts = [(i.violation_tick, i.faulty) for _, _, i in self.sink.seen]
        run.saw(self.sink.seen)
        run.fail("pipeline_failures", len(pipeline.failures))
        run.fail("triggers_dropped", pipeline.dropped)
        run.fail("pipeline_error", 1 if self.server.pipeline_error else 0)
        sent_bytes = sum(len(body) for body in self.bodies[self.warm_pushes :])
        run.counters.update(
            {
                "edge.requests": run.deliveries,
                "edge.shed_429": run.failures.get("push_429", 0),
                "edge.push_bytes_per_sample": sent_bytes / run.samples,
                "service.warm_sync_skipped": pipeline.warm_sync_skipped,
                "service.triggers_dropped": pipeline.dropped,
            }
        )
        run.judge()

    def trace(self, run, recorder):
        # The replay starts from an empty store, so it also re-ingests
        # the warm-up pushes the end-to-end run delivered during set-up.
        bodies = list(enumerate(self.bodies[: self.warm_pushes + self.trace_pushes]))
        last_tick = len(bodies) * self.chunk
        dispatch_at = {
            dispatched: violation
            for dispatched, violation in run.dispatches.get("", {}).items()
            if dispatched < last_tick
        }
        incident_store = self._incident_store()

        def replay(rec) -> ledger.HopReplay:
            return ledger.HopReplay(
                rec,
                config=FChainConfig(),
                seed=self.seed,
                detector=synthetic_detector(),
                dispatch_at=dispatch_at,
                sink=IncidentStoreSink(incident_store),
            )

        traced, twin = replay(recorder), replay(ledger.NullRecorder())
        quiet = OnlinePipeline(
            iter(()), quiet_detector(), config=FChainConfig(), seed=self.seed
        )
        turn = 10  # pushes per turn
        traced_s, untraced_s, process_s = ledger.interleave(
            [
                (traced.push, bodies, turn),
                (twin.push, bodies, turn),
                (
                    quiet.process,
                    traces.materialise(self.trace_data, 0, last_tick),
                    turn * self.chunk,
                ),
            ]
        )
        for closing in (traced, twin, quiet, incident_store):
            closing.close()
        shutil.rmtree(OUT_DIR / "tmp", ignore_errors=True)
        layers = ledger.layer_metrics(
            recorder,
            [traced],
            traced_wall=traced_s,
            untraced_wall=untraced_s,
            e2e_wall=run.done_at[self.trace_pushes - 1] * len(bodies) / self.trace_pushes,
            whole_process_seconds=process_s,
            whole_process_until=last_tick,
        )
        verdicts = [(i.violation_tick, i.faulty) for i in traced.incidents]
        wrong = len(verdicts) - check_verdicts(run.expected, verdicts)["correct"]
        return layers, wrong + (len(verdicts) != len(dispatch_at))


class SteadyPush(_PushWorkload):
    """Closed-loop JSON pushes, SLO never trips: edge + loop capacity."""

    name = "steady_push"
    latency_of = "POST /v1/ingest sent -> 202 read"
    components = 8
    chunk = 20
    warm_ticks = 200
    trace_pushes = 150
    #: Ticks/s the parent commit sustained (48 samples per tick).
    nominal_ticks_per_s = 950

    def generate(self) -> None:
        if self.quick:
            timed, self.trace_pushes = 400, 10
        else:
            timed = int(self.seconds * self.nominal_ticks_per_s)
        self._generate(self.warm_ticks + timed - timed % self.chunk, ())

    def drive(self) -> Run:
        run = Run()
        bodies = self.bodies[self.warm_pushes :]
        clock = time.perf_counter
        started = clock()
        for body in bodies:
            self._await_window()  # flow control, not push latency
            sent = clock()
            status = self._push(body)
            done = clock()
            run.latencies_ms.append((done - sent) * 1e3)
            run.done_at.append(done - started)
            if status != 202:
                run.fail("push_429" if status == 429 else "push_refused")
        self._await_ticks(self.pushed_ticks)
        run.wall_s = clock() - started
        self._finish(run, len(bodies))
        return run


class IncidentPush(_PushWorkload):
    """Open-loop pushes at ~20 % of capacity with rotated faults:
    diagnosis and incident persistence do the work, and interleaved
    queries read the store the sink is writing."""

    name = "incident_push"
    latency_of = "due time of the push carrying the violation tick -> verdict at the sink"
    components = 4
    chunk = 10
    warm_ticks = 400
    fault_period = 240
    pushes_per_s = 40
    query_every = 5
    trace_faults = 6

    def generate(self) -> None:
        if self.quick:
            faults, self.trace_faults = 3, 2
        else:
            ticks_per_s = self.pushes_per_s * self.chunk
            faults = int(self.seconds * ticks_per_s / self.fault_period)
        self.trace_pushes = self.trace_faults * self.fault_period // self.chunk
        onsets = [
            self.warm_ticks + k * self.fault_period + self.fault_period // 2
            for k in range(faults)
        ]
        self._generate(self.warm_ticks + faults * self.fault_period, onsets)

    def _incident_store(self):
        directory = OUT_DIR / "tmp"
        directory.mkdir(parents=True, exist_ok=True)
        self._stores += 1
        return SqliteIncidentStore(directory / f"incidents_{self._stores}.sqlite")

    def teardown(self) -> None:
        super().teardown()
        shutil.rmtree(OUT_DIR / "tmp", ignore_errors=True)

    def drive(self) -> Run:
        run = Run(expected=expected_of(self.trace_data.faults))
        bodies = self.bodies[self.warm_pushes :]
        clock = time.perf_counter
        interval = 1.0 / self.pushes_per_s
        late_ms: List[float] = []
        push_ms: List[float] = []
        query_ms: List[float] = []
        due_at: List[float] = []
        started = clock() + 0.05
        for index, body in enumerate(bodies):
            due = started + index * interval
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            late_ms.append(max(0.0, (clock() - due) * 1e3))
            status = self._push(body)
            done = clock()
            due_at.append(due)
            push_ms.append((done - due) * 1e3)
            run.done_at.append(done - started)
            if status != 202:
                run.fail("push_429" if status == 429 else "push_refused")
            if (index + 1) % self.query_every == 0:
                asked = clock()
                response = self.client.request("GET", "/v1/incidents?limit=10")
                query_ms.append((clock() - asked) * 1e3)
                run.deliveries += 1
                if response.status != 200:
                    run.fail("query_refused")
        self.client.wait_drained(self.pushed_ticks, timeout=DRAIN_TIMEOUT_S)
        run.wall_s = clock() - started

        trigger_wait_ms: List[float] = []
        for seen_at, _, incident in self.sink.seen:
            push = (incident.violation_tick - self.warm_ticks) // self.chunk
            verdict_ms = (seen_at - due_at[push]) * 1e3
            run.latencies_ms.append(verdict_ms)
            trigger_wait_ms.append(
                verdict_ms - incident.diagnosis.latency_seconds * 1e3
            )
        self._finish(run, len(bodies))
        # Every verdict must be readable back through the REST surface.
        listed = self.client.incidents(limit=len(run.verdicts) + 10)
        readable = sorted((r["violation_tick"], r["faulty"]) for r in listed)
        if readable != sorted(run.verdicts):
            run.fail("unreadable_incidents")
        run.counters.update(
            {
                "edge.incident_query_ms": statistics.median(query_ms),
                "edge.push_ms_p50": statistics.median(push_ms),
                "loadgen.late_p99_ms": percentile(late_ms, 99.0),
                "service.trigger_wait_ms": statistics.median(trigger_wait_ms)
                if trigger_wait_ms
                else 0.0,
            }
        )
        return run


# ----------------------------------------------------------------------
# In-process mesh
# ----------------------------------------------------------------------
class MeshInproc(Workload):
    """100-service mesh replayed through ``OnlinePipeline.process``:
    wide ticks, so warm sync and topology co-movement dominate."""

    name = "mesh_inproc"
    latency_of = "one OnlinePipeline.process(batch) call"
    services = 100
    top_k = 15
    halflife = 300.0
    warm_ticks = 20
    #: The mesh wiring, its workload trace and therefore the violation
    #: are properties of the *mesh* seed, and only some seeds produce a
    #: clean single-culprit violation inside the run (prototyped at this
    #: size: 1-4 and 7-12 do; 5 never violates, 6 and 12345 blame a
    #: neighbour). The scenario is pinned to one that does; ``--seed``
    #: perturbs every sample the program receives instead.
    mesh_seed = 7
    jitter_sigma = 1e-3
    nominal_ticks_per_s = 35
    min_ticks = 600
    fault_lead = 220
    trace_prefix = 150

    def generate(self) -> None:
        if self.quick:
            self.services, self.top_k = 30, 10
            ticks, self.fault_lead, self.trace_prefix = 420, 200, 40
        else:
            ticks = max(
                self.min_ticks, int(self.seconds * self.nominal_ticks_per_s)
            )
        fault_at = ticks - self.fault_lead
        # The generated load depends on the trace's total duration, so it
        # is pinned relative to the driven ticks (as bench_topology does).
        app = MeshApplication(
            seed=self.mesh_seed, services=self.services, duration=ticks + 500
        )
        self.target = app.default_fault_target()
        app.inject(
            BottleneckFault(fault_at, self.target, cap=app.bottleneck_cap(self.target))
        )
        self.gateway = app.gateway
        self.slo_threshold = app.slo_threshold
        rng = np.random.default_rng(self.seed)
        self.batches: List[TickBatch] = []
        for batch in SimFeed(app, duration=ticks):
            jitter = 1.0 + self.jitter_sigma * rng.standard_normal(len(batch.samples))
            batch.samples = [
                MetricSample(s.component, s.metric, s.time, s.value * j)
                for s, j in zip(batch.samples, jitter.tolist())
            ]
            self.batches.append(batch)
        self.expected = [(self.target, fault_at, ticks)]

    def _config(self) -> FChainConfig:
        return FChainConfig(
            topology_mode="neighborhood", topology_top_k=self.top_k
        )

    def _detector(self) -> LatencySLO:
        return LatencySLO(self.slo_threshold, sustain=10)

    def _pipeline(self, detector, sinks=()) -> OnlinePipeline:
        return OnlinePipeline(
            iter(()),
            detector,
            config=self._config(),
            seed=self.seed,
            sinks=list(sinks),
            topology=OnlineTopology(halflife=self.halflife),
            origin=self.gateway,
        )

    def build(self) -> None:
        self.sink = _Sink()
        self.pipeline = self._pipeline(self._detector(), [self.sink])
        for batch in self.batches[: self.warm_ticks]:
            self.pipeline.process(batch)

    def teardown(self) -> None:
        self.pipeline.close()

    def drive(self) -> Run:
        run = Run(expected=list(self.expected))
        pipeline = self.pipeline
        batches = self.batches[self.warm_ticks :]
        clock = time.perf_counter
        started = clock()
        for batch in batches:
            before = clock()
            pipeline.process(batch)
            done = clock()
            run.latencies_ms.append((done - before) * 1e3)
            run.done_at.append(done - started)
        pipeline.close()
        run.wall_s = clock() - started
        run.deliveries = len(batches)
        run.samples = sum(len(batch.samples) for batch in batches)
        analyzed, escalations = 0, 0
        for _, _, incident in self.sink.seen:
            run.verdicts.append((incident.violation_tick, incident.faulty))
            analyzed = max(analyzed, len(incident.diagnosis.analyzed or ()))
            escalations += int(incident.diagnosis.escalated)
        run.saw(self.sink.seen)
        run.fail("pipeline_failures", len(pipeline.failures))
        run.fail("triggers_dropped", pipeline.dropped)
        run.fail("escalations", escalations)
        run.fail("scope_exceeded", 1 if analyzed > self.top_k else 0)
        run.counters.update(
            {
                "service.warm_sync_skipped": pipeline.warm_sync_skipped,
                "service.triggers_dropped": pipeline.dropped,
            }
        )
        run.judge()
        return run

    def trace(self, run, recorder):
        # The verdict is part of the journey, so the traced replay runs
        # through the dispatch tick; its untraced twin and the whole-
        # process() pass only need enough ticks for a stable per-tick cost.
        dispatch_at = run.dispatches.get("", {})
        last = max(dispatch_at, default=self.trace_prefix - 1) + 1
        prefix = self.batches[: self.trace_prefix]

        def replay(rec, dispatches) -> ledger.HopReplay:
            return ledger.HopReplay(
                rec,
                config=self._config(),
                seed=self.seed,
                detector=self._detector(),
                dispatch_at=dispatches,
                topology=OnlineTopology(halflife=self.halflife),
                origin=self.gateway,
            )

        traced = replay(recorder, dispatch_at)
        twin = replay(ledger.NullRecorder(), {})
        quiet = self._pipeline(quiet_detector())
        turn = 25  # ticks per turn
        traced_s, untraced_prefix_s, process_s = ledger.interleave(
            [
                (traced.tick, self.batches[:last], turn),
                (twin.tick, prefix, turn),
                (quiet.process, prefix, turn),
            ]
        )
        for closing in (traced, twin, quiet):
            closing.close()
        traced_prefix_s = sum(
            recorder.durations(ledger.HARNESS_TICK, self.trace_prefix)
        )
        layers = ledger.layer_metrics(
            recorder,
            [traced],
            traced_wall=traced_s,
            untraced_wall=traced_s * untraced_prefix_s / traced_prefix_s,
            e2e_wall=run.done_at[last - self.warm_ticks - 1]
            * last / (last - self.warm_ticks),
            whole_process_seconds=process_s,
            whole_process_until=self.trace_prefix,
        )
        wrong = sum(1 for i in traced.incidents if i.faulty != [self.target])
        return layers, wrong + (len(traced.incidents) != len(dispatch_at))


# ----------------------------------------------------------------------
# In-process fleet
# ----------------------------------------------------------------------
class FleetInproc(Workload):
    """Many small tenants through ``FleetSupervisor.ingest``: routing,
    queues, dispatch and the second tick state machine."""

    name = "fleet_inproc"
    latency_of = "ingest of the violating tick -> verdict at the fleet sink"
    components = 4
    metrics = 3
    ticks = 400
    warm_ticks = 20
    shards = 2
    fault_every = 4
    #: Onsets start late enough for the models to be warm: with faults
    #: from tick 150 about one early verdict in ten blamed a neighbour.
    fault_window = (230, 330)
    nominal_tenants_per_s = 6
    trace_tenants = 8

    def generate(self) -> None:
        if self.quick:
            tenants, self.ticks, self.fault_window = 8, 340, (230, 280)
            self.trace_tenants = 2
        else:
            tenants = max(
                self.fault_every, int(self.seconds * self.nominal_tenants_per_s)
            )
        self.tenants = [f"t-{i:04d}" for i in range(tenants)]
        self.batches: Dict[str, List[TickBatch]] = {}
        self.faults: Dict[str, traces.Fault] = {}
        first, last = self.fault_window
        faulted = -(-tenants // self.fault_every)
        for index, tenant in enumerate(self.tenants):
            # Every fault_every-th tenant gets one fault; onsets are
            # staggered over the window and the (component, metric,
            # sign) rotates from tenant to tenant.
            k, has_fault = divmod(index, self.fault_every)
            onsets = () if has_fault else (first + k * (last - first) // faulted,)
            trace = traces.generate(
                (self.seed, index),
                ticks=self.ticks,
                components=self.components,
                metrics=self.metrics,
                fault_ticks=onsets,
                rotation_offset=k,
            )
            self.batches[tenant] = traces.materialise(trace, 0, self.ticks)
            if trace.faults:
                self.faults[tenant] = trace.faults[0]

    def _spec(self, tenant: str, detector) -> TenantSpec:
        return TenantSpec(
            tenant=tenant,
            detector=detector,
            config=FChainConfig(),
            seed=(self.seed, tenant),
        )

    def _supervisor(self, sinks=()) -> FleetSupervisor:
        # A long route timeout turns shedding into blocking: the closed
        # loop's back-pressure.
        return FleetSupervisor(
            FleetConfig(shards=self.shards, backend="thread", route_timeout=60.0),
            sinks=list(sinks),
        )

    def build(self) -> None:
        self.sink = _Sink()
        self.supervisor = self._supervisor([self.sink])
        # The thread backend runs the spec's own detector object, so its
        # newest observed tick says how far the tenant has got.
        detectors = [synthetic_detector() for _ in self.tenants]
        for tenant, detector in zip(self.tenants, detectors):
            self.supervisor.add_tenant(self._spec(tenant, detector))
        for t in range(self.warm_ticks):
            for tenant in self.tenants:
                if not self.supervisor.ingest(tenant, self.batches[tenant][t]):
                    raise RuntimeError("warm-up batch shed")
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        last = self.warm_ticks - 1
        while any(not d.ticks or d.ticks[-1] < last for d in detectors):
            if time.monotonic() > deadline:
                raise RuntimeError("fleet warm-up did not drain")
            time.sleep(0.001)

    def teardown(self) -> None:
        self.supervisor.close()

    def drive(self) -> Run:
        run = Run()
        supervisor = self.supervisor
        clock = time.perf_counter
        tick_started: Dict[int, float] = {}
        shed = 0
        started = clock()
        for t in range(self.warm_ticks, self.ticks):
            tick_started[t] = clock()
            for tenant in self.tenants:
                if not supervisor.ingest(tenant, self.batches[tenant][t]):
                    shed += 1
            run.done_at.append(clock() - started)
        ingest_done = clock()
        supervisor.close()
        closed = clock()
        run.wall_s = closed - started
        run.ingest_wall_s = ingest_done - started
        run.deliveries = (self.ticks - self.warm_ticks) * len(self.tenants)
        run.samples = run.deliveries * self.components * self.metrics

        # Verdict windows are per tenant: fold the tenant into the tick
        # so the one matcher serves every workload.
        stride = self.ticks + 1
        base = {tenant: i * stride for i, tenant in enumerate(self.tenants)}
        run.expected = [
            (f.component, base[tenant] + f.slo_tick, base[tenant] + f.clear_tick)
            for tenant, f in self.faults.items()
        ]
        for seen_at, tenant, incident in self.sink.seen:
            tick = incident.violation_tick
            run.verdicts.append((base[tenant] + tick, incident.faulty))
            run.latencies_ms.append((seen_at - tick_started[tick]) * 1e3)
        run.saw(self.sink.seen)
        stats = supervisor.tenant_stats
        trigger_shed = sum(entry["shed"] for entry in stats.values())
        processed = sum(entry["ticks"] for entry in stats.values())
        run.fail("ingest_shed", shed)
        run.fail("trigger_shed", trigger_shed)
        run.fail("fleet_failures", len(supervisor.failures))
        run.fail("ticks_lost", self.ticks * len(self.tenants) - processed)
        run.counters.update(
            {
                "fleet.drain_s": closed - ingest_done,
                "fleet.ingest_dropped": sum(supervisor.ingest_dropped.values()),
                "fleet.trigger_shed": trigger_shed,
                "service.warm_sync_skipped": sum(
                    entry["warm_sync_skipped"] for entry in stats.values()
                ),
            }
        )
        run.judge()
        return run

    def trace(self, run, recorder):
        # Faulted tenants, so the replay covers verdicts too; every
        # tick of each, one tenant after the other. Per tenant, four
        # passes take turns over the same ticks: the traced replay, its
        # untraced twin, and the ticks whole through each of the two
        # tick state machines (with a detector that never trips).
        chosen = list(self.faults)[: self.trace_tenants]
        traced: List[ledger.HopReplay] = []
        totals = [0.0, 0.0, 0.0, 0.0]
        for tenant in chosen:
            dispatch_at = run.dispatches.get(tenant, {})
            passes = (
                self._replay(recorder, tenant, dispatch_at),
                self._replay(ledger.NullRecorder(), tenant, dispatch_at),
                TenantRuntime(self._spec(tenant, quiet_detector())),
                OnlinePipeline(
                    iter(()),
                    quiet_detector(),
                    config=FChainConfig(),
                    seed=(self.seed, tenant),
                ),
            )
            steps = (passes[0].tick, passes[1].tick, passes[2].process, passes[3].process)
            seconds = ledger.interleave(
                [(step, self.batches[tenant], 100) for step in steps]
            )
            totals = [a + b for a, b in zip(totals, seconds)]
            for closing in passes:
                closing.close()
            traced.append(passes[0])
        traced_s, untraced_s, runtime_s, pipeline_s = totals
        tenant_ticks = len(chosen) * self.ticks
        timed_ticks = self.ticks - self.warm_ticks
        ingest_wall = run.ingest_wall_s
        layers = ledger.layer_metrics(
            recorder,
            traced,
            traced_wall=traced_s,
            untraced_wall=untraced_s,
            # The chosen tenants' share of the end-to-end run: their
            # part of the ingest phase plus their part of the drain.
            e2e_wall=ingest_wall * self.ticks / timed_ticks
            * len(chosen) / len(self.tenants)
            + run.counters["fleet.drain_s"] * len(chosen) / len(self.faults),
            whole_process_seconds=pipeline_s,
            whole_process_until=self.ticks,
        )
        process_us = runtime_s / tenant_ticks * 1e6
        layers.update(
            {
                "fleet.route_us_per_batch": self._route_microseconds(),
                "fleet.tenant_process_us_per_tick": process_us,
                # What single-threaded tick processing does not explain
                # of the ingest phase: routing, queues, thread switches.
                "fleet.queue_overhead_share": 1.0
                - process_us * 1e-6 * timed_ticks * len(self.tenants) / ingest_wall,
            }
        )
        wrong = sum(
            1
            for tenant, replay in zip(chosen, traced)
            if [i.faulty for i in replay.incidents]
            != [[self.faults[tenant].component]]
        )
        return layers, wrong

    def _replay(self, recorder, tenant: str, dispatch_at) -> ledger.HopReplay:
        return ledger.HopReplay(
            recorder,
            config=FChainConfig(),
            seed=(self.seed, tenant),
            detector=synthetic_detector(),
            dispatch_at=dispatch_at,
        )

    def _route_microseconds(self) -> float:
        """Median ``FleetSupervisor.ingest`` call while no queue is full."""
        supervisor = self._supervisor()
        try:
            for tenant in self.tenants:
                supervisor.add_tenant(self._spec(tenant, synthetic_detector()))
            # Stay under one shard's queue bound so no put ever blocks.
            pairs = itertools.islice(
                (
                    (tenant, self.batches[tenant][t])
                    for t in range(self.ticks)
                    for tenant in self.tenants
                ),
                FleetConfig().queue_depth // 2,
            )
            calls: List[float] = []
            clock = time.perf_counter
            for tenant, batch in pairs:
                before = clock()
                supervisor.ingest(tenant, batch)
                calls.append(clock() - before)
        finally:
            supervisor.close()
        return statistics.median(calls) * 1e6


WORKLOADS = {
    cls.name: cls for cls in (SteadyPush, IncidentPush, MeshInproc, FleetInproc)
}


def end_to_end(run: Run) -> Tuple[Dict[str, Tuple[float, str, int]], str]:
    """The end-to-end metrics one run yields (``setup_s`` and
    ``peak_rss_mb`` are the runner's) as ``name -> (value, unit, n)``,
    and how the latency tail was taken."""
    p50, tail, how = median_and_tail(run.latencies_ms)
    n = len(run.latencies_ms)
    cells = {
        "samples_per_s": (run.samples / run.wall_s, "samples/s", run.samples),
        "latency_p50_ms": (p50, "ms", n),
        "latency_tail_ms": (tail, "ms", n),
    }
    return cells, how
