"""Table II — FChain system overhead measurements.

Micro-benchmarks of each FChain module, mirroring the paper's table:

=============================  ==========================
System module                  paper's CPU cost
=============================  ==========================
VM monitoring (6 attributes)   1.03 ms
Normal fluctuation modeling    22.9 ms  (1000 samples)
Abnormal change point select.  602.4 ms (100 samples)
Integrated fault diagnosis     22 us
Online validation              ~30 s per component
                               (dominated by the 30 s
                               observation window)
=============================  ==========================

Absolute numbers differ (different hardware and language), but the
*ordering* must hold: diagnosis is microseconds, monitoring ~ms, modeling
~tens of ms, selection the heaviest online step, and validation dominated
by its observation horizon rather than computation.
"""


import pytest

from _helpers import save_and_print
from repro.apps.rubis import DB, RubisApplication
from repro.cloud.monitor import DomainZeroMonitor
from repro.common.rng import spawn_rng
from repro.common.types import Metric
from repro.core.config import FChainConfig
from repro.core.cusum import ChangePoint
from repro.core.fchain import FChainSlave
from repro.core.pinpoint import pinpoint_faulty_components
from repro.core.prediction import MarkovPredictor
from repro.core.propagation import ComponentReport
from repro.core.selection import AbnormalChange
from repro.core.validation import validate_component
from repro.faults.library import CpuHogFault
from repro.monitoring.store import MetricStore


@pytest.fixture(scope="module")
def faulty_run():
    app = RubisApplication(seed=7001, duration=1600)
    app.inject(CpuHogFault(1200, DB))
    app.run(1300)
    violation = app.slo.first_violation_after(1200)
    assert violation is not None
    return app, violation


def test_vm_monitoring_six_attributes(benchmark, faulty_run):
    """Paper: 1.03 ms per VM per second."""
    app, _ = faulty_run
    store = MetricStore()
    monitor = DomainZeroMonitor(store, seed=1)
    name = DB
    monitor.register(app.components[name], app.vms[name], app.hosts[1])
    tick = [0]

    def sample():
        monitor.sample_all(tick[0])
        tick[0] += 1

    benchmark(sample)


def test_normal_fluctuation_modeling_1000_samples(benchmark):
    """Paper: 22.9 ms to feed 1000 samples into the online model."""
    rng = spawn_rng("overhead-model")
    samples = list(30 + rng.normal(0, 3, 1000))

    def model_1000():
        model = MarkovPredictor(bins=40)
        for value in samples:
            model.update(value)

    benchmark(model_1000)


def test_abnormal_change_point_selection_100_samples(benchmark, faulty_run):
    """Paper: 602.4 ms for one component's 100-sample window.

    Each round analyses the faulty ``db`` component on a fresh slave
    whose models are already warm, as they are online, so a round pays
    for selection alone: neither model training nor a window-cache hit
    of an earlier round.
    """
    app, violation = faulty_run

    def warm_slave():
        slave = FChainSlave(FChainConfig(), seed=1)
        slave.sync_with_store(app.store, app.store.end)
        return (slave,), {}

    benchmark.pedantic(
        lambda slave: slave.analyze(app.store, DB, violation),
        setup=warm_slave,
        rounds=20,
    )


def test_integrated_fault_diagnosis(benchmark):
    """Paper: 22 us — pure pinpointing over the slave reports."""

    def make_reports():
        def change(onset):
            point = ChangePoint(onset, onset, 1.0, 10.0, 1)
            return AbnormalChange(
                Metric.CPU_USAGE, point, onset, 5.0, 1.0, 1
            )

        return [
            ComponentReport("db", [change(100)]),
            ComponentReport("app1", [change(130)]),
            ComponentReport("app2"),
            ComponentReport("web"),
        ]

    reports = make_reports()
    config = FChainConfig()
    import networkx as nx

    graph = nx.DiGraph(
        [("web", "app1"), ("web", "app2"), ("app1", "db"), ("app2", "db")]
    )
    benchmark(lambda: pinpoint_faulty_components(reports, config, graph))


def test_online_validation_per_component(benchmark, faulty_run):
    """Paper: ~30 s per component — the scaling observation window.

    The simulated observation window is the same 30 (simulated) seconds;
    the benchmark measures the wall-clock cost of forking the deployment
    and simulating that horizon twice (baseline + scaled).
    """
    app, _ = faulty_run
    config = FChainConfig(validation_horizon=30)
    outcome = benchmark(
        lambda: validate_component(app, DB, Metric.CPU_USAGE, config)
    )
    assert outcome.confirmed


def test_overhead_summary(faulty_run):
    """Persist a qualitative summary alongside the timing table."""
    save_and_print(
        "table2_overhead",
        "\n".join(
            [
                "Table II — per-module overhead (see pytest-benchmark table",
                "for measured times on this machine).",
                "",
                "paper's ordering to verify: integrated diagnosis (us) <",
                "VM monitoring (ms) < fluctuation modeling (tens of ms) <",
                "abnormal change point selection (hundreds of ms) <<",
                "online validation (dominated by the 30 s observation",
                "window, not computation).",
            ]
        ),
    )
