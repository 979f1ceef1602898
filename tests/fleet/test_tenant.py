"""What ``TenantRuntime`` adds to the shared tick core."""

from repro.fleet.tenant import TenantRuntime, TenantSpec
from repro.monitoring.slo import LatencySLO
from repro.service.sources import TickBatch


def test_tick_seconds_keeps_a_bounded_recent_window():
    runtime = TenantRuntime(
        TenantSpec(tenant="t", detector=LatencySLO(0.1, sustain=1))
    )
    try:
        for t in range(5_000):
            runtime.process(TickBatch(time=t, performance=0.01))
        assert runtime.core.ticks == 5_000
        assert len(runtime.tick_seconds) == 4_096
    finally:
        runtime.close()
