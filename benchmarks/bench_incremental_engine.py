"""Incremental diagnosis engine — latency on long histories (Sec. III-G).

The paper's FChain must localize within seconds of an SLO violation even
after hours of recorded metrics. The original replay engine retrains
every per-metric Markov model from scratch at diagnosis time, so its
latency grows linearly with the recorded history; the incremental engine
keeps the slave's models and prediction-error streams warm (as the
paper's continuously running slaves do) and pays only for the
look-back-window analysis.

Since the vectorized batch updates landed
(:meth:`~repro.core.prediction.MarkovPredictor.update_many`), the replay
engine's model retraining is itself fast — ~3M samples/s — so the warm
engine's edge only shows once the history is long enough for the
replay's O(history) ingest to dominate the fixed look-back analysis.
This benchmark therefore diagnoses a 100,000-sample history (more than a
day of 1 Hz data) across 8 components and asserts the warm incremental
diagnosis is at least 2x faster than the replay diagnosis *while
producing identical results*.

Run standalone (``python benchmarks/bench_incremental_engine.py``) or via
pytest (``pytest benchmarks/bench_incremental_engine.py``).
"""

import sys

import pytest

from _helpers import save_and_print
from repro.eval.bench import measure_latency, synthetic_store

SAMPLES = 100_000
COMPONENTS = 8
METRICS = 3
REPEATS = 3
REQUIRED_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def latency_report():
    store = synthetic_store(
        samples=SAMPLES, components=COMPONENTS, metrics=METRICS
    )
    return measure_latency(store, repeats=REPEATS, seed=7)


def test_incremental_speedup(latency_report):
    """Warm incremental diagnosis must beat replay by >= 2x."""
    save_and_print("incremental_engine", latency_report.summary())
    assert latency_report.results_match, (
        "incremental and replay engines diverged — the warm error "
        "streams no longer reproduce the batch replay"
    )
    assert latency_report.speedup >= REQUIRED_SPEEDUP, (
        f"speedup {latency_report.speedup:.1f}x below the required "
        f"{REQUIRED_SPEEDUP}x on {SAMPLES} samples x {COMPONENTS} "
        "components"
    )


def test_fault_still_pinpointed(latency_report):
    """The synthetic step fault must actually be localized."""
    assert "c0" in latency_report.faulty


def test_warm_diagnosis_timed(benchmark):
    """pytest-benchmark target: one warm incremental diagnosis.

    Uses a fresh smaller store so the benchmark's many rounds stay
    affordable; the warm slave's per-window caches are what repeated
    identical diagnoses exercise in production (the validation loop).
    """
    from repro.core.config import FChainConfig
    from repro.core.fchain import FChainMaster

    config = FChainConfig()
    store = synthetic_store(samples=4000, components=COMPONENTS, metrics=1)
    master = FChainMaster(config, seed=7)
    master.slave.sync_with_store(store, store.end)
    t_v = store.end - config.analysis_grace - 1
    master.diagnose(store, t_v)
    benchmark(lambda: master.diagnose(store, t_v))


def main() -> int:
    store = synthetic_store(
        samples=SAMPLES, components=COMPONENTS, metrics=METRICS
    )
    report = measure_latency(store, repeats=REPEATS, seed=7)
    print(report.summary())
    ok = report.results_match and report.speedup >= REQUIRED_SPEEDUP
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
