"""A perf gate that no host can blur: bootstrap tests per diagnosis.

Before any CUSUM runs, the slave screens each window
(:func:`~repro.core.selection.selection_screened`) and skips the
change-point search of every series whose swing or prediction errors
cannot pass selection. The screen must change no verdict — the diagnosis
equals the one made with the screen patched out — and it must actually
skip work: the number of ``_bootstrap_confidence`` calls, counted with a
profile hook like ``test_cusum_cost.py`` does, falls to a quarter or less
on a synthetic store and on one System S CpuHog evaluation run. The gate
fails the day the screen stops screening or starts changing verdicts.
A last test checks that the trace says which metrics were screened.
"""

import sys

import pytest

import repro.core.fchain as fchain_module
import repro.core.selection as selection_module
from repro.core import FChain
from repro.core.config import FChainConfig
from repro.core.cusum import _bootstrap_confidence
from repro.eval.bench import synthetic_store
from repro.eval.runner import context_for, generate_runs
from repro.eval.scenarios import scenario_by_name
from repro.obs.trace import STAGE_COMPONENT, STAGE_CUSUM, STAGE_METRIC

MAX_SHARE = 0.25


def _diagnose(monkeypatch, screen, make_fchain, store, violation):
    """One cold diagnosis and its ``_bootstrap_confidence`` call count."""
    calls = 0
    code = _bootstrap_confidence.__code__

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    with monkeypatch.context() as patch:
        if not screen:
            for module in (selection_module, fchain_module):
                patch.setattr(
                    module, "selection_screened", lambda *args: False
                )
        fchain = make_fchain()
        sys.setprofile(count)
        try:
            diagnosis = fchain.localize(store, violation_time=violation)
        finally:
            sys.setprofile(None)
    return diagnosis.result, calls


def _assert_screen_exact_and_cheap(monkeypatch, make_fchain, store, violation):
    screened, few = _diagnose(monkeypatch, True, make_fchain, store, violation)
    full, many = _diagnose(monkeypatch, False, make_fchain, store, violation)
    assert screened == full
    assert many > 0
    assert few <= MAX_SHARE * many, (
        f"{few} bootstrap tests with the screen, {many} without"
    )


@pytest.fixture(scope="module")
def store():
    return synthetic_store(samples=2000, components=4, metrics=6)


def test_synthetic_store(monkeypatch, store):
    _assert_screen_exact_and_cheap(
        monkeypatch,
        lambda: FChain(FChainConfig(), seed=3),
        store,
        store.end - 10,
    )


@pytest.fixture(scope="module")
def systems_cpuhog():
    scenario = scenario_by_name("systems/cpuhog")
    (record,) = generate_runs(scenario, 1)
    return record, context_for(scenario, record)


def test_systems_cpuhog_eval_run(monkeypatch, systems_cpuhog):
    record, context = systems_cpuhog
    _assert_screen_exact_and_cheap(
        monkeypatch,
        lambda: FChain(
            context.config,
            dependency_graph=context.dependency_graph,
            seed=context.seed,
        ),
        record.store,
        record.violation_time,
    )


def test_trace_says_which_metrics_were_screened(store):
    """A metric span without a CUSUM child counts ``cusum_screened``;
    its component span carries the sum."""
    diagnosis = FChain(FChainConfig(telemetry="full"), seed=3).localize(
        store, violation_time=store.end - 10
    )
    screened_total = 0
    for component in diagnosis.trace.find_all(STAGE_COMPONENT):
        metrics = component.find_all(STAGE_METRIC)
        for metric in metrics:
            searched = any(c.name == STAGE_CUSUM for c in metric.children)
            assert metric.counters.get("cusum_screened", 0) == int(not searched)
        screened = sum(m.counters.get("cusum_screened", 0) for m in metrics)
        assert component.counters["cusum_screened"] == screened
        screened_total += screened
    assert screened_total > 0
