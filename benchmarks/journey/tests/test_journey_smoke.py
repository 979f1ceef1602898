"""``--quick`` smoke: every workload, every correctness check."""

import json
import shutil
import subprocess
import sys
import time

import run
import workloads
from conftest import JOURNEY, ROOT

RUN = [sys.executable, str(JOURNEY / "run.py")]


def _results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_quick_suite_is_correct_and_fast():
    started = time.monotonic()
    done = subprocess.run(
        RUN + ["--quick", "--seed", "7"], capture_output=True, text=True, cwd=ROOT
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 20.0
    for name in run.WORKLOAD_NAMES:
        assert f"== {name} (seed 7) ==" in done.stdout
    for key, unit, _ in run.END_TO_END:
        assert done.stdout.count(f"\n{key} ") == len(run.WORKLOAD_NAMES)


def test_quick_traced_workload_prints_the_whole_ledger():
    done = subprocess.run(
        RUN + ["--quick", "--workload", "incident_push", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    (result,) = _results(done.stdout)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [key for key, _, _ in run.PER_LAYER]
    assert result["metrics"]["core.localize_ms_p50"]["value"] > 0
    assert 0 < result["metrics"]["ledger.coverage"]["value"]
    spans = (JOURNEY / "out" / "trace_incident_push.jsonl").read_text().splitlines()
    assert {"name", "start", "end", "parent", "tick", "id"} == set(json.loads(spans[0]))


def test_a_wrong_expected_culprit_lowers_verdict_accuracy():
    workload = workloads.FleetInproc(seed=7, seconds=0, quick=True)
    workload.generate()
    workload.build()
    try:
        result = workload.drive()
    finally:
        workload.teardown()
    assert result.failed == 0
    assert result.verdict_counts["correct"] == len(workload.faults) == 2

    culprit, first, last = result.expected[0]
    result.expected[0] = ("not-" + culprit, first, last)
    result.judge()
    assert result.verdict_counts == dict(
        correct=1, missing=0, duplicate=0, wrong=1, spurious=0
    )
    assert result.failures == {"verdict_wrong": 1}


def test_check_verdicts_counts_every_kind_of_miss():
    expected = [("a", 10, 20), ("b", 30, 40), ("c", 50, 60)]
    verdicts = [(12, ["a"]), (13, ["a"]), (31, ["a", "b"]), (45, ["c"])]
    assert workloads.check_verdicts(expected, verdicts) == dict(
        correct=1, missing=1, duplicate=1, wrong=1, spurious=1
    )


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        JOURNEY, tmp_path / "benchmarks" / "journey",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/journey/run.py", "--workload", "steady_push",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not _results(done.stdout)
