"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import SCHEMES, _build_schemes, main


def test_list_runs(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "rubis/cpuhog" in out
    assert "hadoop/conc_diskhog" in out
    assert "W=500s" in out


def test_build_schemes():
    schemes = _build_schemes("FChain, PAL")
    assert [s.name for s in schemes] == ["FChain", "PAL"]


def test_build_schemes_unknown():
    with pytest.raises(SystemExit):
        _build_schemes("Nope")


def test_all_registered_schemes_constructible():
    for name, factory in SCHEMES.items():
        assert factory().name == name


def test_run_small_campaign(capsys):
    code = main(
        ["run", "rubis/cpuhog", "--runs", "1", "--schemes", "FChain,PAL"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "FChain" in out and "PAL" in out
    assert "P=" in out


def test_unknown_scenario():
    with pytest.raises(KeyError):
        main(["run", "nope/nothing"])


@pytest.mark.parametrize("fmt", ["tree", "json", "prom"])
def test_trace_prints_each_format(fmt, capsys):
    code = main(
        [
            "trace", "--samples", "600", "--components", "2",
            "--metrics", "1", "--format", fmt,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    if fmt == "tree":
        assert "component[component=c0]" in out
        assert "cusum_bootstrap" in out
        assert "pinpointed: ['c0']" in out
    elif fmt == "json":
        import json

        root = json.loads(out)
        assert root["name"] == "diagnosis"
        assert root["children"][0]["tags"] == {"component": "c0"}
    else:
        from tests.obs.prometheus_text import parse_prometheus_text

        parsed = parse_prometheus_text(out)
        assert parsed.value("fchain_diagnoses_total") >= 1


def _write_replay_trace(tmp_path):
    from repro.eval.bench import synthetic_store
    from repro.monitoring.io import save_store_csv
    from repro.service.sources import save_performance_csv

    store = synthetic_store(samples=900, components=3, metrics=2, seed=7)
    onset = store.end - 35
    metrics_path = tmp_path / "metrics.csv"
    performance_path = tmp_path / "perf.csv"
    save_store_csv(store, metrics_path)
    save_performance_csv(
        performance_path,
        {
            t: (0.5 if t >= onset else 0.01)
            for t in range(store.start, store.end)
        },
    )
    return metrics_path, performance_path


def test_replay_localizes_recorded_incident(tmp_path, capsys):
    metrics_path, performance_path = _write_replay_trace(tmp_path)
    incidents_path = tmp_path / "incidents.jsonl"
    code = main(
        [
            "replay", str(metrics_path), str(performance_path),
            "--sustain", "5",
            "--expect-incidents", "1", "--expect-culprit", "c0",
            "--incidents", str(incidents_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "incident #0" in out
    assert "c0" in out
    record = __import__("json").loads(incidents_path.read_text())
    assert "c0" in record["faulty"]


def test_replay_expectation_failure_exits_nonzero(tmp_path, capsys):
    metrics_path, performance_path = _write_replay_trace(tmp_path)
    code = main(
        [
            "replay", str(metrics_path), str(performance_path),
            "--sustain", "5", "--expect-incidents", "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL expected exactly 3" in out


def test_serve_runs_quietly_without_fault(capsys):
    code = main(
        ["serve", "--duration", "40", "--no-fault", "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "no incidents" in out
    assert "40 ticks" in out


def test_fleet_appends_to_its_incidents_file(tmp_path, capsys):
    manifest = (
        pathlib.Path(__file__).resolve().parents[1]
        / "benchmarks" / "manifests" / "fleet_soak.json"
    )
    incidents_path = tmp_path / "incidents.jsonl"
    incidents_path.write_text('{"earlier": "run"}\n')
    code = main(
        [
            "fleet", str(manifest), "--ticks", "60",
            "--incidents", str(incidents_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    first, *added = incidents_path.read_text().splitlines()
    assert json.loads(first) == {"earlier": "run"}
    (record,) = [json.loads(line) for line in added]
    assert record["tenant"] == "t-0007"
