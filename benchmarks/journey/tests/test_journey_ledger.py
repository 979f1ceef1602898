"""Span bookkeeping: parents, self time, the null twin."""

import json
import time

import ledger


def test_self_time_is_duration_minus_child_coverage(tmp_path):
    recorder = ledger.SpanRecorder()
    with recorder.span("outer", 1):
        time.sleep(0.002)
        with recorder.span("inner", 1):
            time.sleep(0.004)
        with recorder.span("inner", 1):
            time.sleep(0.004)
    own = recorder.self_seconds()
    outer, first, second = recorder.records
    assert (first[4], second[4], outer[4]) == (outer[0], outer[0], None)
    assert own["inner"] >= 0.008
    assert 0.002 <= own["outer"] < own["inner"]
    total = outer[3] - outer[2]
    assert abs(own["outer"] + own["inner"] - total) < 1e-9

    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["outer", "inner", "inner"]
    assert all(row["tick"] == 1 and row["end"] >= row["start"] for row in rows)


def test_null_recorder_has_the_same_surface():
    with ledger.NullRecorder().span("anything", 3):
        pass
