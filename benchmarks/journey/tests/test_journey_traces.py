"""The seeded generator: determinism, fault rotation, wire round trip."""

import json

import numpy as np
import pytest

import traces
from repro.edge.ingest import decode_json_push


def _trace(seed=7, **kwargs):
    defaults = dict(ticks=900, components=4, metrics=6, fault_ticks=(400, 640))
    defaults.update(kwargs)
    return traces.generate(seed, **defaults)


def test_same_seed_gives_byte_identical_push_bodies():
    first = traces.encode_pushes(_trace(), 0, 900, 10)
    second = traces.encode_pushes(_trace(), 0, 900, 10)
    assert first == second
    assert first != traces.encode_pushes(_trace(seed=8), 0, 900, 10)


def test_rotation_never_repeats_a_combination():
    combos = [traces.rotation(4, 6, k) for k in range(4 * 6 * 2)]
    assert len(set(combos)) == len(combos)
    # Back-to-back faults land on different components.
    assert all(a[0] != b[0] for a, b in zip(combos, combos[1:]))


def test_more_faults_than_combinations_is_refused():
    with pytest.raises(ValueError):
        traces.generate(
            7, ticks=100, components=1, metrics=1, fault_ticks=(10, 20, 30)
        )


def test_fault_shifts_one_series_and_degrades_the_slo_signal():
    clean = _trace(fault_ticks=())
    faulty = _trace()
    delta = faulty.values - clean.values
    for fault in faulty.faults:
        ci = faulty.components.index(fault.component)
        mi = faulty.metrics.index(fault.metric)
        window = delta[fault.tick : fault.clear_tick]
        assert np.allclose(window[:, ci, mi], fault.sign * traces.FAULT_SHIFT, atol=1e-3)
        window[:, ci, mi] = 0.0
        assert not window.any()
        degraded = faulty.performance[fault.slo_tick : fault.clear_tick]
        assert (degraded > traces.SLO_THRESHOLD).all()
        assert faulty.performance[fault.tick] < traces.SLO_THRESHOLD
    assert {(f.component, f.metric, f.sign) for f in faulty.faults} == {
        ("c0", faulty.metrics[0], 1),
        ("c1", faulty.metrics[0], 1),
    }


def test_push_body_decodes_to_the_materialised_batches():
    trace = _trace()
    body = traces.encode_push(trace, 395, 405)
    decoded = decode_json_push(json.loads(body)).batches
    assert decoded == traces.materialise(trace, 395, 405)
    assert len(decoded[0].samples) == trace.samples_per_tick
