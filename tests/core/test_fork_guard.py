"""Fork-availability guards for the process executor and fleet backend.

On platforms without the ``fork`` start method (Windows, some macOS
configurations) forked workers cannot inherit attached shared-memory
segments, so the process paths must refuse or degrade loudly rather
than crash mid-diagnosis: :class:`SlavePool` warns and falls back to
threads, :class:`FleetConfig` rejects the backend outright at
validation time.
"""

import warnings

import pytest

from repro.common.errors import ConfigurationError
from repro.core import engine
from repro.core.config import FChainConfig
from repro.core.engine import SlavePool
from repro.core.fchain import FChainSlave
from repro.fleet import supervisor as fleet_supervisor
from repro.fleet.supervisor import FleetConfig


def _slave(executor):
    return FChainSlave(
        FChainConfig(cusum_bootstraps=40, executor=executor), seed=1
    )


class TestSlavePoolFallback:
    def test_warns_and_falls_back_to_thread(self, monkeypatch):
        monkeypatch.setattr(engine, "fork_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="fork"):
            pool = SlavePool(_slave("process"), jobs=2)
        assert pool.executor == "thread"
        pool.close()

    def test_no_warning_when_fork_exists(self, monkeypatch):
        monkeypatch.setattr(engine, "fork_available", lambda: True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pool = SlavePool(_slave("process"), jobs=2)
        assert pool.executor == "process"
        pool.close()

    def test_thread_executor_is_untouched(self, monkeypatch):
        monkeypatch.setattr(engine, "fork_available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pool = SlavePool(_slave("thread"), jobs=2)
        assert pool.executor == "thread"
        pool.close()


class TestFleetBackendGuard:
    def test_process_backend_rejected_without_fork(self, monkeypatch):
        monkeypatch.setattr(
            fleet_supervisor, "fork_available", lambda: False
        )
        with pytest.raises(ConfigurationError, match="fork"):
            FleetConfig(backend="process").validate()

    def test_thread_backend_survives_without_fork(self, monkeypatch):
        monkeypatch.setattr(
            fleet_supervisor, "fork_available", lambda: False
        )
        FleetConfig(backend="thread").validate()
