"""Fork-availability guard for the process fleet backend.

On platforms without the ``fork`` start method (Windows, some macOS
configurations) the fleet cannot fork its shard workers, so
:class:`FleetConfig` rejects the process backend outright at validation
time rather than crash when the first shard starts.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.fleet import supervisor as fleet_supervisor
from repro.fleet.supervisor import FleetConfig


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
