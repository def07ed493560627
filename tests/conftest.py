"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.arch.configs import (
    four_cluster_config,
    two_cluster_config,
    unified_config,
)
from repro.workloads.registry import workload, workloads


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the runner's default result cache at a per-test tmp dir.

    CLI commands cache by default; tests must never read from or write
    to the developer's real ``~/.cache/repro-vliw``.
    """
    monkeypatch.setenv("REPRO_VLIW_CACHE", str(tmp_path / "repro-cache"))


@pytest.fixture
def unified():
    return unified_config()


@pytest.fixture
def two_cluster():
    return two_cluster_config(n_buses=1, bus_latency=1)


@pytest.fixture
def four_cluster():
    return four_cluster_config(n_buses=1, bus_latency=1)


@pytest.fixture(params=sorted(spec.name for spec in workloads(tag="kernel")))
def kernel_graph(request):
    """Every hand-written kernel, one at a time."""
    return workload(request.param).factory()
