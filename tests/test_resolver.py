"""Every front end resolves a scenario point through ``run_sweep``.

The experiment context's point-at-a-time API and the scheduling service
must reuse a cached schedule-only twin, write that twin, report every
execution and count every fallback exactly like a grid sweep does.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch.configs import four_cluster_config, two_cluster_config
from repro.core.base import SchedulerBase
from repro.core.selective import UnrollPolicy
from repro.core.unified import UnifiedScheduler
from repro.experiments.common import ExperimentContext
from repro.obs.report import RunRecorder
from repro.runner.cache import ResultCache
from repro.runner.scenario import scenario_for
from repro.service.core import (
    ScheduleRequest,
    SchedulingService,
    reference_payload,
)
from repro.workloads.kernels import kernel_loop
from repro.workloads.specfp import specfp95_suite


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", code_version="resolver-test")


@pytest.fixture
def schedule_calls(monkeypatch):
    """Counts every modulo-scheduler invocation once armed."""
    calls = {"n": 0, "armed": False}
    originals = {cls: cls.schedule for cls in (SchedulerBase, UnifiedScheduler)}

    def counting(original):
        def schedule(self, graph):
            calls["n"] += calls["armed"]
            return original(self, graph)

        return schedule

    for cls, original in originals.items():
        monkeypatch.setattr(cls, "schedule", counting(original))
    return calls


class TestContextPointAPI:
    def test_crosscheck_reuses_cached_twin(self, cache, schedule_calls):
        loop = kernel_loop("daxpy", trip_count=50)
        config = two_cluster_config()
        ExperimentContext(suite=[], cache=cache).schedule_loop(
            loop, config, "bsa", UnrollPolicy.NONE
        )
        schedule_calls["armed"] = True
        ctx = ExperimentContext(suite=[], cache=cache)
        check = ctx.crosscheck_loop(loop, config, "bsa", UnrollPolicy.NONE)
        assert schedule_calls["n"] == 0
        assert check.simulated_cycles > 0
        assert ctx.stats.executed == 1

    def test_crosscheck_miss_writes_twin(self, cache):
        loop = kernel_loop("dot", trip_count=50)
        config = two_cluster_config()
        ctx = ExperimentContext(suite=[], cache=cache)
        ctx.crosscheck_loop(loop, config, "bsa", UnrollPolicy.NONE)
        twin = scenario_for(loop, config, "bsa", UnrollPolicy.NONE)
        assert twin in cache
        assert cache.stats().entries == 2

    def test_schedule_miss_is_recorded(self):
        recorder = RunRecorder()
        ctx = ExperimentContext(suite=[], recorder=recorder)
        ctx.schedule_loop(
            kernel_loop("vadd", trip_count=50),
            two_cluster_config(),
            "bsa",
            UnrollPolicy.NONE,
        )
        records = recorder.report(sweep="point").records
        assert [r.source for r in records] == ["executed"]

    def test_schedule_fallbacks_are_counted(self):
        starved = dataclasses.replace(four_cluster_config(), regs_per_cluster=2)
        loops = specfp95_suite()[0].eligible_loops()[:3]
        ctx = ExperimentContext(suite=[])
        for loop in loops:
            ctx.schedule_loop(loop, starved, "bsa", UnrollPolicy.NONE)
        assert ctx.stats.fallbacks == len(ctx.fallbacks) > 0
        assert ctx.stats.executed == ctx.stats.total == len(loops)


class TestServiceSimulate:
    def test_simulate_reuses_cached_twin(self, cache, schedule_calls):
        body = {"kernel": "daxpy", "clusters": 2}
        warm = SchedulingService(cache=cache, workers=0)
        try:
            job = warm.submit_schedule(ScheduleRequest.from_payload(body))
            assert job.wait(30.0) and job.status == "done"
        finally:
            warm.close()

        request = ScheduleRequest.from_payload(dict(body, simulate=True, niter=40))
        svc = SchedulingService(cache=cache, workers=0)
        try:
            schedule_calls["armed"] = True
            job = svc.submit_schedule(request)
            assert job.wait(30.0) and job.status == "done"
            assert schedule_calls["n"] == 0
            stats = svc.stats()["counters"]
            assert stats["executed"] == 1 and stats["disk_hits"] == 0
        finally:
            svc.close()
        payload = dict(job.results[0])
        assert payload.pop("cached") is False
        assert payload == reference_payload(request)


class TestServiceGridJob:
    @pytest.mark.slow
    def test_pooled_grid_job_matches_local_run(self, cache):
        from repro.runner.grids import GRIDS

        local = GRIDS["smoke"].run(ExperimentContext(), True)
        svc = SchedulingService(cache=cache, workers=2)
        try:
            job = svc.submit_grid("smoke", quick=True, jobs=2)
            assert job.wait(120.0) and job.status == "done", job.error
            assert job.output == local
            stats = svc.stats()
            assert stats["pool_live"] is True
            assert stats["counters"]["executed"] == 4
        finally:
            svc.close()
