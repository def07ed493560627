"""Tests for schedule statistics and the stall-model extension."""

import pytest

from repro.core.bsa import BsaScheduler
from repro.core.selective import ScheduledLoopResult, UnrollPolicy
from repro.core.unified import UnifiedScheduler
from repro.ir.loop import Loop
from repro.perf.model import PERFECT_MEMORY, StallModel, loop_performance
from repro.perf.stats import (
    render_reservation_table,
    schedule_stats,
)
from repro.workloads.kernels import daxpy, figure7_graph, ladder_graph


class TestScheduleStats:
    def test_basic_fields(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        stats = schedule_stats(sched)
        assert stats.ii == sched.ii
        assert stats.n_operations == 5
        assert stats.n_communications == 0
        assert stats.max_lifetime >= 1
        assert 0 < stats.fu_utilisation <= 1
        assert stats.bus_utilisation == 0.0

    def test_communication_profile(self, two_cluster):
        sched = BsaScheduler(two_cluster).schedule(daxpy())
        stats = schedule_stats(sched)
        assert stats.n_communications == sched.communication_count
        if stats.n_communications:
            assert stats.broadcast_fanout >= 1.0

    def test_pressure_matches_lifetimes_module(self, four_cluster):
        from repro.core.lifetimes import cluster_pressures

        sched = BsaScheduler(four_cluster).schedule(ladder_graph())
        stats = schedule_stats(sched)
        assert stats.pressure_per_cluster == cluster_pressures(sched)

    def test_describe_mentions_key_figures(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        text = schedule_stats(sched).describe()
        assert "II=" in text and "pressure" in text

    def test_mean_lifetime_positive(self, unified):
        sched = UnifiedScheduler(unified).schedule(figure7_graph())
        assert schedule_stats(sched).mean_lifetime > 0


class TestReservationTableRendering:
    def test_row_count(self, two_cluster):
        sched = BsaScheduler(two_cluster).schedule(figure7_graph())
        text = render_reservation_table(sched)
        lines = text.splitlines()
        assert len(lines) == sched.ii + 1  # header + II rows

    def test_all_ops_present(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        text = render_reservation_table(sched)
        for node in sched.ops:
            assert f"n{node}" in text

    def test_bus_column_when_clustered(self, two_cluster):
        sched = BsaScheduler(two_cluster).schedule(daxpy())
        assert "bus0" in render_reservation_table(sched)


class TestStallModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            StallModel(miss_rate=1.5)
        with pytest.raises(ValueError):
            StallModel(miss_rate=0.1, miss_penalty=-1)

    def test_perfect_memory_is_free(self):
        assert PERFECT_MEMORY.stall_cycles(10_000) == 0

    def test_stall_cycles(self):
        stall = StallModel(miss_rate=0.1, miss_penalty=20)
        assert stall.stall_cycles(100) == 200

    def test_loop_performance_with_stalls(self, unified):
        graph = daxpy()  # 2 loads per iteration
        loop = Loop(graph=graph, trip_count=100)
        sched = UnifiedScheduler(unified).schedule(graph)
        result = ScheduledLoopResult(sched, 1, UnrollPolicy.NONE)
        perfect = loop_performance(loop, result)
        stalled = loop_performance(loop, result, StallModel(0.05, 20))
        assert stalled.loads_per_iteration == 2
        # 200 loads * 0.05 * 20 = 200 extra cycles
        assert (
            stalled.cycles_per_entry == perfect.cycles_per_entry + 200
        )
        assert stalled.ipc < perfect.ipc

    def test_stores_not_counted_as_loads(self, unified):
        graph = daxpy()  # 2 loads + 1 store
        loop = Loop(graph=graph, trip_count=10)
        sched = UnifiedScheduler(unified).schedule(graph)
        result = ScheduledLoopResult(sched, 1, UnrollPolicy.NONE)
        perf = loop_performance(loop, result, StallModel(1.0, 1))
        assert perf.loads_per_iteration == 2


class TestDefaultClusterPolicy:
    def test_unknown_policy_rejected(self, two_cluster):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="policy"):
            BsaScheduler(two_cluster, default_cluster_policy="random")

    def test_least_loaded_schedules_and_verifies(self, four_cluster, kernel_graph):
        from repro.core.verify import verify_schedule

        sched = BsaScheduler(
            four_cluster, default_cluster_policy="least-loaded"
        ).schedule(kernel_graph)
        verify_schedule(sched)

    def test_least_loaded_spreads_unrolled_copies(self, four_cluster):
        from repro.core.verify import verify_schedule
        from repro.ir.unroll import unroll_graph

        g = unroll_graph(daxpy(), 4)
        sched = BsaScheduler(
            four_cluster, default_cluster_policy="least-loaded"
        ).schedule(g)
        verify_schedule(sched)
        clusters = {op.cluster for op in sched.ops.values()}
        assert len(clusters) == 4
