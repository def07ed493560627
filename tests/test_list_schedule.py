"""Tests for the list scheduler (no-pipelining baseline) and MVE factor."""

import pytest
from oracles import mve_factor

from repro.arch.configs import four_cluster_config
from repro.core.list_schedule import list_schedule
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.errors import SchedulingError
from repro.ir.ddg import DependenceGraph
from repro.workloads.kernels import daxpy, dot_product, figure7_graph


class TestListSchedule:
    def test_all_kernels_verify(self, kernel_graph, four_cluster):
        sched = list_schedule(kernel_graph, four_cluster)
        verify_schedule(sched)

    def test_single_stage(self, kernel_graph, unified):
        sched = list_schedule(kernel_graph, unified)
        assert sched.stage_count == 1

    def test_ii_equals_schedule_length(self, unified):
        sched = list_schedule(daxpy(), unified)
        assert sched.ii == sched.schedule_length

    def test_daxpy_critical_path(self, unified):
        # load(2) + fmul(4) + fadd(3) + store(1) = 10 cycles
        sched = list_schedule(daxpy(), unified)
        assert sched.ii == 10

    def test_modulo_scheduling_beats_list(self, kernel_graph, unified):
        """The motivation of the whole field: overlap wins."""
        ls = list_schedule(kernel_graph, unified)
        ms = UnifiedScheduler(unified).schedule(kernel_graph)
        assert ms.ii <= ls.ii

    def test_carried_dependences_respected(self, unified):
        sched = list_schedule(dot_product(), unified)
        verify_schedule(sched)  # II = length gives carried deps full slack

    def test_cross_cluster_comms_inserted(self):
        """A graph too wide for one cluster forces communications."""
        g = DependenceGraph()
        sources = [g.add_operation("fadd") for _ in range(6)]
        sink = g.add_operation("fadd")
        for s in sources:
            g.add_dependence(s, sink)
        cfg = four_cluster_config(1, 1)
        sched = list_schedule(g, cfg)
        verify_schedule(sched)

    def test_empty_graph_rejected(self, unified):
        with pytest.raises(SchedulingError):
            list_schedule(DependenceGraph(), unified)

    def test_load_balancing_uses_clusters(self, four_cluster):
        g = DependenceGraph()
        for _ in range(12):
            g.add_operation("fadd")
        sched = list_schedule(g, four_cluster)
        verify_schedule(sched)
        clusters = {op.cluster for op in sched.ops.values()}
        assert len(clusters) >= 2  # independent work spreads


class TestMveFactor:
    def test_short_lifetimes_no_expansion(self, unified):
        sched = list_schedule(daxpy(), unified)
        # one iteration at a time: no value outlives the (length-sized) II
        assert mve_factor(sched) == 1

    def test_immediate_consumption_needs_no_expansion(self, unified):
        """SMS consumes values right at readiness: even at II=1 the
        lifetimes stay within one II and no kernel replication is needed
        (this is exactly the lifetime sensitivity SMS is named for)."""
        sched = UnifiedScheduler(unified).schedule(daxpy())
        assert sched.ii == 1
        assert mve_factor(sched) == 1

    def test_long_lifetime_forces_expansion(self, unified):
        """A value read 7 cycles after production at II=2 needs
        ceil(7/2) = 4 renamed kernel copies."""
        from repro.core.schedule import ModuloSchedule, ScheduledOp

        g = DependenceGraph()
        p = g.add_operation("fadd")
        c = g.add_operation("store")
        g.add_dependence(p, c)
        sched = ModuloSchedule(g, unified, ii=2)
        sched.place(ScheduledOp(p, 0, 0, 0))  # value written at 3
        sched.place(ScheduledOp(c, 9, 0, 0))  # read at 9: lifetime [3, 10)
        assert mve_factor(sched) == 4

    def test_factor_matches_lifetime_ceiling(self, unified):
        from repro.core.lifetimes import _intervals

        sched = UnifiedScheduler(unified).schedule(figure7_graph())
        expected = max(
            -(-(end - start) // sched.ii) for _, start, end in _intervals(sched)
        )
        assert mve_factor(sched) == expected
