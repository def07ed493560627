"""Integration tests for the unified SMS scheduler."""

import pytest

from repro.core.mii import mii
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.errors import ConfigError, SchedulingError
from repro.ir.ddg import DependenceGraph
from repro.workloads.kernels import (
    daxpy,
    dot_product,
    figure7_graph,
    first_order_recurrence,
    stencil5,
)
from repro.workloads.registry import workloads


class TestUnifiedScheduler:
    def test_rejects_clustered_machine(self, two_cluster):
        with pytest.raises(ConfigError):
            UnifiedScheduler(two_cluster)

    def test_all_kernels_verify(self, kernel_graph, unified):
        sched = UnifiedScheduler(unified).schedule(kernel_graph)
        verify_schedule(sched)

    def test_achieves_mii_on_all_kernels(self, kernel_graph, unified):
        """SMS reaches II = MII on every classic kernel (no recurrences
        interact with resources at 12-wide issue)."""
        sched = UnifiedScheduler(unified).schedule(kernel_graph)
        assert sched.ii == mii(kernel_graph, unified)

    def test_daxpy_ii_one(self, unified):
        assert UnifiedScheduler(unified).schedule(daxpy()).ii == 1

    def test_dot_product_rec_mii(self, unified):
        # serial reduction: II = fadd latency = 3
        assert UnifiedScheduler(unified).schedule(dot_product()).ii == 3

    def test_recurrence_kernel(self, unified):
        assert UnifiedScheduler(unified).schedule(first_order_recurrence()).ii == 7

    def test_no_communications_on_unified(self, unified):
        sched = UnifiedScheduler(unified).schedule(stencil5())
        assert sched.communication_count == 0

    def test_resource_contention_raises_ii(self, unified):
        # 13 independent fp adds on 4 FP units: ceil(13/4) = 4.
        g = DependenceGraph()
        for _ in range(13):
            g.add_operation("fadd")
        sched = UnifiedScheduler(unified).schedule(g)
        assert sched.ii == 4
        verify_schedule(sched)

    def test_empty_graph_rejected(self, unified):
        with pytest.raises(SchedulingError):
            UnifiedScheduler(unified).schedule(DependenceGraph())

    def test_max_ii_budget_respected(self, unified):
        g = dot_product()  # needs II = 3
        with pytest.raises(SchedulingError):
            UnifiedScheduler(unified, max_ii=2).schedule(g)

    def test_all_cycles_non_negative(self, kernel_graph, unified):
        sched = UnifiedScheduler(unified).schedule(kernel_graph)
        assert all(op.cycle >= 0 for op in sched.ops.values())

    def test_stage_count_reasonable(self, unified):
        # daxpy critical path: load(2) + fmul(4) + fadd(3) + store = 10
        # cycles; at II=1 that is about 10 stages.
        sched = UnifiedScheduler(unified).schedule(daxpy())
        assert 1 <= sched.stage_count <= 12

    def test_figure7_unified_ii_two(self, unified):
        sched = UnifiedScheduler(unified).schedule(figure7_graph())
        assert sched.ii == 2


class TestScheduleQuality:
    """Lifetime sensitivity: schedules should not scatter operations."""

    def test_span_close_to_critical_path(self, unified):
        for spec in workloads(tag="kernel"):
            g = spec.factory()
            sched = UnifiedScheduler(unified).schedule(g)
            critical = sum(op.latency for op in g.operations())
            assert sched.schedule_length <= critical + 2 * sched.ii, spec.name

    def test_max_live_bounded(self, unified):
        from repro.core.lifetimes import max_pressure

        for spec in workloads(tag="kernel"):
            sched = UnifiedScheduler(unified).schedule(spec.factory())
            assert max_pressure(sched) <= 20, spec.name
