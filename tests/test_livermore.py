"""Tests for the Livermore kernel set."""

import pytest

from repro.arch.configs import four_cluster_config, unified_config
from repro.core.bsa import BsaScheduler
from repro.core.mii import mii_report, rec_mii
from repro.core.selective import UnrollPolicy, schedule_with_policy
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.workloads import workload, workloads
from repro.workloads.livermore import RECURRENCE_BOUND, livermore_program

LIVERMORE = [spec.name for spec in workloads(tag="livermore")]


@pytest.fixture(params=sorted(LIVERMORE))
def ll_graph(request):
    return workload(request.param).factory()


class TestStructure:
    def test_all_validate(self, ll_graph):
        ll_graph.validate()

    def test_recurrence_classification(self):
        for name in LIVERMORE:
            g = workload(name).factory()
            if name in RECURRENCE_BOUND:
                assert rec_mii(g) > 1, name
            else:
                assert rec_mii(g) == 1, name

    def test_ll3_rec_mii_is_fadd_latency(self):
        assert rec_mii(workload("ll3").factory()) == 3

    def test_ll5_rec_mii(self):
        # fmul(4) + fsub(3) cycle at distance 1 -> 7
        assert rec_mii(workload("ll5").factory()) == 7

    def test_ll11_rec_mii(self):
        # fadd self-loop at distance 1 -> 3
        assert rec_mii(workload("ll11").factory()) == 3

    def test_ll7_is_wide_and_parallel(self):
        g = workload("ll7").factory()
        assert len(g) >= 20
        assert rec_mii(g) == 1


class TestScheduling:
    def test_unified_reaches_mii(self, ll_graph, unified):
        sched = UnifiedScheduler(unified).schedule(ll_graph)
        verify_schedule(sched)
        assert sched.ii == mii_report(ll_graph, unified).mii

    def test_clustered_verifies(self, ll_graph, four_cluster):
        sched = BsaScheduler(four_cluster).schedule(ll_graph)
        verify_schedule(sched)

    def test_selective_unrolling_declines_recurrences(self, four_cluster):
        for name in RECURRENCE_BOUND:
            graph = workload(name).factory()
            result = schedule_with_policy(
                graph, BsaScheduler(four_cluster), UnrollPolicy.SELECTIVE
            )
            assert result.unroll_factor == 1, name

    def test_parallel_kernels_gain_from_unrolling(self, four_cluster):
        """ll12 (pure parallel) must reach unified-rate when unrolled."""
        graph = workload("ll12").factory()
        unified = unified_config()
        u_ii = UnifiedScheduler(unified).schedule(graph).ii
        result = schedule_with_policy(
            graph, BsaScheduler(four_cluster), UnrollPolicy.ALL
        )
        assert result.ii_per_original_iteration <= u_ii + 0.51


class TestProgram:
    def test_program_bundles_all(self):
        p = livermore_program()
        assert [lp.name for lp in p] == LIVERMORE
        assert all(lp.eligible_for_modulo_scheduling for lp in p)

    def test_program_usable_in_harness(self):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(suite=[livermore_program(trip=100, runs=5)])
        perf = ctx.program_ipc(
            ctx.suite[0], four_cluster_config(1, 1), "bsa", UnrollPolicy.SELECTIVE
        )
        assert perf.ipc > 0
        assert ctx.fallbacks == []
