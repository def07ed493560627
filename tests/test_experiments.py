"""Integration tests for the experiment harnesses.

Full-suite experiment runs live in ``benchmarks/``; these tests exercise
the harness logic on reduced grids so they stay fast, plus the complete
Figure 7 and Tables 1-2 artefacts (which are cheap).
"""

import pytest

from repro.arch.configs import four_cluster_config, two_cluster_config, unified_config
from repro.core.selective import SelectiveRule, UnrollPolicy
from repro.experiments import (
    ExperimentContext,
    config_label,
    geometric_mean,
    relative_ipc,
    run_fig7,
    run_fig7_ladder,
    run_table1,
    run_table2,
    suite_grid,
    suite_performance,
)
from repro.ir.loop import Loop, Program
from repro.runner import make_scheduler, scenario_for, sequential_fallback
from repro.workloads.kernels import daxpy
from repro.workloads.registry import workload


@pytest.fixture(scope="module")
def small_ctx():
    """A context over two small programs (fast)."""
    suite = [workload("applu").factory(), workload("swim").factory()]
    return ExperimentContext(suite=suite)


def relative_to_unified(ctx, cfg, policy):
    """Mean over *ctx*'s programs of IPC(cfg)/IPC(unified), as one grid."""
    clustered = suite_grid(ctx.suite, cfg, "bsa", policy)
    unified = suite_grid(ctx.suite, unified_config(), "bsa", UnrollPolicy.NONE)
    results = iter(ctx.results(clustered + unified))
    perfs = suite_performance(ctx.suite, results)
    return relative_ipc(perfs, suite_performance(ctx.suite, results))


class TestContext:
    def test_cache_hits(self, small_ctx):
        loop = small_ctx.suite[0].eligible_loops()[0]
        cfg = two_cluster_config(1, 1)

        def resolve():
            point = scenario_for(loop, cfg, "bsa", UnrollPolicy.NONE)
            [result] = small_ctx.results([(point, loop)])
            return result

        assert resolve() is resolve()  # memoised

    def test_program_ipc_positive(self, small_ctx):
        perf = small_ctx.program_ipc(
            small_ctx.suite[0], unified_config(), "bsa", UnrollPolicy.NONE
        )
        assert 0 < perf.ipc <= 12

    def test_relative_ipc_below_unified(self, small_ctx):
        cfg = four_cluster_config(1, 4)  # starved fabric
        rel = relative_to_unified(small_ctx, cfg, UnrollPolicy.NONE)
        assert 0 < rel < 1.0

    def test_selective_at_least_none(self, small_ctx):
        cfg = four_cluster_config(1, 2)
        rel_none = relative_to_unified(small_ctx, cfg, UnrollPolicy.NONE)
        rel_sel = relative_to_unified(small_ctx, cfg, UnrollPolicy.SELECTIVE)
        assert rel_sel >= rel_none - 0.02

    def test_config_label(self):
        assert config_label(unified_config()) == "unified"
        assert config_label(two_cluster_config(2, 4)) == "2-cluster/b2/l4"

    def test_make_scheduler_dispatch(self):
        assert make_scheduler("bsa", unified_config()).name == "unified-sms"
        assert make_scheduler("bsa", two_cluster_config()).name == "bsa"
        assert make_scheduler("two-phase", two_cluster_config()).name == "two-phase"


class TestFallback:
    def test_sequential_fallback_is_complete(self):
        g = daxpy()
        result = sequential_fallback(g, four_cluster_config(1, 1))
        assert result.schedule.is_complete
        assert result.unroll_factor == 1
        assert result.schedule.ii >= len(g)

    def test_fallback_counts_in_context(self):
        """A machine too starved to modulo-schedule records a fallback."""
        from repro.arch.cluster import MachineConfig
        from repro.arch.resources import BusSpec, FuSet
        from repro.ir.ddg import DependenceGraph

        g = DependenceGraph("fat")
        p1 = g.add_operation("fadd")
        p2 = g.add_operation("fadd")
        c = g.add_operation("fadd")
        g.add_dependence(p1, c)
        g.add_dependence(p2, c)
        prog = Program("p", [Loop(graph=g, trip_count=100)])
        ctx = ExperimentContext(suite=[prog])
        # One cluster, one register: c reads two values in one cycle, so
        # no schedule exists and the harness must fall back.
        starved = MachineConfig("starved", 1, FuSet(1, 1, 1), 1, BusSpec(0, 1))
        perf = ctx.program_ipc(prog, starved, "bsa", UnrollPolicy.NONE)
        assert len(ctx.fallbacks) == 1
        assert perf.ipc > 0  # still produces a (pessimistic) number


class TestFig7:
    def test_paper_graph_story(self):
        case = run_fig7()
        assert case.res_mii == 2 and case.rec_mii == 2
        assert case.unified_schedule.ii == 2
        assert case.base_schedule.ii == 3  # bus limited, as in the paper
        assert case.base_schedule.was_bus_limited
        # unrolled x2: better than the unified rate per iteration
        assert case.unrolled_ii_per_iteration <= 2.0

    def test_ladder_story(self):
        case = run_fig7_ladder()
        assert case.unified_schedule.ii == 3
        assert case.base_schedule.ii == 6
        assert case.unrolled_schedule.ii == 6  # 3 per source iteration
        assert case.unrolled_schedule.communication_count == 0


class TestTables:
    def test_table1(self):
        rows = run_table1()
        assert len(rows) == 3
        assert all(r["total_issue_width"] == 12 for r in rows)

    def test_table2_one_bus(self):
        rows = run_table2(n_buses=1)
        by_name = {r["config"]: r for r in rows}
        assert by_name["unified"]["cycle_ps"] > by_name["2-cluster"]["cycle_ps"]
        assert by_name["2-cluster"]["cycle_ps"] > by_name["4-cluster"]["cycle_ps"]

    def test_table2_two_buses_slower(self):
        one = {r["config"]: r for r in run_table2(n_buses=1)}
        two = {r["config"]: r for r in run_table2(n_buses=2)}
        assert two["4-cluster"]["cycle_ps"] > one["4-cluster"]["cycle_ps"]
        # the unified machine has no buses: unchanged
        assert two["unified"]["cycle_ps"] == one["unified"]["cycle_ps"]


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_selective_rules_produce_results(self, small_ctx):
        cfg = four_cluster_config(1, 2)
        loop = small_ctx.suite[0].eligible_loops()[0]
        for rule in SelectiveRule:
            point = scenario_for(loop, cfg, "bsa", UnrollPolicy.SELECTIVE, rule)
            [r] = small_ctx.results([(point, loop)])
            assert r.schedule.is_complete
