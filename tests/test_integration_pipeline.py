"""End-to-end integration: a miniature of the paper's whole evaluation.

Runs two programs through the complete pipeline — scheduling on unified
and clustered machines, all three unrolling policies, performance model,
cycle-time model, code-size model — and asserts the paper's headline
relationships hold on the miniature, plus cross-model consistency checks
that no single-module test can see.
"""

import pytest
from oracles import expand_software_pipeline

from repro.arch.configs import four_cluster_config, unified_config
from repro.arch.timing import cycle_time_ps
from repro.codegen import schedule_code_size
from repro.core.selective import UnrollPolicy
from repro.core.verify import verify_schedule
from repro.experiments import ExperimentContext
from repro.workloads.registry import workload


@pytest.fixture(scope="module")
def mini():
    ctx = ExperimentContext(suite=[workload(n).factory() for n in ("swim", "applu")])
    return ctx


class TestMiniEvaluation:
    def test_no_fallbacks_triggered(self, mini):
        cfg = four_cluster_config(1, 1)
        for program in mini.suite:
            for policy in UnrollPolicy:
                mini.program_ipc(program, cfg, "bsa", policy)
        assert mini.fallbacks == []

    def test_all_cached_schedules_verify(self, mini):
        cfg = four_cluster_config(1, 1)
        for program in mini.suite:
            mini.program_ipc(program, cfg, "bsa", UnrollPolicy.SELECTIVE)
        for result in mini.memo.values():
            verify_schedule(result.schedule)

    def test_unrolling_recovers_ipc(self, mini):
        """The paper's central claim on the miniature suite."""
        cfg = four_cluster_config(1, 2)  # slow bus: room to recover
        unified = unified_config()
        for program in mini.suite:
            u = mini.program_ipc(program, unified, "bsa", UnrollPolicy.NONE).ipc
            nu = mini.program_ipc(program, cfg, "bsa", UnrollPolicy.NONE).ipc
            su = mini.program_ipc(program, cfg, "bsa", UnrollPolicy.SELECTIVE).ipc
            assert su >= nu - 1e-9, program.name
            assert su / u > 0.75, program.name

    def test_speedup_headline_direction(self, mini):
        """4c/1bus with selective unrolling beats unified end to end."""
        cfg = four_cluster_config(1, 1)
        unified = unified_config()
        clock = cycle_time_ps(unified) / cycle_time_ps(cfg)
        for program in mini.suite:
            u = mini.program_ipc(program, unified, "bsa", UnrollPolicy.NONE).ipc
            su = mini.program_ipc(program, cfg, "bsa", UnrollPolicy.SELECTIVE).ipc
            assert (su / u) * clock > 2.0, program.name

    def test_code_size_ordering(self, mini):
        cfg = four_cluster_config(1, 1)
        for program in mini.suite:
            sizes = {}
            for policy in UnrollPolicy:
                total = 0
                for loop in program.eligible_loops():
                    result = mini.schedule_loop(loop, cfg, "bsa", policy)
                    total += schedule_code_size(result.schedule).total_ops
                sizes[policy] = total
            assert sizes[UnrollPolicy.NONE] <= sizes[UnrollPolicy.SELECTIVE]
            assert sizes[UnrollPolicy.SELECTIVE] <= sizes[UnrollPolicy.ALL]

    def test_codegen_consistent_with_size_model(self, mini):
        """Expanded instructions match the analytic model on real loops."""
        cfg = four_cluster_config(1, 1)
        program = mini.suite[0]
        loop = program.eligible_loops()[0]
        result = mini.schedule_loop(loop, cfg, "bsa", UnrollPolicy.SELECTIVE)
        code = expand_software_pipeline(result.schedule)
        size = schedule_code_size(result.schedule)
        assert sum(i.total_slots for i in code) == size.total_ops
        assert sum(i.useful_ops for i in code) == size.useful_ops

    def test_ii_never_below_mii_anywhere(self, mini):
        for result in mini.memo.values():
            assert result.schedule.ii >= result.schedule.mii

    def test_unified_ipc_bounded_by_issue_width(self, mini):
        unified = unified_config()
        for program in mini.suite:
            perf = mini.program_ipc(program, unified, "bsa", UnrollPolicy.NONE)
            assert perf.ipc <= unified.issue_width
