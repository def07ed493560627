"""The reference software-pipeline expansion (prologue, kernel, epilogue;
``tests/oracles.py``) and the closed-form code-size model it checks."""

import pytest
from oracles import expand_software_pipeline

from repro.codegen import schedule_code_size
from repro.core.bsa import BsaScheduler
from repro.core.unified import UnifiedScheduler
from repro.workloads.kernels import daxpy, figure7_graph


class TestExpansion:
    def test_instruction_count(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        code = expand_software_pipeline(sched)
        assert len(code) == (2 * sched.stage_count - 1) * sched.ii

    def test_useful_ops_equal_ops_times_stages(self, kernel_graph, unified):
        sched = UnifiedScheduler(unified).schedule(kernel_graph)
        code = expand_software_pipeline(sched)
        useful = sum(instr.useful_ops for instr in code)
        assert useful == len(sched.ops) * sched.stage_count

    def test_matches_code_size_model(self, kernel_graph, four_cluster):
        """The analytic code-size model equals the actually expanded code."""
        sched = BsaScheduler(four_cluster).schedule(kernel_graph)
        code = expand_software_pipeline(sched)
        size = schedule_code_size(sched)
        assert sum(i.total_slots for i in code) == size.total_ops
        assert sum(i.useful_ops for i in code) == size.useful_ops

    def test_prologue_ramps_up(self, unified):
        """Each prologue group adds one more stage's operations."""
        sched = UnifiedScheduler(unified).schedule(daxpy())
        if sched.stage_count < 3:
            pytest.skip("needs a multi-stage schedule")
        code = expand_software_pipeline(sched)
        ii = sched.ii
        group_useful = [
            sum(instr.useful_ops for instr in code[k * ii : (k + 1) * ii])
            for k in range(sched.stage_count - 1)
        ]
        assert group_useful == sorted(group_useful)

    def test_epilogue_drains(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        if sched.stage_count < 3:
            pytest.skip("needs a multi-stage schedule")
        code = expand_software_pipeline(sched)
        ii = sched.ii
        sc = sched.stage_count
        epilogue_start = sc * ii  # prologue (sc-1 groups) + kernel
        group_useful = [
            sum(
                instr.useful_ops
                for instr in code[epilogue_start + k * ii : epilogue_start + (k + 1) * ii]
            )
            for k in range(sc - 1)
        ]
        assert group_useful == sorted(group_useful, reverse=True)

    def test_kernel_group_contains_all_ops(self, two_cluster):
        sched = BsaScheduler(two_cluster).schedule(figure7_graph())
        code = expand_software_pipeline(sched)
        ii = sched.ii
        sc = sched.stage_count
        kernel = code[(sc - 1) * ii : sc * ii]
        assert sum(i.useful_ops for i in kernel) == len(sched.ops)
