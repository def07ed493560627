"""Unit tests for VLIW code generation and code-size accounting."""

import pytest

from repro.arch.configs import two_cluster_config, unified_config
from repro.codegen.codesize import CodeSize, ZERO_SIZE, schedule_code_size
from repro.codegen.vliw import generate_kernel, render_schedule
from repro.core.bsa import BsaScheduler
from repro.core.unified import UnifiedScheduler
from repro.workloads.kernels import daxpy, figure7_graph, ladder_graph


class TestKernelGeneration:
    def test_kernel_has_ii_instructions(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        code = generate_kernel(sched)
        assert len(code.kernel) == sched.ii

    def test_all_ops_appear_once(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        code = generate_kernel(sched)
        useful = sum(instr.useful_ops for instr in code.kernel)
        assert useful == len(daxpy())

    def test_slot_totals(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        code = generate_kernel(sched)
        for instr in code.kernel:
            assert instr.total_slots == unified.issue_width
            assert instr.useful_ops + instr.nop_ops == instr.total_slots

    def test_clustered_kernel_with_bus_fields(self, two_cluster):
        sched = BsaScheduler(two_cluster).schedule(figure7_graph())
        code = generate_kernel(sched)
        text = code.render()
        assert "II=" in text
        if sched.comms:
            assert "out[bus" in text

    def test_prologue_epilogue_sizes(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        code = generate_kernel(sched)
        expected = (sched.stage_count - 1) * sched.ii
        assert code.prologue_instructions == expected
        assert code.epilogue_instructions == expected
        assert code.total_instructions == (2 * sched.stage_count - 1) * sched.ii

    def test_render_runs_on_all_kernels(self, kernel_graph, four_cluster):
        sched = BsaScheduler(four_cluster).schedule(kernel_graph)
        text = render_schedule(sched)
        assert kernel_graph.name in text


class TestCodeSize:
    def test_arithmetic(self):
        a = CodeSize(10, 20)
        b = CodeSize(5, 5)
        total = a + b
        assert total.useful_ops == 15
        assert total.total_ops == 40

    def test_normalised(self):
        a = CodeSize(10, 10)
        base = CodeSize(20, 20)
        total_ratio, useful_ratio = a.normalised_to(base)
        assert total_ratio == pytest.approx(0.5)
        assert useful_ratio == pytest.approx(0.5)

    def test_zero_identity(self):
        a = CodeSize(3, 4)
        assert (ZERO_SIZE + a) == a

    def test_schedule_code_size_formula(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        size = schedule_code_size(sched)
        instructions = (2 * sched.stage_count - 1) * sched.ii
        assert size.total_ops == instructions * 12
        assert size.useful_ops == len(daxpy()) * sched.stage_count

    def test_unrolled_code_is_bigger(self):
        from repro.ir.unroll import unroll_graph

        cfg = two_cluster_config(1, 2)
        g = ladder_graph()
        base = schedule_code_size(BsaScheduler(cfg).schedule(g))
        unrolled = schedule_code_size(
            BsaScheduler(cfg).schedule(unroll_graph(g, 2))
        )
        assert unrolled.useful_ops > base.useful_ops

    def test_ii_inflation_adds_nops(self):
        """The ladder at 2c/1bus latency 2 runs at II 6 vs unified II 3:
        the clustered code carries more NOP padding per useful op."""
        g = ladder_graph()
        uni = schedule_code_size(UnifiedScheduler(unified_config()).schedule(g))
        clu = schedule_code_size(
            BsaScheduler(two_cluster_config(1, 2)).schedule(g)
        )
        nops_per_useful_uni = uni.nop_ops / uni.useful_ops
        nops_per_useful_clu = clu.nop_ops / clu.useful_ops
        assert nops_per_useful_clu > nops_per_useful_uni
