"""Tests for non-homogeneous cluster configurations (Section 3 note)."""

import pytest

from repro.arch.cluster import MachineConfig, heterogeneous_config
from repro.arch.resources import BusSpec, FuSet
from repro.arch.timing import cycle_time_ps, register_file_ports
from repro.core.bsa import BsaScheduler
from repro.core.mii import res_mii
from repro.core.twophase import TwoPhaseScheduler
from repro.core.verify import verify_schedule
from repro.errors import ConfigError
from repro.ir.ddg import DependenceGraph
from repro.workloads.kernels import stencil3


def fp_and_mem_machine():
    """An FP-heavy cluster next to an int/mem cluster (TI C6000 style)."""
    return heterogeneous_config(
        "fp+mem",
        cluster_fus=(FuSet(1, 3, 1), FuSet(2, 1, 2)),
        regs_per_cluster=32,
        buses=BusSpec(1, 1),
    )


class TestConfig:
    def test_constructor_checks_length(self):
        with pytest.raises(ConfigError, match="entries"):
            MachineConfig(
                "bad", 3, FuSet(1, 1, 1), 16, BusSpec(1, 1),
                cluster_fus=(FuSet(1, 1, 1),),
            )

    def test_empty_cluster_list_rejected(self):
        with pytest.raises(ConfigError):
            heterogeneous_config("x", (), 16, BusSpec(1, 1))

    def test_total_fus_sums_clusters(self):
        cfg = fp_and_mem_machine()
        assert cfg.total_fus == FuSet(3, 4, 3)
        assert cfg.issue_width == 10

    def test_fu_set_per_cluster(self):
        cfg = fp_and_mem_machine()
        assert cfg.fu_set(0) == FuSet(1, 3, 1)
        assert cfg.fu_set(1) == FuSet(2, 1, 2)

    def test_is_homogeneous(self):
        assert not fp_and_mem_machine().is_homogeneous
        same = heterogeneous_config(
            "same", (FuSet(1, 1, 1), FuSet(1, 1, 1)), 16, BusSpec(1, 1)
        )
        assert same.is_homogeneous

    def test_max_fus_in_a_cluster(self):
        assert fp_and_mem_machine().max_fus_in_a_cluster == 5

    def test_describe_lists_clusters(self):
        text = fp_and_mem_machine().describe()
        assert "1I/3F/1M" in text and "2I/1F/2M" in text

    def test_unified_equivalent_pools(self):
        cfg = fp_and_mem_machine()
        uni = cfg.unified_equivalent()
        assert uni.issue_width == cfg.issue_width
        assert uni.n_clusters == 1

    def test_with_buses_preserves_heterogeneity(self):
        cfg = fp_and_mem_machine().with_buses(2, 4)
        assert cfg.cluster_fus is not None
        assert cfg.fu_set(0) == FuSet(1, 3, 1)


class TestTiming:
    def test_worst_cluster_drives_delays(self):
        cfg = fp_and_mem_machine()
        # 5 FUs in the larger cluster -> 15 FU ports + 2 bus ports
        assert register_file_ports(cfg) == 17
        assert cycle_time_ps(cfg) > 0


class TestMii:
    def test_res_mii_uses_totals(self):
        cfg = fp_and_mem_machine()
        g = DependenceGraph()
        for _ in range(8):
            g.add_operation("fadd")
        # 8 fp ops / 4 fp units total -> 2
        assert res_mii(g, cfg) == 2


class TestScheduling:
    def test_bsa_all_kernels(self, kernel_graph):
        sched = BsaScheduler(fp_and_mem_machine()).schedule(kernel_graph)
        verify_schedule(sched)

    def test_twophase_all_kernels(self, kernel_graph):
        sched = TwoPhaseScheduler(fp_and_mem_machine()).schedule(kernel_graph)
        verify_schedule(sched)

    def test_fp_work_lands_on_fp_cluster(self):
        """A pure-FP loop must concentrate where the FP units are."""
        g = DependenceGraph()
        prev = None
        for i in range(6):
            node = g.add_operation("fadd", f"f{i}")
            if prev is not None:
                g.add_dependence(prev, node)
            prev = node
        cfg = heterogeneous_config(
            "fp-island",
            cluster_fus=(FuSet(1, 4, 1), FuSet(4, 1, 4)),
            regs_per_cluster=32,
            buses=BusSpec(1, 1),
        )
        sched = BsaScheduler(cfg).schedule(g)
        verify_schedule(sched)
        on_fp_cluster = sum(
            1 for op in sched.ops.values() if op.cluster == 0
        )
        assert on_fp_cluster >= len(g) // 2

    def test_mem_less_cluster_never_runs_loads(self):
        cfg = heterogeneous_config(
            "no-mem-c1",
            cluster_fus=(FuSet(2, 2, 3), FuSet(2, 2, 0)),
            regs_per_cluster=32,
            buses=BusSpec(1, 1),
        )
        sched = BsaScheduler(cfg).schedule(stencil3())
        verify_schedule(sched)
        from repro.ir.operation import FuClass

        for node, placed in sched.ops.items():
            if sched.graph.operation(node).fu_class is FuClass.MEM:
                assert placed.cluster == 0
