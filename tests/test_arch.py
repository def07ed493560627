"""Unit tests for the machine model (resources, configs, ISA, timing)."""

import pytest

from repro.arch.cluster import MachineConfig, heterogeneous_config
from repro.arch.configs import (
    clustered_config,
    four_cluster_config,
    paper_configs,
    table1_rows,
    two_cluster_config,
    unified_config,
)
from repro.arch.isa import empty_instruction, slots_per_instruction
from repro.arch.resources import BusSpec, FuSet
from repro.arch.timing import (
    bypass_delay_ps,
    clock_speedup,
    cycle_time_breakdown,
    cycle_time_ps,
    register_file_delay_ps,
    register_file_ports,
    table2_rows,
)
from repro.errors import ConfigError
from repro.ir.operation import FuClass


class TestFuSet:
    def test_count_by_class(self):
        fus = FuSet(2, 3, 4)
        assert fus.count(FuClass.INT) == 2
        assert fus.count(FuClass.FP) == 3
        assert fus.count(FuClass.MEM) == 4
        assert fus.total == 9

    def test_scaled(self):
        assert FuSet(1, 1, 1).scaled(4) == FuSet(4, 4, 4)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigError):
            FuSet(0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            FuSet(-1, 1, 1)


class TestBusSpec:
    def test_zero_buses_allowed(self):
        assert BusSpec(0, 1).count == 0

    def test_bad_latency_rejected(self):
        with pytest.raises(ConfigError):
            BusSpec(1, 0)

    def test_str(self):
        assert "2" in str(BusSpec(2, 4))
        assert "no buses" in str(BusSpec(0, 1))


class TestMachineConfig:
    def test_paper_configs_share_total_resources(self):
        cfgs = paper_configs()
        widths = {c.issue_width for c in cfgs.values()}
        regs = {c.total_registers for c in cfgs.values()}
        assert widths == {12}
        assert regs == {64}

    def test_clustered_without_bus_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig("bad", 2, FuSet(1, 1, 1), 16, BusSpec(0, 1))

    def test_unified_equivalent_pools_resources(self):
        four = four_cluster_config()
        uni = four.unified_equivalent()
        assert uni.n_clusters == 1
        assert uni.issue_width == four.issue_width
        assert uni.total_registers == four.total_registers

    def test_with_buses(self):
        cfg = two_cluster_config(1, 1).with_buses(2, 4)
        assert cfg.buses.count == 2
        assert cfg.buses.latency == 4
        assert cfg.n_clusters == 2

    def test_cluster_range_check(self):
        cfg = two_cluster_config()
        with pytest.raises(ConfigError):
            cfg.fu_count(5, FuClass.INT)

    @pytest.mark.parametrize(
        "cfg",
        [
            four_cluster_config(),
            heterogeneous_config(
                "het",
                (FuSet(3, 1, 2), FuSet(1, 4, 1), FuSet(2, 2, 5)),
                16,
                BusSpec(1, 1),
            ),
        ],
        ids=["homogeneous", "heterogeneous"],
    )
    def test_fu_count_every_class_and_cluster(self, cfg):
        fields = {
            FuClass.INT: "int_units",
            FuClass.FP: "fp_units",
            FuClass.MEM: "mem_units",
        }
        for cluster in range(cfg.n_clusters):
            fus = cfg.cluster_fus[cluster] if cfg.cluster_fus else cfg.fu_per_cluster
            for fu_class in FuClass:
                expected = getattr(fus, fields[fu_class])
                assert cfg.fu_count(cluster, fu_class) == expected
                assert fus.count(fu_class) == expected
        for cluster in (-1, cfg.n_clusters):
            with pytest.raises(ConfigError):
                cfg.fu_count(cluster, FuClass.INT)

    def test_clustered_config_dispatch(self):
        assert clustered_config(1).n_clusters == 1
        assert clustered_config(2).n_clusters == 2
        assert clustered_config(4).n_clusters == 4
        with pytest.raises(ValueError):
            clustered_config(3)

    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == 3
        assert {r["config"] for r in rows} == {"unified", "2-cluster", "4-cluster"}
        for row in rows:
            assert row["total_issue_width"] == 12
            assert row["total_registers"] == 64


class TestIsa:
    def test_empty_instruction_slot_count(self):
        for cfg in paper_configs().values():
            instr = empty_instruction(cfg, 0)
            assert instr.total_slots == cfg.issue_width
            assert instr.useful_ops == 0
            assert instr.nop_ops == cfg.issue_width

    def test_slots_per_instruction(self):
        assert slots_per_instruction(unified_config()) == 12
        assert slots_per_instruction(four_cluster_config()) == 12

    def test_render_contains_cluster_markers(self):
        instr = empty_instruction(two_cluster_config(), 3)
        text = instr.render()
        assert "c0[" in text and "c1[" in text


class TestTiming:
    def test_ports_formula(self):
        # unified: 3 ports x 12 FUs, no bus ports
        assert register_file_ports(unified_config()) == 36
        # 4-cluster, 1 bus: 3x3 + 2
        assert register_file_ports(four_cluster_config(1, 1)) == 11
        # 2 buses add two more ports
        assert register_file_ports(four_cluster_config(2, 1)) == 13

    def test_calibrated_cycle_times(self):
        assert cycle_time_ps(unified_config()) == pytest.approx(1520, abs=2)
        assert cycle_time_ps(two_cluster_config(1, 1)) == pytest.approx(760, abs=2)
        assert cycle_time_ps(four_cluster_config(1, 1)) == pytest.approx(420, abs=2)

    def test_clock_ratio_supports_headline(self):
        # The 3.6x headline needs ~3.6x clock at IPC parity.
        ratio = clock_speedup(four_cluster_config(1, 1), unified_config())
        assert 3.4 <= ratio <= 3.8

    def test_monotonicity_in_cluster_count(self):
        u = cycle_time_ps(unified_config())
        two = cycle_time_ps(two_cluster_config(1, 1))
        four = cycle_time_ps(four_cluster_config(1, 1))
        assert u > two > four

    def test_more_buses_slow_the_clock(self):
        one = cycle_time_ps(four_cluster_config(1, 1))
        two = cycle_time_ps(four_cluster_config(2, 1))
        assert two > one

    def test_bypass_quadratic(self):
        assert bypass_delay_ps(unified_config()) == pytest.approx(
            16 * bypass_delay_ps(four_cluster_config())
        )

    def test_breakdown_critical_path(self):
        bd = cycle_time_breakdown(unified_config())
        assert bd.cycle_ps == max(bd.bypass_ps, bd.regfile_ps)
        assert bd.critical_path in ("bypass", "regfile")

    def test_table2_rows_structure(self):
        rows = table2_rows(list(paper_configs().values()))
        assert len(rows) == 3
        for row in rows:
            assert row["cycle_ps"] >= row["bypass_ps"] or row["cycle_ps"] >= row["regfile_ps"]

    def test_regfile_grows_with_registers(self):
        small = four_cluster_config()
        big = MachineConfig("big", 4, FuSet(1, 1, 1), 64, BusSpec(1, 1))
        assert register_file_delay_ps(big) > register_file_delay_ps(small)
