"""Unit tests for the ModuloSchedule container."""

import pytest

from repro.arch.configs import two_cluster_config, unified_config
from repro.core.schedule import (
    Communication,
    FailureLog,
    ModuloSchedule,
    ScheduledOp,
)
from repro.errors import SchedulingError
from repro.workloads.kernels import daxpy


def make_schedule(ii=4, config=None):
    return ModuloSchedule(daxpy(), config or unified_config(), ii)


class TestScheduledOp:
    def test_stage_and_row(self):
        op = ScheduledOp(node=0, cycle=9, cluster=0, fu_index=1)
        assert op.stage(4) == 2
        assert op.row(4) == 1

    def test_negative_cycle_floor_stage(self):
        op = ScheduledOp(node=0, cycle=-1, cluster=0, fu_index=0)
        assert op.stage(4) == -1
        assert op.row(4) == 3

    def test_is_an_immutable_row(self):
        op = ScheduledOp(3, 17, 1, 0)
        assert list(op) == [3, 17, 1, 0]
        assert ScheduledOp._make([3, 17, 1, 0]) == op
        assert hash(op) == hash((3, 17, 1, 0))
        assert op._replace(cycle=18) == ScheduledOp(3, 18, 1, 0)
        with pytest.raises(AttributeError):
            op.cycle = 18
        assert op.cycle == 17


class TestCommunication:
    def test_arrival(self):
        c = Communication(producer=1, src_cluster=0, bus=0, start_cycle=5)
        assert c.arrival(bus_latency=2) == 7

    def test_with_reader_accumulates(self):
        c = Communication(1, 0, 0, 5)
        c2 = c.with_reader(1).with_reader(3)
        assert c2.readers == {1, 3}
        assert c.readers == frozenset()  # immutable original


class TestFailureLog:
    def test_total(self):
        log = FailureLog(no_fu=2, no_bus=3, register_pressure=1)
        assert log.total == 6


class TestModuloSchedule:
    def test_place_twice_rejected(self):
        s = make_schedule()
        s.place(ScheduledOp(0, 0, 0, 0))
        with pytest.raises(SchedulingError):
            s.place(ScheduledOp(0, 1, 0, 0))

    def test_completeness(self):
        s = make_schedule()
        assert not s.is_complete
        for i, node in enumerate(s.graph.node_ids):
            s.place(ScheduledOp(node, i, 0, 0))
        assert s.is_complete

    def test_stage_count_single_stage(self):
        s = make_schedule(ii=10)
        for node in s.graph.node_ids:
            s.place(ScheduledOp(node, node, 0, 0))
        assert s.stage_count == 1

    def test_stage_count_multi_stage(self):
        s = make_schedule(ii=2)
        cycles = [0, 1, 2, 5, 9]
        for node, cycle in zip(s.graph.node_ids, cycles):
            s.place(ScheduledOp(node, cycle, 0, 0))
        assert s.stage_count == 9 // 2 + 1

    def test_stage_count_includes_comm_tail(self):
        cfg = two_cluster_config(1, 4)
        s = ModuloSchedule(daxpy(), cfg, ii=4)
        for node in s.graph.node_ids:
            s.place(ScheduledOp(node, 0, 0, 0))
        s.add_comm(Communication(0, 0, 0, start_cycle=6))
        # comm busy through cycle 9 -> stage 2
        assert s.stage_count == 3

    def test_schedule_length(self):
        s = make_schedule(ii=4)
        s.place(ScheduledOp(0, 7, 0, 0))
        assert s.schedule_length == 8

    def test_cluster_queries(self):
        cfg = two_cluster_config()
        s = ModuloSchedule(daxpy(), cfg, ii=4)
        s.place(ScheduledOp(0, 0, 1, 0))
        assert s.cluster_of(0) == 1
        assert s.nodes_in_cluster(1) == [0]
        assert s.nodes_in_cluster(0) == []

    def test_replace_comm(self):
        cfg = two_cluster_config()
        s = ModuloSchedule(daxpy(), cfg, ii=4)
        c = Communication(0, 0, 0, 2)
        s.add_comm(c)
        s.replace_comm(c, c.with_reader(1))
        assert s.comms[0].readers == {1}

    def test_describe_mentions_ii_and_comms(self):
        cfg = two_cluster_config()
        s = ModuloSchedule(daxpy(), cfg, ii=5)
        s.place(ScheduledOp(0, 0, 0, 0))
        s.add_comm(Communication(0, 0, 0, 2))
        text = s.describe()
        assert "II=5" in text
        assert "comm" in text


class TestBusLimitedFlag:
    def test_unified_never_bus_limited(self):
        s = make_schedule()
        s.attempt_failures = [FailureLog(no_bus=10)]
        assert not s.was_bus_limited

    def test_requires_ii_above_mii(self):
        cfg = two_cluster_config()
        s = ModuloSchedule(daxpy(), cfg, ii=3, mii=3)
        s.attempt_failures = [FailureLog(no_bus=5)]
        assert not s.was_bus_limited

    def test_bus_failures_mark_limited(self):
        cfg = two_cluster_config()
        s = ModuloSchedule(daxpy(), cfg, ii=4, mii=3)
        s.attempt_failures = [FailureLog(no_bus=1, no_fu=10)]
        assert s.was_bus_limited

    def test_saturated_bus_marks_limited(self):
        cfg = two_cluster_config()
        s = ModuloSchedule(daxpy(), cfg, ii=4, mii=3)
        s.attempt_failures = [FailureLog(no_fu=10)]
        s.bus_utilisation = 1.0
        assert s.was_bus_limited

    def test_fu_only_failures_not_limited(self):
        cfg = two_cluster_config()
        s = ModuloSchedule(daxpy(), cfg, ii=4, mii=3)
        s.attempt_failures = [FailureLog(no_fu=10)]
        s.bus_utilisation = 0.5
        assert not s.was_bus_limited
