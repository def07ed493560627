"""Unit tests for the register-pressure (MaxLive) model."""

from oracles import overlay_pressures, pressure_ok

from repro.arch.configs import two_cluster_config, unified_config
from repro.core.lifetimes import _intervals, cluster_pressures, max_pressure
from repro.core.schedule import Communication, ModuloSchedule, ScheduledOp
from repro.ir.ddg import DependenceGraph


def two_node_graph(producer="fadd", consumer="fadd"):
    g = DependenceGraph("two")
    a = g.add_operation(producer)
    b = g.add_operation(consumer)
    g.add_dependence(a, b)
    return g, a, b


class TestProducerLifetimes:
    def test_simple_producer_consumer(self):
        g, a, b = two_node_graph()
        s = ModuloSchedule(g, unified_config(), ii=10)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 3, 0, 0))
        # a written at 3, read at 3 -> interval [3, 4): one register.
        assert cluster_pressures(s)[0] == 1

    def test_overlapping_values(self):
        g = DependenceGraph()
        nodes = [g.add_operation("fadd") for _ in range(3)]
        sink = g.add_operation("fadd")
        for n in nodes:
            g.add_dependence(n, sink)
        s = ModuloSchedule(g, unified_config(), ii=20)
        for i, n in enumerate(nodes):
            s.place(ScheduledOp(n, i, 0, 0))
        s.place(ScheduledOp(sink, 10, 0, 0))
        # all three values live from write (3,4,5) to read 10 -> 3 at once
        assert cluster_pressures(s)[0] == 3

    def test_wrapping_lifetime_counts_multiple(self):
        g, a, b = two_node_graph(consumer="store")
        s = ModuloSchedule(g, unified_config(), ii=3)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 9, 0, 0))
        # lifetime [3, 10) = 7 cycles at II=3 -> ceil: spans rows with
        # multiplicity: 7 = 2*3 + 1 -> base 2 everywhere, 3 on one row.
        assert cluster_pressures(s)[0] == 3

    def test_carried_consumer_read_time(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        b = g.add_operation("store")
        g.add_dependence(a, b, distance=2)
        s = ModuloSchedule(g, unified_config(), ii=5)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 1, 0, 0))
        # read at 1 + 2*5 = 11; lifetime [3, 12) = 9 -> 1 full wrap + 4
        assert cluster_pressures(s)[0] == 2

    def test_store_produces_no_value(self):
        g = DependenceGraph()
        a = g.add_operation("store")
        s = ModuloSchedule(g, unified_config(), ii=4)
        s.place(ScheduledOp(a, 0, 0, 0))
        assert cluster_pressures(s)[0] == 0

    def test_unread_value_occupies_one_cycle(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        s = ModuloSchedule(g, unified_config(), ii=4)
        s.place(ScheduledOp(a, 0, 0, 0))
        assert cluster_pressures(s)[0] == 1

    def test_unscheduled_consumer_ignored(self):
        g, a, b = two_node_graph()
        s = ModuloSchedule(g, unified_config(), ii=10)
        s.place(ScheduledOp(a, 0, 0, 0))
        assert cluster_pressures(s)[0] == 1  # write-only interval


class TestCommunicationLifetimes:
    def cfg(self, latency=2):
        return two_cluster_config(n_buses=1, bus_latency=latency)

    def test_comm_extends_producer_lifetime(self):
        g, a, b = two_node_graph()
        s = ModuloSchedule(g, self.cfg(), ii=10)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 9, 1, 0))
        s.add_comm(Communication(a, 0, 0, start_cycle=7, readers=frozenset({1})))
        # producer interval [3, 8): bus read at 7.
        ivs = _intervals(s)
        assert (0, 3, 8) in ivs

    def test_remote_consumer_does_not_extend_producer(self):
        g, a, b = two_node_graph()
        s = ModuloSchedule(g, self.cfg(), ii=10)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 9, 1, 0))
        s.add_comm(Communication(a, 0, 0, start_cycle=3, readers=frozenset({1})))
        ivs = _intervals(s)
        assert (0, 3, 4) in ivs  # producer holds only until the bus read

    def test_incoming_value_stored_when_read_late(self):
        g, a, b = two_node_graph()
        s = ModuloSchedule(g, self.cfg(latency=2), ii=10)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 9, 1, 0))
        s.add_comm(Communication(a, 0, 0, start_cycle=3, readers=frozenset({1})))
        # arrival 5, read 9 -> stored interval [5, 10) in cluster 1
        ivs = _intervals(s)
        assert (1, 5, 10) in ivs
        assert cluster_pressures(s)[1] == 1

    def test_incoming_value_bypassed_when_read_at_arrival(self):
        g, a, b = two_node_graph(consumer="store")
        s = ModuloSchedule(g, self.cfg(latency=2), ii=10)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 5, 1, 0))  # reads exactly at arrival
        s.add_comm(Communication(a, 0, 0, start_cycle=3, readers=frozenset({1})))
        assert cluster_pressures(s)[1] == 0

    def test_incoming_value_at_negative_cycles(self):
        """Late reads at negative cycles still pin an incoming value.

        Backward scans legally place nodes at negative cycles before the
        schedule is normalised (engine.py docstring).  A ``-1`` sentinel
        for the last late read silently dropped these intervals and
        understated MaxLive, letting placements pass a register check that
        a normalised schedule would reject.
        """
        g, a, b = two_node_graph(consumer="store")
        s = ModuloSchedule(g, self.cfg(latency=2), ii=4)
        s.place(ScheduledOp(a, -9, 0, 0))
        s.place(ScheduledOp(b, -3, 1, 0))  # reads at -3, after arrival -4
        s.add_comm(Communication(a, 0, 0, start_cycle=-6, readers=frozenset({1})))
        ivs = _intervals(s)
        assert (1, -4, -2) in ivs  # stored from arrival -4 until read -3
        assert cluster_pressures(s)[1] == 1

    def test_negative_cycle_pressure_matches_normalised(self):
        """Pressure of an un-normalised schedule equals its shifted twin."""
        g, a, b = two_node_graph()
        cfg = self.cfg(latency=2)
        lo = ModuloSchedule(g, cfg, ii=4)
        lo.place(ScheduledOp(a, -9, 0, 0))
        lo.place(ScheduledOp(b, -3, 1, 0))
        lo.add_comm(Communication(a, 0, 0, start_cycle=-6, readers=frozenset({1})))
        hi = ModuloSchedule(g, cfg, ii=4)
        hi.place(ScheduledOp(a, 3, 0, 0))  # same schedule shifted by +12
        hi.place(ScheduledOp(b, 9, 1, 0))
        hi.add_comm(Communication(a, 0, 0, start_cycle=6, readers=frozenset({1})))
        assert cluster_pressures(lo) == cluster_pressures(hi)

    def test_extra_comms_overlay(self):
        g, a, b = two_node_graph(consumer="store")
        s = ModuloSchedule(g, self.cfg(), ii=10)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 9, 1, 0))
        overlay = [Communication(a, 0, 0, start_cycle=3, readers=frozenset({1}))]
        with_overlay = overlay_pressures(s, overlay)
        without = cluster_pressures(s)
        assert with_overlay[1] == 1
        assert without[1] == 0
        assert s.comms == []  # overlay must not mutate


class TestHelpers:
    def test_max_pressure(self):
        g, a, b = two_node_graph()
        s = ModuloSchedule(g, two_cluster_config(), ii=10)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 3, 0, 0))
        assert max_pressure(s) == 1

    def test_pressure_ok_boundary(self):
        from repro.arch.cluster import MachineConfig
        from repro.arch.resources import BusSpec, FuSet

        tiny = MachineConfig("tiny", 1, FuSet(4, 4, 4), 2, BusSpec(0, 1))
        g = DependenceGraph()
        nodes = [g.add_operation("fadd") for _ in range(3)]
        sink = g.add_operation("fadd")
        for n in nodes:
            g.add_dependence(n, sink)
        s = ModuloSchedule(g, tiny, ii=20)
        for i, n in enumerate(nodes):
            s.place(ScheduledOp(n, i, 0, i))
        s.place(ScheduledOp(sink, 10, 0, 3))
        assert not pressure_ok(s)  # needs 3 > 2 registers
