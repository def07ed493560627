"""Integration tests for the BSA single-pass cluster scheduler."""

import pytest

from oracles import cluster_out_edges, out_edges_if_joined
from repro.arch.cluster import MachineConfig
from repro.arch.configs import four_cluster_config, two_cluster_config
from repro.arch.resources import BusSpec, FuSet
from repro.core.bsa import BsaScheduler
from repro.core.mii import mii
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.errors import ConfigError
from repro.ir.ddg import DependenceGraph
from repro.ir.unroll import unroll_graph
from repro.workloads.kernels import (
    ALL_KERNELS,
    daxpy,
    dot_product,
    figure7_graph,
    ladder_graph,
    stencil3,
)


class TestProfitMeasure:
    def test_out_edges_empty_cluster(self):
        g = daxpy()
        assert cluster_out_edges(g, {}, 0) == 0

    def test_out_edges_counts_unscheduled_targets(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        b = g.add_operation("fadd")
        c = g.add_operation("fadd")
        g.add_dependence(a, b)
        g.add_dependence(a, c)
        # a alone in cluster 0: both consumers outside -> 2 out edges
        assert cluster_out_edges(g, {a: 0}, 0) == 2
        # b joins cluster 0 -> 1 out edge (to c)
        assert out_edges_if_joined(g, {a: 0}, 0, b) == 1

    def test_profit_prefers_neighbor_cluster(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        b = g.add_operation("fadd")
        g.add_dependence(a, b)
        before0 = cluster_out_edges(g, {a: 0}, 0)
        after0 = out_edges_if_joined(g, {a: 0}, 0, b)
        profit0 = before0 - after0
        before1 = cluster_out_edges(g, {a: 0}, 1)
        after1 = out_edges_if_joined(g, {a: 0}, 1, b)
        profit1 = before1 - after1
        assert profit0 > profit1

    def test_self_loop_not_an_out_edge(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        g.add_dependence(a, a, distance=1)
        assert cluster_out_edges(g, {a: 0}, 0) == 0


class TestBsaBasics:
    def test_all_kernels_verify_2c(self, kernel_graph, two_cluster):
        sched = BsaScheduler(two_cluster).schedule(kernel_graph)
        verify_schedule(sched)

    def test_all_kernels_verify_4c(self, kernel_graph, four_cluster):
        sched = BsaScheduler(four_cluster).schedule(kernel_graph)
        verify_schedule(sched)

    def test_all_kernels_verify_slow_bus(self, kernel_graph):
        cfg = four_cluster_config(n_buses=1, bus_latency=4)
        sched = BsaScheduler(cfg).schedule(kernel_graph)
        verify_schedule(sched)

    def test_single_cluster_bsa_matches_unified(self, kernel_graph, unified):
        """BSA on a 1-cluster machine degenerates to plain SMS."""
        bsa = BsaScheduler(unified).schedule(kernel_graph)
        sms = UnifiedScheduler(unified).schedule(kernel_graph)
        assert bsa.ii == sms.ii

    def test_invalid_ordering_rejected(self, two_cluster):
        with pytest.raises(ConfigError):
            BsaScheduler(two_cluster, order="banana")

    def test_topological_ordering_works(self, two_cluster):
        sched = BsaScheduler(two_cluster, order="topo").schedule(stencil3())
        verify_schedule(sched)


class TestClusterSpreading:
    def test_disconnected_subgraphs_spread(self, two_cluster):
        """Two independent copies of daxpy land on different clusters
        (the default-cluster advance of Figure 5 step (2))."""
        from repro.ir.ddg import merge_graphs

        g = merge_graphs("two-daxpy", [daxpy(), daxpy()])
        sched = BsaScheduler(two_cluster).schedule(g)
        verify_schedule(sched)
        clusters_used = {op.cluster for op in sched.ops.values()}
        assert clusters_used == {0, 1}
        assert sched.communication_count == 0

    def test_unrolled_iterations_spread(self, four_cluster):
        """Unrolled parallel iterations occupy all four clusters."""
        g = unroll_graph(daxpy(), 4)
        sched = BsaScheduler(four_cluster).schedule(g)
        verify_schedule(sched)
        clusters_used = {op.cluster for op in sched.ops.values()}
        assert len(clusters_used) == 4
        assert sched.communication_count == 0

    def test_connected_small_graph_stays_together(self, two_cluster):
        """A connected chain that fits one cluster at MII: no comms.

        load -> fmul -> fadd -> store needs 2 mem + 2 fp slots; one
        cluster provides exactly that at II = 1.
        """
        g = DependenceGraph()
        ld = g.add_operation("load")
        m = g.add_operation("fmul")
        a = g.add_operation("fadd")
        st = g.add_operation("store")
        g.add_dependence(ld, m)
        g.add_dependence(m, a)
        g.add_dependence(a, st)
        sched = BsaScheduler(two_cluster).schedule(g)
        verify_schedule(sched)
        assert sched.communication_count == 0
        assert len({op.cluster for op in sched.ops.values()}) == 1


class TestCommunications:
    def test_figure7_paper_numbers(self, two_cluster):
        """The paper's walk-through: MII = 2 but the non-unrolled loop is
        bus limited and settles at II = 3 (the paper's own number)."""
        g = figure7_graph()
        sched = BsaScheduler(two_cluster).schedule(g)
        verify_schedule(sched)
        assert sched.mii == 2
        assert sched.ii == 3
        assert sched.was_bus_limited

    def test_figure7_unrolled_beats_unified_rate(self, two_cluster):
        """Unrolled by 2: II = 3 for two source iterations (1.5
        cycles/iteration) — the MII-rounding gain of Lavery & Hwu that
        Section 5.2 cites."""
        g = unroll_graph(figure7_graph(), 2)
        sched = BsaScheduler(two_cluster).schedule(g)
        verify_schedule(sched)
        assert sched.ii / 2 < 2  # beats the unified machine's MII of 2

    def test_broadcast_reuses_transfer(self):
        """Two remote consumers of the same value share one transfer."""
        g = DependenceGraph()
        producers = [g.add_operation("fadd") for _ in range(6)]
        hub = g.add_operation("fadd", "hub")
        consumers = [g.add_operation("fadd") for _ in range(6)]
        for p in producers:
            g.add_dependence(p, hub)
        for c in consumers:
            g.add_dependence(hub, c)
        cfg = two_cluster_config(n_buses=1, bus_latency=1)
        sched = BsaScheduler(cfg).schedule(g)
        verify_schedule(sched)
        # hub's value crosses at most once per destination cluster; with
        # 2 clusters that is at most 1 transfer of hub.
        hub_comms = [c for c in sched.comms if c.producer == hub]
        assert len(hub_comms) <= 1

    def test_ladder_bus_limited_without_unroll(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        sched = BsaScheduler(cfg).schedule(ladder_graph())
        verify_schedule(sched)
        assert sched.ii > sched.mii
        assert sched.was_bus_limited

    def test_ladder_unrolled_reaches_parity(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        g2 = unroll_graph(ladder_graph(), 2)
        sched = BsaScheduler(cfg).schedule(g2)
        verify_schedule(sched)
        assert sched.ii == 6  # 3 cycles per source iteration = unified MII
        assert sched.communication_count == 0

    def test_more_buses_never_hurt(self):
        g = ladder_graph()
        one = BsaScheduler(two_cluster_config(1, 2)).schedule(g)
        two = BsaScheduler(two_cluster_config(2, 2)).schedule(g)
        assert two.ii <= one.ii


class TestRegisterPressure:
    def test_pressure_respected_on_tiny_files(self):
        tiny = MachineConfig(
            "tiny-regs", 2, FuSet(2, 2, 2), 6, BusSpec(1, 1)
        )
        sched = BsaScheduler(tiny).schedule(stencil3())
        verify_schedule(sched)  # verifier re-checks MaxLive <= 6

    def test_pressure_bound_error_is_loud(self):
        """A graph whose live set exceeds the file at *every* II fails
        loudly (early abort) instead of grinding the whole II budget.

        Each producer feeds a next-iteration consumer, so its value spans
        more than a full II and costs two registers at any II; three such
        producers can never fit a 2-register file.
        """
        from repro.errors import SchedulingError

        starved = MachineConfig("starved", 1, FuSet(4, 4, 4), 1, BusSpec(0, 1))
        g = DependenceGraph()
        p1 = g.add_operation("fadd", "p1")
        p2 = g.add_operation("fadd", "p2")
        c = g.add_operation("fadd", "c")
        # c reads both values in the same cycle: two registers alive at
        # once, at any II — a 1-register file can never hold them.
        g.add_dependence(p1, c)
        g.add_dependence(p2, c)
        with pytest.raises(SchedulingError):
            BsaScheduler(starved).schedule(g)
