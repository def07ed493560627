"""Integration tests for the two-phase (N&E-style) comparator."""

from repro.arch.configs import four_cluster_config, two_cluster_config
from repro.core.bsa import BsaScheduler
from repro.core.twophase import TwoPhaseScheduler, partition_graph
from repro.core.verify import verify_schedule
from repro.ir.ddg import DependenceGraph
from repro.ir.unroll import unroll_graph
from repro.workloads.kernels import figure7_graph, ladder_graph


class TestPartitioner:
    def test_complete_assignment(self, four_cluster, kernel_graph):
        assignment = partition_graph(kernel_graph, four_cluster, ii=4)
        assert set(assignment) == set(kernel_graph.node_ids)
        assert all(0 <= c < 4 for c in assignment.values())

    def test_recurrence_kept_whole(self, two_cluster):
        g = figure7_graph()
        assignment = partition_graph(g, two_cluster, ii=2)
        rec_clusters = {assignment[n] for n in (0, 1, 3)}  # A, B, D
        assert len(rec_clusters) == 1

    def test_capacity_forces_spreading(self, two_cluster):
        # 8 independent fp ops at II=2: each cluster holds 2 fp units x 2
        # rows = 4 -> both clusters must be used.
        g = DependenceGraph()
        for _ in range(8):
            g.add_operation("fadd")
        assignment = partition_graph(g, two_cluster, ii=2)
        from collections import Counter

        counts = Counter(assignment.values())
        assert set(counts) == {0, 1}
        assert max(counts.values()) <= 4

    def test_connected_nodes_attracted(self, two_cluster):
        g, ids = DependenceGraph(), []
        a = g.add_operation("fadd")
        b = g.add_operation("fadd")
        g.add_dependence(a, b)
        assignment = partition_graph(g, two_cluster, ii=4)
        assert assignment[a] == assignment[b]

    def test_deterministic(self, four_cluster, kernel_graph):
        a1 = partition_graph(kernel_graph, four_cluster, ii=4)
        a2 = partition_graph(kernel_graph, four_cluster, ii=4)
        assert a1 == a2


class TestTwoPhaseScheduler:
    def test_all_kernels_verify_2c(self, kernel_graph, two_cluster):
        sched = TwoPhaseScheduler(two_cluster).schedule(kernel_graph)
        verify_schedule(sched)

    def test_all_kernels_verify_4c(self, kernel_graph, four_cluster):
        sched = TwoPhaseScheduler(four_cluster).schedule(kernel_graph)
        verify_schedule(sched)

    def test_slow_bus_configs(self, kernel_graph):
        cfg = two_cluster_config(n_buses=2, bus_latency=4)
        sched = TwoPhaseScheduler(cfg).schedule(kernel_graph)
        verify_schedule(sched)

    def test_single_cluster_works(self, unified, kernel_graph):
        sched = TwoPhaseScheduler(unified).schedule(kernel_graph)
        verify_schedule(sched)


class TestBsaVsTwoPhase:
    """The paper's core claim: single-pass >= two-phase."""

    def test_bsa_never_worse_on_kernels(self, kernel_graph):
        for cfg in (two_cluster_config(1, 1), four_cluster_config(1, 1)):
            bsa = BsaScheduler(cfg).schedule(kernel_graph)
            twop = TwoPhaseScheduler(cfg).schedule(kernel_graph)
            # Allow a tiny per-loop reversal; the aggregate claim is
            # checked in the experiment tests.
            assert bsa.ii <= twop.ii + 1, kernel_graph.name

    def test_bsa_beats_twophase_on_unrolled_ladder(self):
        """On the unrolled ladder the joint pass finds the copy-per-cluster
        split; the partitioner works without cycle information and cannot
        be better."""
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        g = unroll_graph(ladder_graph(), 2)
        bsa = BsaScheduler(cfg).schedule(g)
        twop = TwoPhaseScheduler(cfg).schedule(g)
        assert bsa.ii <= twop.ii
