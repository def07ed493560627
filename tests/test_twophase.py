"""Integration tests for the two-phase (N&E-style) comparator."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import reference_partition

from repro.arch.cluster import heterogeneous_config
from repro.arch.configs import clustered_config, four_cluster_config, two_cluster_config
from repro.arch.resources import BusSpec, FuSet
from repro.core.bsa import BsaScheduler
from repro.core.mii import mii
from repro.core.twophase import TwoPhaseScheduler, _super_nodes, partition_graph
from repro.core.verify import verify_schedule
from repro.ir.ddg import DependenceGraph
from repro.ir.unroll import unroll_graph
from repro.workloads.generator import LoopShape, RecurrenceSpec, generate_loop
from repro.workloads.kernels import figure7_graph, ladder_graph
from repro.workloads.registry import workload, workloads


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


#: Every catalogue kernel: the hand-written kernels and the Livermore loops.
CATALOGUE = sorted(
    spec.name for tag in ("kernel", "livermore") for spec in workloads(tag=tag)
)


@st.composite
def generated_graph(draw):
    """A generator loop, unrolled x1, x2 or x4."""
    # A narrow operand window and two operands per compute op make a
    # node read one value twice: two flow edges to the same neighbour.
    shape = LoopShape(
        "prop-partition",
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        n_ops=draw(st.integers(min_value=3, max_value=30)),
        fp_fraction=draw(st.sampled_from([0.3, 0.8])),
        recurrences=tuple(
            RecurrenceSpec(
                draw(st.integers(min_value=1, max_value=4)),
                draw(st.integers(min_value=1, max_value=2)),
            )
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ),
        carried_edge_prob=draw(st.sampled_from([0.0, 0.25])),
        fanin=draw(st.sampled_from([1.7, 2.0])),
        locality_window=draw(st.sampled_from([2, 3, 6])),
    )
    return unroll_graph(generate_loop(shape), draw(st.sampled_from([1, 2, 4])))


@st.composite
def heterogeneous_machine(draw):
    """Random per-cluster units; one cluster lacks some class outright."""
    n_clusters = draw(st.sampled_from([2, 4]))
    counts = [
        [draw(st.integers(min_value=0, max_value=2)) for _ in range(3)]
        for _ in range(n_clusters)
    ]
    lacking = draw(st.integers(min_value=0, max_value=n_clusters - 1))
    absent = draw(st.integers(min_value=0, max_value=2))
    counts[lacking][absent] = 0
    counts[lacking][(absent + 1) % 3] = max(1, counts[lacking][(absent + 1) % 3])
    for row in counts:
        row[0] = row[0] if sum(row) else 1
    for k in range(3):  # every class somewhere, so MII exists
        if not any(row[k] for row in counts):
            counts[(lacking + 1) % n_clusters][k] = 1
    return heterogeneous_config(
        "prop-hetero",
        tuple(FuSet(*row) for row in counts),
        16,
        BusSpec(1, draw(st.sampled_from([1, 4]))),
    )


def homogeneous_machine():
    return st.builds(
        clustered_config, st.sampled_from([2, 4]), st.just(1), st.sampled_from([1, 4])
    )


def assert_matches_reference(graph, machine):
    """Same assignment, in the same dict order, for II from MII to MII+8."""
    low = mii(graph, machine)
    for ii in range(low, low + 9):
        got = partition_graph(graph, machine, ii)
        want = reference_partition(graph, machine, ii)
        assert list(got.items()) == list(want.items()), (graph.name, ii)


class TestPartitionMatchesReference:
    """The O(FU classes) scoring assigns exactly as the rescoring oracle."""

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        graph=generated_graph(),
        machine=st.one_of(homogeneous_machine(), heterogeneous_machine()),
    )
    def test_generated_loops(self, graph, machine):
        assert_matches_reference(graph, machine)

    @settings(max_examples=60, deadline=None)
    @given(graph=generated_graph())
    def test_units_cover_the_graph_and_list_only_leaving_edges(self, graph):
        # A unit's members are unassigned while it is scored, so an edge
        # between two members could only ever count if super-nodes
        # overlapped; the units must list each leaving edge once.
        units = _super_nodes(graph)
        members = [node for nodes, _demand, _outside in units for node in nodes]
        assert sorted(members) == sorted(graph.node_ids)
        for nodes, demand, outside in units:
            leaving = []
            for node in nodes:
                ends = [dep.dst for dep in graph.flow_consumers(node)]
                ends += [dep.src for dep in graph.flow_producers(node)]
                leaving += [end for end in ends if end not in nodes]
            assert sorted(outside) == sorted(leaving)
            assert sum(demand) == len(nodes)

    @pytest.mark.parametrize("name", CATALOGUE)
    def test_catalogue_kernels(self, name):
        graph = workload(name).factory()
        for factor in (1, 2, 4):
            unrolled = unroll_graph(graph, factor)
            for n_clusters in (2, 4):
                for latency in (1, 4):
                    machine = clustered_config(n_clusters, 1, latency)
                    assert_matches_reference(unrolled, machine)

    @pytest.mark.parametrize(
        "name", sorted(spec.name for spec in workloads(tag="specfp"))
    )
    def test_specfp_loops(self, name):
        # Several of these loops read one value twice, so scoring a
        # neighbour once instead of once per edge moves their partition.
        for loop in workload(name).factory().loops:
            for machine in (clustered_config(2, 1, 1), clustered_config(4, 1, 4)):
                assert_matches_reference(loop.graph, machine)


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
