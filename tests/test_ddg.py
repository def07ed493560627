"""Unit tests for the dependence graph."""

import pytest
from oracles import to_networkx

from repro.errors import GraphError
from repro.ir.ddg import Dependence, DependenceGraph, DepKind, merge_graphs


def chain(n=3, opcode="iadd"):
    g = DependenceGraph("chain")
    ids = [g.add_operation(opcode) for _ in range(n)]
    for a, b in zip(ids, ids[1:]):
        g.add_dependence(a, b)
    return g, ids


class TestConstruction:
    def test_dense_ids(self):
        g, ids = chain(4)
        assert ids == [0, 1, 2, 3]
        assert g.node_ids == ids

    def test_flow_latency_defaults_to_producer(self):
        g = DependenceGraph()
        a = g.add_operation("fmul")  # latency 4
        b = g.add_operation("fadd")
        dep = g.add_dependence(a, b)
        assert dep.latency == 4

    def test_mem_edge_latency_defaults_to_one(self):
        g = DependenceGraph()
        a = g.add_operation("store")
        b = g.add_operation("load")
        dep = g.add_dependence(a, b, kind=DepKind.MEM)
        assert dep.latency == 1

    def test_unknown_node_rejected(self):
        g, _ = chain(2)
        with pytest.raises(GraphError, match="unknown node"):
            g.add_dependence(0, 99)

    def test_flow_from_store_rejected(self):
        g = DependenceGraph()
        s = g.add_operation("store")
        t = g.add_operation("iadd")
        with pytest.raises(GraphError, match="no register value"):
            g.add_dependence(s, t)

    def test_negative_distance_rejected(self):
        with pytest.raises(GraphError):
            Dependence(0, 1, latency=1, distance=-1)

    def test_parallel_edges_allowed(self):
        g, ids = chain(2)
        g.add_dependence(ids[0], ids[1], distance=1)
        assert len(g.edges) == 2


class TestQueries:
    def test_neighbors_are_bidirectional(self):
        g, ids = chain(3)
        assert g.neighbors(ids[1]) == {ids[0], ids[2]}

    def test_neighbors_exclude_self_loop(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        g.add_dependence(a, a, distance=1)
        assert g.neighbors(a) == set()

    def test_flow_consumers_excludes_non_flow(self):
        g = DependenceGraph()
        a = g.add_operation("store")
        b = g.add_operation("load")
        g.add_dependence(a, b, kind=DepKind.MEM)
        assert g.flow_consumers(a) == ()

    def test_flow_consumers_cache_invalidation(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        b = g.add_operation("fadd")
        g.add_dependence(a, b)
        assert len(g.flow_consumers(a)) == 1
        c = g.add_operation("fadd")
        g.add_dependence(a, c)
        assert len(g.flow_consumers(a)) == 2

    def test_op_count_by_class(self):
        g = DependenceGraph()
        g.add_operation("load")
        g.add_operation("fadd")
        g.add_operation("fmul")
        counts = g.op_count_by_class()
        from repro.ir.operation import FuClass

        assert counts[FuClass.MEM] == 1
        assert counts[FuClass.FP] == 2

    def test_scc_detection(self):
        g, ids = chain(3)
        g.add_dependence(ids[2], ids[0], distance=1)
        sccs = g.strongly_connected_components()
        assert {frozenset(s) for s in sccs} == {frozenset(ids)}


class TestValidation:
    def test_zero_distance_cycle_rejected(self):
        g = DependenceGraph()
        a = g.add_operation("iadd")
        b = g.add_operation("iadd")
        g.add_dependence(a, b)
        g.add_dependence(b, a)  # distance 0 both ways
        with pytest.raises(GraphError, match="zero-distance cycle"):
            g.validate()

    def test_carried_cycle_accepted(self):
        g, ids = chain(3)
        g.add_dependence(ids[2], ids[0], distance=1)
        g.validate()  # no exception

    def test_underestimated_flow_latency_rejected(self):
        g = DependenceGraph()
        a = g.add_operation("fmul")  # latency 4
        b = g.add_operation("fadd")
        g.add_dependence(a, b, latency=1)
        with pytest.raises(GraphError, match="below producer latency"):
            g.validate()


class TestCopyAndMerge:
    def test_copy_is_independent(self):
        g, ids = chain(3)
        g2 = g.copy()
        g2.add_operation("fadd")
        assert len(g2) == 4
        assert len(g) == 3

    def test_copy_preserves_edges(self):
        g, ids = chain(3)
        g.add_dependence(ids[2], ids[0], distance=2)
        g2 = g.copy()
        assert len(g2.edges) == len(g.edges)
        carried = [d for d in g2.edges if d.distance == 2]
        assert len(carried) == 1

    def test_merge_offsets_node_ids(self):
        g1, _ = chain(2)
        g2, _ = chain(3)
        merged = merge_graphs("m", [g1, g2])
        assert len(merged) == 5
        assert len(merged.edges) == 1 + 2
        # Second graph's first edge must reference offset ids.
        assert any(d.src == 2 and d.dst == 3 for d in merged.edges)

    def test_merge_empty_list_rejected(self):
        with pytest.raises(GraphError):
            merge_graphs("m", [])


class TestExports:
    def test_to_networkx_roundtrip_counts(self):
        g, ids = chain(4)
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 4
        assert nxg.number_of_edges() == 3

    def test_to_dot_contains_nodes_and_style(self):
        g, ids = chain(2)
        g.add_dependence(ids[1], ids[0], distance=1)
        dot = g.to_dot()
        assert "digraph" in dot
        assert "dashed" in dot  # carried edge
        assert "solid" in dot

    def test_describe_mentions_all_ops(self):
        g, _ = chain(3)
        text = g.describe()
        assert "3 ops" in text
