"""Unit and property tests for graph unrolling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.ir.ddg import DependenceGraph
from repro.ir.serialize import graph_to_dict
from repro.ir.unroll import (
    copy_of,
    count_cross_copy_deps,
    original_node,
    unroll_graph,
    unrolled,
)
from repro.workloads.kernels import daxpy, dot_product, figure7_graph


class TestUnrollBasics:
    def test_factor_one_is_copy(self):
        g = daxpy()
        u = unroll_graph(g, 1)
        assert len(u) == len(g)
        assert len(u.edges) == len(g.edges)
        assert u is not g

    def test_node_count_scales(self):
        g = daxpy()
        u = unroll_graph(g, 3)
        assert len(u) == 3 * len(g)

    def test_edge_count_scales(self):
        g = figure7_graph()
        u = unroll_graph(g, 2)
        assert len(u.edges) == 2 * len(g.edges)

    def test_invalid_factor(self):
        with pytest.raises(GraphError):
            unroll_graph(daxpy(), 0)

    def test_id_mapping_helpers(self):
        g = daxpy()
        n = len(g)
        u = unroll_graph(g, 4)
        for node in u.node_ids:
            assert 0 <= copy_of(node, n) < 4
            assert original_node(node, n) in g.node_ids

    def test_opcode_preserved_per_copy(self):
        g = daxpy()
        n = len(g)
        u = unroll_graph(g, 2)
        for node in u.node_ids:
            orig = g.operation(original_node(node, n))
            assert u.operation(node).opcode == orig.opcode


class TestUnrolledMemo:
    def test_factor_one_is_the_graph_itself(self):
        g = daxpy()
        assert unrolled(g, 1) is g

    def test_built_once_per_graph_state(self):
        g = daxpy()
        u = unrolled(g, 2)
        assert unrolled(g, 2) is u
        assert graph_to_dict(u) == graph_to_dict(unroll_graph(g, 2))
        assert len(unrolled(g, 4)) == 4 * len(g)
        g.add_operation("fadd")
        assert unrolled(g, 2) is not u
        assert len(unrolled(g, 2)) == 2 * len(g)

    def test_renamed_graph_unrolls_under_its_new_name(self):
        g = daxpy()
        before = unrolled(g, 2)
        assert before.name == f"{g.name}@x2"
        g.name = "renamed"
        assert unrolled(g, 2).name == "renamed@x2"


class TestEdgeMapping:
    def test_intra_iteration_edges_stay_in_copy(self):
        g = daxpy()  # all distance-0 edges
        n = len(g)
        u = unroll_graph(g, 4)
        for dep in u.edges:
            assert copy_of(dep.src, n) == copy_of(dep.dst, n)
            assert dep.distance == 0

    def test_distance_one_edge_crosses_copies(self):
        g = dot_product()  # self-edge distance 1 on the accumulator
        n = len(g)
        u = unroll_graph(g, 2)
        carried = [d for d in u.edges if original_node(d.src, n) == original_node(d.dst, n)]
        # acc#0 -> acc#1 at distance 0, acc#1 -> acc#0 at distance 1
        dists = sorted((copy_of(d.src, n), copy_of(d.dst, n), d.distance) for d in carried)
        assert dists == [(0, 1, 0), (1, 0, 1)]

    def test_distance_equal_factor_stays_in_copy(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        b = g.add_operation("fadd")
        g.add_dependence(a, b, distance=2)
        u = unroll_graph(g, 2)
        for dep in u.edges:
            assert copy_of(dep.src, 2) == copy_of(dep.dst, 2)
            assert dep.distance == 1

    def test_unrolled_graph_validates(self):
        for build in (daxpy, dot_product, figure7_graph):
            unroll_graph(build(), 4).validate()


class TestCrossCopyCount:
    def test_pure_parallel_loop_has_none(self):
        assert count_cross_copy_deps(daxpy(), 2) == 0

    def test_distance_one_counts(self):
        assert count_cross_copy_deps(dot_product(), 2) == 1

    def test_distance_multiple_of_factor_excluded(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        g.add_dependence(a, a, distance=4)
        assert count_cross_copy_deps(g, 2) == 0
        assert count_cross_copy_deps(g, 4) == 0
        assert count_cross_copy_deps(g, 3) == 1

    def test_non_flow_edges_ignored(self):
        from repro.ir.ddg import DepKind

        g = DependenceGraph()
        a = g.add_operation("store")
        b = g.add_operation("load")
        g.add_dependence(a, b, distance=1, kind=DepKind.MEM)
        assert count_cross_copy_deps(g, 2) == 0

    def test_figure7_count_matches_paper(self):
        # One odd-distance edge (A -> E, d=1) -> one cross-copy dep; the
        # paper's "2 communications" is this dep times the unroll factor.
        assert count_cross_copy_deps(figure7_graph(), 2) == 1


@st.composite
def small_graph(draw):
    """Random small DDG with mixed distances (always schedulable)."""
    n = draw(st.integers(min_value=2, max_value=8))
    g = DependenceGraph("prop")
    ids = [g.add_operation(draw(st.sampled_from(["iadd", "fadd", "fmul", "load"])))
           for _ in range(n)]
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(n_edges):
        src = draw(st.sampled_from(ids))
        dst = draw(st.sampled_from(ids))
        if dst <= src:
            distance = draw(st.integers(min_value=1, max_value=3))
        else:
            distance = draw(st.integers(min_value=0, max_value=3))
        g.add_dependence(src, dst, distance=distance)
    return g


class TestUnrollProperties:
    @given(g=small_graph(), factor=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_counts_scale_exactly(self, g, factor):
        u = unroll_graph(g, factor)
        assert len(u) == factor * len(g)
        assert len(u.edges) == factor * len(g.edges)

    @given(g=small_graph(), factor=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_edge_images_follow_the_mapping(self, g, factor):
        n = len(g)
        u = unroll_graph(g, factor)
        # Re-derive the expected image set from first principles.
        expected = set()
        for dep in g.edges:
            for k in range(factor):
                expected.add(
                    (
                        k * n + dep.src,
                        ((k + dep.distance) % factor) * n + dep.dst,
                        (k + dep.distance) // factor,
                    )
                )
        actual = {(d.src, d.dst, d.distance) for d in u.edges}
        assert actual == expected

    @given(g=small_graph(), factor=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_unrolled_validates(self, g, factor):
        g.validate()
        unroll_graph(g, factor).validate()

    @given(g=small_graph(), factor=st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_total_carried_distance_preserved(self, g, factor):
        """sum_k floor((k+d)/f) == d: per original edge, the image
        distances total exactly the original distance, so carried work per
        source iteration is invariant under unrolling."""
        n = len(g)
        u = unroll_graph(g, factor)
        per_pair_orig: dict = {}
        for dep in g.edges:
            key = (dep.src, dep.dst)
            per_pair_orig[key] = per_pair_orig.get(key, 0) + dep.distance
        per_pair_unrolled: dict = {}
        for dep in u.edges:
            key = (original_node(dep.src, n), original_node(dep.dst, n))
            per_pair_unrolled[key] = per_pair_unrolled.get(key, 0) + dep.distance
        assert per_pair_unrolled == per_pair_orig
