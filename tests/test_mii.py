"""Unit and property tests for MII computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rec_mii_exact
from repro.arch.configs import four_cluster_config, two_cluster_config, unified_config
from repro.core.mii import (
    mii,
    mii_report,
    rec_mii,
    res_mii,
)
from repro.errors import GraphError
from repro.ir.ddg import DependenceGraph
from repro.workloads.kernels import (
    daxpy,
    dot_product,
    figure7_graph,
    first_order_recurrence,
    ladder_graph,
)


class TestResMii:
    def test_daxpy_on_unified(self):
        # 2 loads + 1 store = 3 mem ops on 4 mem units -> 1; 2 fp on 4 -> 1.
        assert res_mii(daxpy(), unified_config()) == 1

    def test_counts_use_total_machine_resources(self):
        # Same totals on all paper configs -> same ResMII.
        g = daxpy()
        assert (
            res_mii(g, unified_config())
            == res_mii(g, two_cluster_config())
            == res_mii(g, four_cluster_config())
        )

    def test_figure7_matches_paper(self):
        # ceil(6 gen-ops / 4 int units) = 2 on the 2-cluster machine.
        assert res_mii(figure7_graph(), two_cluster_config()) == 2

    def test_ceiling_behaviour(self):
        g = DependenceGraph()
        for _ in range(5):
            g.add_operation("fadd")
        # 5 fp ops on 4 fp units -> ceil(5/4) = 2
        assert res_mii(g, unified_config()) == 2

    def test_missing_unit_class_raises(self):
        from repro.arch.cluster import MachineConfig
        from repro.arch.resources import BusSpec, FuSet

        cfg = MachineConfig("intonly", 1, FuSet(2, 0, 0), 8, BusSpec(0, 1))
        g = DependenceGraph()
        g.add_operation("fadd")
        with pytest.raises(GraphError, match="no"):
            res_mii(g, cfg)

    def test_empty_graph(self):
        assert res_mii(DependenceGraph(), unified_config()) == 1


class TestRecMii:
    def test_acyclic_graph_is_one(self):
        assert rec_mii(daxpy()) == 1

    def test_dot_product_reduction(self):
        # fadd self-loop at distance 1 -> RecMII = fadd latency = 3.
        assert rec_mii(dot_product()) == 3

    def test_first_order_recurrence(self):
        # fmul(4) + fadd(3) cycle at distance 1 -> 7.
        assert rec_mii(first_order_recurrence()) == 7

    def test_figure7_matches_paper(self):
        # 3-op cycle latency 3 at distance 2 -> ceil(3/2) = 2.
        assert rec_mii(figure7_graph()) == 2

    def test_ladder(self):
        # 6-op chain latency 6 at distance 2 -> 3.
        assert rec_mii(ladder_graph()) == 3

    def test_distance_scaling(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")  # latency 3
        b = g.add_operation("fadd")
        g.add_dependence(a, b)
        for distance, expected in ((1, 6), (2, 3), (3, 2), (6, 1)):
            gg = g.copy()
            gg.add_dependence(b, a, distance=distance)
            assert rec_mii(gg) == expected, f"distance {distance}"

    def test_multiple_cycles_take_max(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        b = g.add_operation("fmul")
        g.add_dependence(a, a, distance=3)  # 3/3 -> 1
        g.add_dependence(b, b, distance=1)  # 4/1 -> 4
        assert rec_mii(g) == 4

    def test_matches_exact_enumeration_on_kernels(self):
        for build in (daxpy, dot_product, first_order_recurrence, figure7_graph, ladder_graph):
            g = build()
            assert rec_mii(g) == rec_mii_exact(g), g.name


class TestMiiReport:
    def test_max_of_bounds(self):
        g = dot_product()
        report = mii_report(g, unified_config())
        assert report.mii == max(report.res_mii, report.rec_mii)
        assert report.recurrence_bound  # RecMII 3 > ResMII 1

    def test_mii_function_agrees(self):
        g = figure7_graph()
        cfg = two_cluster_config()
        assert mii(g, cfg) == mii_report(g, cfg).mii


@st.composite
def cyclic_graph(draw):
    """Random graph guaranteed schedulable (carried back edges only)."""
    n = draw(st.integers(min_value=2, max_value=7))
    g = DependenceGraph("prop")
    ops = ["iadd", "fadd", "fmul", "load"]
    ids = [g.add_operation(draw(st.sampled_from(ops))) for _ in range(n)]
    for _ in range(draw(st.integers(min_value=1, max_value=2 * n))):
        src = draw(st.sampled_from(ids))
        dst = draw(st.sampled_from(ids))
        distance = (
            draw(st.integers(min_value=1, max_value=3))
            if dst <= src
            else draw(st.integers(min_value=0, max_value=2))
        )
        g.add_dependence(src, dst, distance=distance)
    return g


class TestRecMiiProperties:
    @given(g=cyclic_graph())
    @settings(max_examples=80, deadline=None)
    def test_binary_search_matches_exact(self, g):
        assert rec_mii(g) == rec_mii_exact(g)

    @given(g=cyclic_graph())
    @settings(max_examples=50, deadline=None)
    def test_rec_mii_at_least_one(self, g):
        assert rec_mii(g) >= 1

    @given(g=cyclic_graph(), factor=st.integers(min_value=2, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_unrolled_rec_mii_bounded_by_factor_times(self, g, factor):
        """RecMII(unroll(G, U)) <= U * RecMII(G): U source iterations per
        unrolled iteration can never need more than U times the II."""
        from repro.ir.unroll import unroll_graph

        assert rec_mii(unroll_graph(g, factor)) <= factor * rec_mii(g)
