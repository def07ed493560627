"""Unit tests for SMS timings, ordering sets and the node ordering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mii import rec_mii
from repro.core.sms import (
    compute_timings,
    ordering_sets,
    recurrence_sets,
    sms_order,
    topological_order,
)
from repro.ir.ddg import DependenceGraph
from repro.workloads.kernels import (
    daxpy,
    dot_product,
    figure7_graph,
    ladder_graph,
)
from repro.workloads.registry import workloads


class TestTimings:
    def test_chain_asap(self):
        g = DependenceGraph()
        a = g.add_operation("load")  # latency 2
        b = g.add_operation("fmul")  # latency 4
        c = g.add_operation("fadd")
        g.add_dependence(a, b)
        g.add_dependence(b, c)
        t = compute_timings(g, ii=1)
        assert t[a].asap == 0
        assert t[b].asap == 2
        assert t[c].asap == 6

    def test_alap_of_critical_path_equals_asap(self):
        g = DependenceGraph()
        a = g.add_operation("load")
        b = g.add_operation("fmul")
        g.add_dependence(a, b)
        t = compute_timings(g, ii=1)
        assert t[a].mobility == 0
        assert t[b].mobility == 0

    def test_off_critical_node_has_mobility(self):
        g = DependenceGraph()
        a = g.add_operation("load")  # critical: 2 + 4
        b = g.add_operation("fmul")
        c = g.add_operation("iadd")  # side node joining at the end
        d = g.add_operation("fadd")
        g.add_dependence(a, b)
        g.add_dependence(b, d)
        g.add_dependence(c, d)
        t = compute_timings(g, ii=1)
        assert t[c].mobility > 0

    def test_mobility_never_negative(self):
        for spec in workloads(tag="kernel"):
            g = spec.factory()
            ii = rec_mii(g)
            for node, t in compute_timings(g, ii).items():
                assert t.mobility >= 0, f"{g.name} node {node}"

    def test_carried_edge_relaxes_at_high_ii(self):
        g = dot_product()
        t_low = compute_timings(g, ii=3)
        t_high = compute_timings(g, ii=10)
        for node in g.node_ids:
            assert t_high[node].asap <= t_low[node].asap

    def test_below_rec_mii_raises(self):
        from repro.errors import GraphError

        g = dot_product()  # RecMII = 3
        with pytest.raises(GraphError, match="diverged"):
            compute_timings(g, ii=2)


class TestRecurrenceSets:
    def test_acyclic_has_none(self):
        assert recurrence_sets(daxpy()) == []

    def test_self_loop_detected(self):
        sets = recurrence_sets(dot_product())
        assert len(sets) == 1
        assert len(sets[0]) == 1

    def test_figure7_recurrence(self):
        sets = recurrence_sets(figure7_graph())
        assert len(sets) == 1
        assert len(sets[0]) == 3  # A, B, D

    def test_sorted_by_rec_mii(self):
        g = DependenceGraph()
        # weak recurrence: iadd self-loop distance 2 -> ceil(1/2) = 1
        weak = g.add_operation("iadd")
        g.add_dependence(weak, weak, distance=2)
        # strong recurrence: fmul+fadd cycle distance 1 -> 7
        a = g.add_operation("fmul")
        b = g.add_operation("fadd")
        g.add_dependence(a, b)
        g.add_dependence(b, a, distance=1)
        sets = recurrence_sets(g)
        assert sets[0] == {a, b}
        assert sets[1] == {weak}

    def test_ladder_has_two_recurrences(self):
        assert len(recurrence_sets(ladder_graph())) == 2


class TestOrderingSets:
    def test_cover_all_nodes_exactly_once(self):
        for spec in workloads(tag="kernel"):
            g = spec.factory()
            sets = ordering_sets(g)
            seen = set()
            for s in sets:
                assert not (s & seen), f"{g.name}: node in two sets"
                seen |= s
            assert seen == set(g.node_ids), g.name

    def test_recurrence_first(self):
        g = figure7_graph()
        sets = ordering_sets(g)
        assert {0, 1, 3} <= sets[0]  # A, B, D

    def test_connector_nodes_join_second_set(self):
        """Nodes on paths between two recurrences belong to the later set."""
        g = DependenceGraph()
        a = g.add_operation("fmul")  # strong recurrence
        g.add_dependence(a, a, distance=1)
        mid = g.add_operation("iadd")  # connector
        b = g.add_operation("iadd")  # weak recurrence
        g.add_dependence(b, b, distance=2)
        g.add_dependence(a, mid)
        g.add_dependence(mid, b)
        sets = ordering_sets(g)
        assert sets[0] == {a}
        assert mid in sets[1]


class TestSmsOrder:
    def test_is_permutation(self, kernel_graph):
        order = sms_order(kernel_graph)
        assert sorted(order) == kernel_graph.node_ids

    def test_recurrence_nodes_lead(self):
        g = dot_product()
        order = sms_order(g)
        assert order[0] == 3  # the accumulator's self-recurrence

    def test_figure7_starts_with_recurrence(self):
        order = sms_order(figure7_graph())
        assert set(order[:3]) == {0, 1, 3}  # A, B, D in some order

    def test_deterministic(self, kernel_graph):
        assert sms_order(kernel_graph) == sms_order(kernel_graph)

    def test_empty_graph(self):
        assert sms_order(DependenceGraph()) == []

    def test_single_node(self):
        g = DependenceGraph()
        g.add_operation("fadd")
        assert sms_order(g) == [0]

    def test_never_both_preds_and_succs_before_on_dags(self):
        """The paper's property: a position has only predecessors or only
        successors before it.  Holds unconditionally on acyclic kernels
        (recurrences necessarily break it at the cycle-closing node)."""
        for spec in workloads(tag="kernel"):
            g = spec.factory()
            if recurrence_sets(g):
                continue
            _assert_one_sided(g, sms_order(g), spec.name)


def _assert_one_sided(g, order, label):
    placed = set()
    for node in order:
        preds_before = {d.src for d in g.predecessors(node)} & placed
        succs_before = {d.dst for d in g.successors(node)} & placed
        assert not (preds_before and succs_before), (
            f"{label}: node {node} has both preds {preds_before} and "
            f"succs {succs_before} before it"
        )
        placed.add(node)


class TestTopologicalOrder:
    def test_respects_zero_distance_edges(self, kernel_graph):
        order = topological_order(kernel_graph)
        pos = {n: i for i, n in enumerate(order)}
        for dep in kernel_graph.edges:
            if dep.distance == 0:
                assert pos[dep.src] < pos[dep.dst]

    def test_is_permutation(self, kernel_graph):
        assert sorted(topological_order(kernel_graph)) == kernel_graph.node_ids


@st.composite
def random_dag(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    g = DependenceGraph("dag")
    ids = [g.add_operation(draw(st.sampled_from(["iadd", "fadd", "load"])))
           for _ in range(n)]
    for dst in ids:
        for src in ids:
            if src < dst and draw(st.booleans()):
                g.add_dependence(src, dst)
    return g


class TestSmsOrderProperties:
    @given(g=random_dag())
    @settings(max_examples=80, deadline=None)
    def test_permutation_property(self, g):
        assert sorted(sms_order(g)) == g.node_ids

    @given(g=random_dag())
    @settings(max_examples=80, deadline=None)
    def test_one_sided_property_on_random_dags(self, g):
        _assert_one_sided(g, sms_order(g), "random dag")
