"""Unit tests for the LoopBuilder DSL."""

import pytest

from repro.errors import GraphError
from repro.ir.builder import LoopBuilder
from repro.ir.ddg import DepKind
from repro.ir.operation import FuClass


class TestBuilderBasics:
    def test_daxpy_structure(self):
        b = LoopBuilder("daxpy")
        x = b.load("x")
        y = b.load("y")
        ax = b.fmul(x, b.live_in("a"))
        s = b.fadd(ax, y)
        b.store(s)
        g = b.build()
        assert len(g) == 5
        # live-in produces no node and no edge
        assert len(g.edges) == 4

    def test_live_in_is_not_a_node(self):
        b = LoopBuilder()
        a = b.live_in("a")
        assert a.is_live_in
        v = b.fadd(a, a)
        g = b.build()
        assert len(g) == 1
        assert g.predecessors(v.node_id) == []

    def test_carried_operand_via_dict(self):
        b = LoopBuilder()
        x = b.load("x")
        y = b.fadd(x, b.live_in("c"), tag="y")
        b.op("fmul", y, x, carried={y: 1})
        g = b.build()
        carried = [d for d in g.edges if d.distance == 1]
        assert len(carried) == 1
        assert carried[0].src == y.node_id

    def test_carried_use_backward(self):
        b = LoopBuilder()
        consumer = b.fadd(b.live_in("p"), b.live_in("q"))
        producer = b.fmul(consumer, b.live_in("r"))
        b.carried_use(producer, consumer, distance=1)
        g = b.build()
        back = [d for d in g.edges if d.src == producer.node_id]
        assert back and back[0].distance == 1

    def test_mem_order_edge(self):
        b = LoopBuilder()
        s = b.store(b.fadd(b.live_in("a"), b.live_in("b")))
        ld = b.load("x")
        b.mem_order(s, ld)
        g = b.build()
        mem_edges = [d for d in g.edges if d.kind is DepKind.MEM]
        assert len(mem_edges) == 1

    def test_load_with_address(self):
        b = LoopBuilder()
        addr = b.iaddr(b.live_in("i"))
        ld = b.load("a[i]", addr=addr)
        g = b.build()
        assert any(
            d.src == addr.node_id and d.dst == ld.node_id for d in g.edges
        )
        assert g.operation(addr.node_id).fu_class is FuClass.INT


class TestBuilderErrors:
    def test_build_twice_rejected(self):
        b = LoopBuilder()
        b.fadd(b.live_in("a"), b.live_in("b"))
        b.build()
        with pytest.raises(GraphError, match="already built"):
            b.build()

    def test_op_after_build_rejected(self):
        b = LoopBuilder()
        b.fadd(b.live_in("a"), b.live_in("b"))
        b.build()
        with pytest.raises(GraphError):
            b.load("x")

    def test_carried_use_with_live_in_rejected(self):
        b = LoopBuilder()
        v = b.fadd(b.live_in("a"), b.live_in("b"))
        with pytest.raises(GraphError):
            b.carried_use(b.live_in("x"), v, distance=1)

    def test_zero_distance_cycle_caught_at_build(self):
        b = LoopBuilder()
        u = b.fadd(b.live_in("a"), b.live_in("b"))
        v = b.fmul(u, b.live_in("c"))
        b.carried_use(v, u, distance=0)
        with pytest.raises(GraphError):
            b.build()

    def test_build_without_validate_skips_check(self):
        b = LoopBuilder()
        u = b.fadd(b.live_in("a"), b.live_in("b"))
        v = b.fmul(u, b.live_in("c"))
        b.carried_use(v, u, distance=0)
        g = b.build(validate=False)  # caller's own risk
        assert len(g) == 2
