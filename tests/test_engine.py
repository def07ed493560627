"""Unit tests for the placement engine (windows, comm planning, commit)."""

import pytest
from oracles import bus_free

from repro.arch.configs import four_cluster_config, two_cluster_config, unified_config
from repro.core.engine import FailReason, Placement, PlacementEngine
from repro.core.schedule import ScheduledOp
from repro.ir.ddg import DependenceGraph


def engine_for(graph, config, ii):
    return PlacementEngine(graph, config, ii, mii=ii)


def chain_graph():
    g = DependenceGraph("chain")
    a = g.add_operation("load")  # lat 2
    b = g.add_operation("fmul")  # lat 4
    c = g.add_operation("fadd")  # lat 3
    g.add_dependence(a, b)
    g.add_dependence(b, c)
    return g, (a, b, c)


class TestWindows:
    def test_no_neighbors_unbounded(self):
        g, (a, b, c) = chain_graph()
        eng = engine_for(g, unified_config(), ii=4)
        assert eng.window(a, 0) == (None, None)

    def test_pred_bound(self):
        g, (a, b, c) = chain_graph()
        eng = engine_for(g, unified_config(), ii=4)
        eng.commit(eng.find_placement(a, 0))
        sa = eng.schedule.cycle_of(a)
        early, late = eng.window(b, 0)
        assert early == sa + 2
        assert late is None

    def test_succ_bound(self):
        g, (a, b, c) = chain_graph()
        eng = engine_for(g, unified_config(), ii=4)
        eng.commit(eng.find_placement(b, 0))
        sb = eng.schedule.cycle_of(b)
        early, late = eng.window(a, 0)
        assert early is None
        assert late == sb - 2  # load latency

    def test_carried_pred_shifts_by_ii(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        b = g.add_operation("fadd")
        g.add_dependence(a, b, distance=2)
        eng = engine_for(g, unified_config(), ii=5)
        eng.commit(eng.find_placement(a, 0))
        sa = eng.schedule.cycle_of(a)
        early, _ = eng.window(b, 0)
        assert early == sa + 3 - 2 * 5

    def test_cross_cluster_window_adds_bus_latency(self):
        g, (a, b, c) = chain_graph()
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        eng = engine_for(g, cfg, ii=6)
        eng.commit(eng.find_placement(a, 0))
        sa = eng.schedule.cycle_of(a)
        early_same, _ = eng.window(b, 0)
        early_cross, _ = eng.window(b, 1)
        assert early_same == sa + 2
        assert early_cross == sa + 2 + 2  # plus bus latency


class TestPlacementSearch:
    def test_places_at_earliest_after_pred(self):
        g, (a, b, c) = chain_graph()
        eng = engine_for(g, unified_config(), ii=8)
        eng.commit(eng.find_placement(a, 0))
        pb = eng.find_placement(b, 0)
        assert isinstance(pb, Placement)
        assert pb.cycle == eng.schedule.cycle_of(a) + 2

    def test_no_fu_reported(self):
        g = DependenceGraph()
        ids = [g.add_operation("fadd") for _ in range(5)]
        eng = engine_for(g, two_cluster_config(), ii=1)
        # one cluster has 2 fp units at II=1: two placements fit
        assert isinstance(eng.find_placement(ids[0], 0), Placement)
        eng.commit(eng.find_placement(ids[0], 0))
        eng.commit(eng.find_placement(ids[1], 0))
        result = eng.find_placement(ids[2], 0)
        assert result is FailReason.NO_FU
        assert eng.fail.no_fu > 0

    def test_empty_window_reported(self):
        """A node squeezed between a pred and a succ placed too close."""
        g = DependenceGraph()
        a = g.add_operation("fmul")  # lat 4
        mid = g.add_operation("fadd")  # lat 3
        z = g.add_operation("store")
        g.add_dependence(a, mid)
        g.add_dependence(mid, z)
        eng = engine_for(g, unified_config(), ii=4)
        eng.schedule.place(ScheduledOp(a, 0, 0, 0))
        eng.schedule.place(ScheduledOp(z, 5, 0, 0))
        # mid needs cycle >= 4 (after a) and <= 2 (before z): empty.
        result = eng.find_placement(mid, 0)
        assert result is FailReason.WINDOW
        assert eng.fail.dependence_window > 0

    def test_engine_rejects_ii_below_rec_mii(self):
        """Engine construction requires a feasible II (timings diverge
        otherwise) — the scheduler driver never goes below MII."""
        from repro.errors import GraphError

        g = DependenceGraph()
        a = g.add_operation("fadd")  # lat 3
        g.add_dependence(a, a, distance=1)
        with pytest.raises(GraphError, match="diverged"):
            engine_for(g, unified_config(), ii=2)


class TestCommPlanning:
    def cfg(self, buses=1, lat=1):
        return two_cluster_config(n_buses=buses, bus_latency=lat)

    def test_cross_cluster_creates_transfer(self):
        g, (a, b, c) = chain_graph()
        eng = engine_for(g, self.cfg(), ii=6)
        eng.commit(eng.find_placement(a, 0))
        pb = eng.find_placement(b, 1)
        assert isinstance(pb, Placement)
        assert len(pb.comm_plan.new_transfers) == 1
        t = pb.comm_plan.new_transfers[0]
        assert t.producer == a
        assert t.reader == 1
        assert t.start_cycle >= eng.schedule.cycle_of(a) + 2

    def test_commit_occupies_bus(self):
        g, (a, b, c) = chain_graph()
        eng = engine_for(g, self.cfg(), ii=1)
        eng.commit(eng.find_placement(a, 0))
        pb = eng.find_placement(b, 1)
        assert isinstance(pb, Placement)
        eng.commit(pb)
        # II=1, 1 bus, 1-cycle transfers: the single bus row is now full.
        assert bus_free(eng.mrt, 0) is None

    def test_transfer_reuse_by_second_consumer(self):
        g = DependenceGraph()
        a = g.add_operation("fadd", "src")
        b = g.add_operation("fadd", "c1")
        c = g.add_operation("fadd", "c2")
        g.add_dependence(a, b)
        g.add_dependence(a, c)
        eng = engine_for(g, self.cfg(), ii=4)
        eng.commit(eng.find_placement(a, 0))
        eng.commit(eng.find_placement(b, 1))
        assert len(eng.schedule.comms) == 1
        pc = eng.find_placement(c, 1)
        assert isinstance(pc, Placement)
        # second consumer in the same cluster reuses the transfer
        assert not pc.comm_plan.new_transfers
        eng.commit(pc)
        assert len(eng.schedule.comms) == 1

    def test_planned_transfer_lists_a_cluster_once(self):
        """Two consumers in one remote cluster read the transfer planned
        for a third in the same placement: one added reader, not two."""
        g = DependenceGraph()
        p = g.add_operation("iadd", "p")
        c1, c2, c3 = (g.add_operation("iadd", f"c{i}") for i in (1, 2, 3))
        for c in (c1, c2, c3):
            g.add_dependence(p, c)
        eng = engine_for(g, four_cluster_config(), ii=4)
        for node, cluster in ((c1, 1), (c2, 0), (c3, 0)):
            eng.commit(eng.find_placement(node, cluster))
        placed = eng.find_placement(p, 2)
        assert isinstance(placed, Placement)
        assert [t.reader for t in placed.comm_plan.new_transfers] == [1]
        assert [a.reader for a in placed.comm_plan.added_readers] == [0]

    def test_bus_exhaustion_fails(self):
        # Two producers on cluster 0, two consumers on cluster 1, II=1,
        # one 1-cycle bus: only one transfer per iteration fits.
        g = DependenceGraph()
        p1 = g.add_operation("iadd")
        p2 = g.add_operation("iadd")
        c1 = g.add_operation("iadd")
        c2 = g.add_operation("iadd")
        g.add_dependence(p1, c1)
        g.add_dependence(p2, c2)
        eng = engine_for(g, self.cfg(), ii=1)
        eng.commit(eng.find_placement(p1, 0))
        eng.commit(eng.find_placement(p2, 0))
        pc1 = eng.find_placement(c1, 1)
        assert isinstance(pc1, Placement)
        eng.commit(pc1)
        result = eng.find_placement(c2, 1)
        assert result is FailReason.NO_BUS

    def test_bottom_up_comm_for_scheduled_successor(self):
        g, (a, b, c) = chain_graph()
        eng = engine_for(g, self.cfg(), ii=6)
        eng.commit(eng.find_placement(c, 1))  # consumer first
        eng.commit(eng.find_placement(b, 1))
        pa = eng.find_placement(a, 0)  # producer on the other cluster
        assert isinstance(pa, Placement)
        assert len(pa.comm_plan.new_transfers) == 1
        assert pa.comm_plan.new_transfers[0].producer == a


class TestFinalize:
    def test_negative_cycles_normalised_by_ii_multiple(self):
        g, (a, b, c) = chain_graph()
        eng = engine_for(g, unified_config(), ii=4)
        eng.commit(eng.find_placement(c, 0))  # lands at its ALAP-ish slot
        eng.commit(eng.find_placement(b, 0))
        eng.commit(eng.find_placement(a, 0))
        rows_before = {n: op.cycle % 4 for n, op in eng.schedule.ops.items()}
        sched = eng.finalize()
        assert all(op.cycle >= 0 for op in sched.ops.values())
        rows_after = {n: op.cycle % 4 for n, op in sched.ops.items()}
        assert rows_before == rows_after  # shift was a multiple of II

    def test_finalize_incomplete_rejected(self):
        from repro.errors import SchedulingError

        g, _ = chain_graph()
        eng = engine_for(g, unified_config(), ii=4)
        with pytest.raises(SchedulingError):
            eng.finalize()
