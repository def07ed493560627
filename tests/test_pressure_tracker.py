"""Unit tests for the incremental MaxLive tracker (repro.core.pressure).

The end-to-end equivalence with ``cluster_pressures`` after every commit,
and of every fit decision with the from-scratch one, is property-tested
in test_property_schedulers.py; these tests cover the pieces engines do
not exercise: attaching to a non-empty schedule, negative-cycle
intervals, delta non-mutation, the bound giving way to the exact
histogram, stale placements, and how often entries are derived.
"""

from contextlib import ExitStack
from unittest import mock

import pytest
from oracles import overlay_pressures, pressure_comms

from repro.arch.cluster import MachineConfig
from repro.arch.configs import two_cluster_config
from repro.arch.resources import BusSpec, FuSet
from repro.core.bsa import BsaScheduler
from repro.core.comm import AddReader, CommPlan, NewTransfer, empty_plan
from repro.core.engine import Placement, PlacementEngine
from repro.core.lifetimes import cluster_pressures
from repro.core.pressure import PressureTracker
from repro.core.schedule import Communication, ModuloSchedule, ScheduledOp
from repro.errors import SchedulingError
from repro.ir.ddg import DependenceGraph
from repro.workloads import resolve_workload


def chain_graph(n=3, op="fadd"):
    g = DependenceGraph("chain")
    ids = [g.add_operation(op) for _ in range(n)]
    for a, b in zip(ids, ids[1:]):
        g.add_dependence(a, b)
    return g, ids


def scratch_pressures(s, node, cluster, cycle, plan):
    """``cluster_pressures`` of a scratch copy with the placement overlaid."""
    placed = ScheduledOp(node, cycle, cluster, -1)
    return overlay_pressures(s, pressure_comms(plan), [placed])


class TestRebuild:
    def test_attaches_to_populated_schedule(self):
        g, (a, b, c) = chain_graph()
        s = ModuloSchedule(g, two_cluster_config(1, 2), ii=6)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 4, 0, 0))
        s.place(ScheduledOp(c, 11, 1, 0))
        s.add_comm(Communication(b, 0, 0, start_cycle=8, readers=frozenset({1})))
        tracker = PressureTracker(s)  # __init__ rebuilds from the state
        assert tracker.pressures() == cluster_pressures(s)

    def test_rebuild_with_negative_cycles(self):
        g, (a, b, c) = chain_graph()
        s = ModuloSchedule(g, two_cluster_config(1, 2), ii=5)
        s.place(ScheduledOp(a, -11, 0, 0))
        s.place(ScheduledOp(b, -7, 0, 0))
        s.place(ScheduledOp(c, -1, 1, 0))
        s.add_comm(Communication(b, 0, 0, start_cycle=-4, readers=frozenset({1})))
        tracker = PressureTracker(s)
        assert tracker.pressures() == cluster_pressures(s)


class TestDelta:
    def setup_schedule(self):
        g, (a, b, c) = chain_graph()
        s = ModuloSchedule(g, two_cluster_config(1, 2), ii=6)
        s.place(ScheduledOp(a, 0, 0, 0))
        s.place(ScheduledOp(b, 4, 0, 0))
        return g, s, (a, b, c)

    def test_delta_equals_scratch_overlay(self):
        g, s, (a, b, c) = self.setup_schedule()
        tracker = PressureTracker(s)
        plan = CommPlan(
            new_transfers=[
                NewTransfer(producer=b, src_cluster=0, bus=0, start_cycle=8, reader=1)
            ],
            added_readers=[],
        )
        delta = tracker.delta(c, 1, 12, plan)
        scratch = scratch_pressures(s, c, 1, 12, plan)
        for cluster, pressure in scratch.items():
            assert tracker.pressure_after(delta, cluster) == pressure

    def test_delta_does_not_mutate(self):
        g, s, (a, b, c) = self.setup_schedule()
        tracker = PressureTracker(s)
        before = dict(tracker.pressures())
        delta = tracker.delta(c, 0, 12, empty_plan())
        tracker.fits(delta)
        tracker.pressure_after(delta, 0)
        assert c not in s.ops
        assert tracker.pressures() == before
        assert tracker.pressures() == cluster_pressures(s)

    def test_added_reader_delta(self):
        g, s, (a, b, c) = self.setup_schedule()
        comm = Communication(b, 0, 0, start_cycle=8, readers=frozenset())
        s.add_comm(comm)
        tracker = PressureTracker(s)
        plan = CommPlan(
            new_transfers=[], added_readers=[AddReader(existing=comm, reader=1)]
        )
        delta = tracker.delta(c, 1, 12, plan)
        scratch = scratch_pressures(s, c, 1, 12, plan)
        for cluster, pressure in scratch.items():
            assert tracker.pressure_after(delta, cluster) == pressure

    def test_commit_folds_the_delta(self):
        g, s, (a, b, c) = self.setup_schedule()
        tracker = PressureTracker(s)
        plan = CommPlan(
            new_transfers=[
                NewTransfer(producer=b, src_cluster=0, bus=0, start_cycle=8, reader=1)
            ],
            added_readers=[],
        )
        delta = tracker.delta(c, 1, 12, plan)
        tracker.commit(delta)
        s.place(ScheduledOp(c, 12, 1, 0))
        s.add_comm(plan.new_transfers[0].as_communication())
        assert tracker.pressures() == cluster_pressures(s)
        assert tracker.pressures() == PressureTracker(s).pressures()

    def test_reader_of_two_consumers_is_one_copy(self):
        """p feeds c1 on cluster 1 and c2, c3 on cluster 0 through one new
        transfer: cluster 0 stores the value once, so the overlay, the
        delta and the committed schedule agree on 2 registers there."""
        g = DependenceGraph("fanout")
        p = g.add_operation("fadd")
        consumers = [g.add_operation("fadd") for _ in range(3)]
        for c in consumers:
            g.add_dependence(p, c)
        cfg = MachineConfig("fanout", 4, FuSet(1, 1, 1), 2, BusSpec(1, 2))
        eng = PlacementEngine(g, cfg, ii=4, mii=1)
        for c, cluster in zip(consumers, (1, 0, 0)):
            eng.commit(eng.find_placement(c, cluster))
        placement = eng.find_placement(p, 2)
        assert isinstance(placement, Placement)
        scratch = scratch_pressures(
            eng.schedule, p, 2, placement.cycle, placement.comm_plan
        )
        tracker = eng._pressure
        assert scratch[0] == 2
        for cluster, pressure in scratch.items():
            assert tracker.pressure_after(placement.delta, cluster) == pressure
        eng.commit(placement)
        assert cluster_pressures(eng.schedule) == scratch


class TestBound:
    def tiny_file(self):
        """a -> b in cluster 0 at II 6: rows 1..4 each hold one value."""
        g = DependenceGraph("tiny")
        a, b, c = (g.add_operation("iadd") for _ in range(3))
        g.add_dependence(a, b)
        cfg = MachineConfig("tiny", 2, FuSet(1, 1, 1), 1, BusSpec(1, 1))
        s = ModuloSchedule(g, cfg, ii=6)
        s.place(ScheduledOp(a, 0, 0, 0))  # a's value: cycles 1..3
        s.place(ScheduledOp(b, 3, 0, 0))  # b's value: cycle 4
        return s, c

    def test_bound_over_the_limit_exact_under_it_fits(self):
        s, c = self.tiny_file()
        tracker = PressureTracker(s)
        assert tracker.pressures() == {0: 1, 1: 0}
        # c's one-cycle value lands on the free row 5: the bound reads
        # 1 + ceil(1/6) = 2 > 1 register, the exact histogram reads 1.
        delta = tracker.delta(c, 0, 4, empty_plan())
        assert tracker.cluster_max(0) + 1 > s.config.regs_per_cluster
        with mock.patch.object(
            PressureTracker,
            "pressure_after",
            autospec=True,
            side_effect=PressureTracker.pressure_after,
        ) as exact:
            assert tracker.fits(delta)
        assert exact.call_count == 1  # the bound gave way to the histogram
        assert tracker.pressure_after(delta, 0) == 1
        assert scratch_pressures(s, c, 0, 4, empty_plan())[0] == 1

    def test_overflow_does_not_fit(self):
        s, c = self.tiny_file()
        tracker = PressureTracker(s)
        delta = tracker.delta(c, 0, 1, empty_plan())  # value on row 2, beside a's
        assert not tracker.fits(delta)
        assert tracker.pressure_after(delta, 0) == 2

    def test_bound_within_the_limit_builds_no_histogram(self):
        s, c = self.tiny_file()
        tracker = PressureTracker(s)
        delta = tracker.delta(c, 1, 0, empty_plan())  # the empty cluster
        with mock.patch.object(PressureTracker, "pressure_after") as exact:
            assert tracker.fits(delta)
        exact.assert_not_called()


class TestStalePlacement:
    def test_committing_a_stale_placement_raises(self):
        g = DependenceGraph("pair")
        a = g.add_operation("fadd")
        b = g.add_operation("fadd")
        eng = PlacementEngine(g, two_cluster_config(), ii=2, mii=1)
        pa = eng.find_placement(a, 0)
        pb = eng.find_placement(b, 0)
        assert isinstance(pa, Placement) and isinstance(pb, Placement)
        eng.commit(pa)
        with pytest.raises(SchedulingError, match="stale placement"):
            eng.commit(pb)
        # Nothing of the stale placement was claimed.
        assert b not in eng.schedule.ops
        assert eng._pressure.pressures() == cluster_pressures(eng.schedule)
        fresh = eng.find_placement(b, 0)
        assert isinstance(fresh, Placement)
        eng.commit(fresh)
        assert eng._pressure.pressures() == cluster_pressures(eng.schedule)

    def test_committing_twice_raises(self):
        g = DependenceGraph("one")
        a = g.add_operation("fadd")
        eng = PlacementEngine(g, two_cluster_config(), ii=1, mii=1)
        pa = eng.find_placement(a, 0)
        eng.commit(pa)
        with pytest.raises(SchedulingError, match="stale placement"):
            eng.commit(pa)


class TestDerivationCount:
    def test_one_enumeration_per_fit_check_none_per_commit(self):
        """The fit check derives the placement's entries once; commits and
        step 9 of BSA reuse that delta."""
        names = ("delta", "fits", "_producer_interval", "_incoming_interval")
        original_commit = PressureTracker.commit
        commits = []

        def commit(self, d):
            before = [spy[n].call_count for n in names]
            original_commit(self, d)
            commits.append(before == [spy[n].call_count for n in names])

        with ExitStack() as stack:
            spy = {
                name: stack.enter_context(
                    mock.patch.object(
                        PressureTracker,
                        name,
                        autospec=True,
                        side_effect=getattr(PressureTracker, name),
                    )
                )
                for name in names
            }
            stack.enter_context(mock.patch.object(PressureTracker, "commit", commit))
            g = resolve_workload("tridiag")[1]()
            BsaScheduler(two_cluster_config(1, 4)).schedule(g)
        assert spy["fits"].call_count > 0
        assert spy["delta"].call_count == spy["fits"].call_count
        # One walk of the node's own value per delta; every other entry a
        # placement touches is extended or comes from its plan.
        assert spy["_producer_interval"].call_count == spy["delta"].call_count
        assert commits and all(commits)  # no commit derived an entry
