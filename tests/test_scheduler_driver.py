"""Tests for the II-search driver (base.SchedulerBase)."""

from unittest import mock

import pytest

from repro.arch.cluster import MachineConfig
from repro.arch.configs import two_cluster_config, unified_config
from repro.arch.resources import BusSpec, FuSet
from repro.core.base import SchedulerBase, default_ii_budget
from repro.core.bsa import BsaScheduler
from repro.core.engine import PlacementEngine
from repro.core.exact import ExactScheduler
from repro.core.mii import mii
from repro.core.twophase import TwoPhaseScheduler
from repro.core.unified import UnifiedScheduler
from repro.errors import SchedulingError
from repro.ir.ddg import DependenceGraph
from repro.workloads.kernels import daxpy, dot_product


class TestIiBudget:
    def test_budget_scales_with_graph(self):
        small = daxpy()
        big = DependenceGraph()
        for _ in range(100):
            big.add_operation("fadd")
        cfg = unified_config()
        assert default_ii_budget(big, cfg) > default_ii_budget(small, cfg)

    def test_budget_includes_comm_slack_on_clustered(self):
        g = daxpy()
        assert default_ii_budget(g, two_cluster_config(1, 4)) > default_ii_budget(
            g, unified_config()
        )


class TestDriverBehaviour:
    def test_starts_at_mii(self):
        sched = UnifiedScheduler(unified_config()).schedule(dot_product())
        assert sched.mii == 3
        assert sched.ii == 3
        assert sched.attempt_failures == []  # first attempt succeeded

    def test_attempt_failures_recorded(self):
        """The figure-7 graph needs II bumps on the clustered machine;
        each failed attempt leaves a FailureLog."""
        from repro.workloads.kernels import figure7_graph

        sched = BsaScheduler(two_cluster_config(1, 1)).schedule(figure7_graph())
        assert sched.ii > sched.mii
        assert len(sched.attempt_failures) == sched.ii - sched.mii
        assert all(log.total > 0 for log in sched.attempt_failures)

    def test_empty_graph_loud(self):
        with pytest.raises(SchedulingError, match="no operations"):
            UnifiedScheduler(unified_config()).schedule(DependenceGraph())

    def test_invalid_graph_rejected_before_scheduling(self):
        g = DependenceGraph()
        a = g.add_operation("fadd")
        b = g.add_operation("fadd")
        g.add_dependence(a, b)
        g.add_dependence(b, a)  # zero-distance cycle
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            UnifiedScheduler(unified_config()).schedule(g)

    def test_early_abort_on_hopeless_pressure(self):
        """Stuck progress + pressure failures aborts well before the
        budget (the error says 'register-pressure bound')."""
        starved = MachineConfig("starved", 1, FuSet(4, 4, 4), 1, BusSpec(0, 1))
        g = DependenceGraph()
        p1 = g.add_operation("fadd")
        p2 = g.add_operation("fadd")
        c = g.add_operation("fadd")
        g.add_dependence(p1, c)
        g.add_dependence(p2, c)
        with pytest.raises(SchedulingError, match="register-pressure bound") as exc:
            BsaScheduler(starved).schedule(g)
        assert exc.value.ii_tried is not None
        assert exc.value.ii_tried < default_ii_budget(g, starved)

    @pytest.mark.parametrize(
        "make",
        [BsaScheduler, TwoPhaseScheduler, ExactScheduler],
        ids=["bsa", "two-phase", "exact"],
    )
    def test_budget_exit(self, make):
        """Every II search gives up above MII + ``default_ii_budget``.

        daxpy first fits at MII + 1 on two clusters joined by one 4-cycle
        bus, so a budget of 0 leaves one failed attempt, at MII, and then
        the error.
        """
        assert_budget_exit(make, two_cluster_config(n_buses=1, bus_latency=4))

    def test_max_ii_override(self):
        """The unified search stops at the same ceiling: patching
        ``default_ii_budget`` to 0 on one cluster with 3 registers (where
        daxpy first fits at MII + 1) makes it fail at MII."""
        assert_budget_exit(UnifiedScheduler, THREE_REGS)


#: One cluster with 3 registers: daxpy first fits there at MII + 1.
THREE_REGS = MachineConfig("3-regs", 1, FuSet(4, 4, 4), 3, BusSpec(0, 1))


def assert_budget_exit(make, config: MachineConfig) -> None:
    """daxpy fits at MII + 1 on *config*, and not within a budget of 0."""
    g = daxpy()
    start = mii(g, config)
    assert make(config).schedule(g).ii == start + 1
    with (
        mock.patch("repro.core.base.default_ii_budget", return_value=0),
        mock.patch("repro.core.exact.default_ii_budget", return_value=0),
        pytest.raises(SchedulingError) as exc,
    ):
        make(config).schedule(g)
    assert str(exc.value).endswith(
        f"no schedule for 'daxpy' on {config.name!r} within II <= {start}"
    )
    assert exc.value.ii_tried == start


class TestSubclassContract:
    def test_place_all_false_means_next_ii(self):
        """A subclass returning False must trigger II increments."""

        attempts = []

        class CountingScheduler(SchedulerBase):
            name = "counting"

            def _place_all(self, engine: PlacementEngine) -> bool:
                attempts.append(engine.ii)
                if engine.ii < 4:
                    return False
                for node in engine.graph.node_ids:
                    placement = engine.find_placement(node, 0)
                    from repro.core.engine import Placement

                    if not isinstance(placement, Placement):
                        return False
                    engine.commit(placement)
                return True

        sched = CountingScheduler(unified_config()).schedule(daxpy())
        assert attempts == [1, 2, 3, 4]
        assert sched.ii == 4
