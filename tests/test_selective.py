"""Unit/integration tests for the unrolling policies (Figure 6)."""

from repro.arch.configs import two_cluster_config
from repro.core.bsa import BsaScheduler
from repro.core.selective import (
    ScheduleMemo,
    SelectiveRule,
    UnrollPolicy,
    schedule_with_policy,
    selective_unroll_decision,
)
from repro.core.unified import UnifiedScheduler
from repro.core.verify import verify_schedule
from repro.ir.serialize import schedule_to_dict
from repro.workloads.kernels import daxpy, dot_product, ladder_graph


class TestPolicyNone:
    def test_returns_factor_one(self, two_cluster):
        r = schedule_with_policy(daxpy(), BsaScheduler(two_cluster), UnrollPolicy.NONE)
        assert r.unroll_factor == 1
        assert r.policy is UnrollPolicy.NONE
        verify_schedule(r.schedule)


class TestPolicyAll:
    def test_unrolls_by_cluster_count(self, four_cluster):
        r = schedule_with_policy(daxpy(), BsaScheduler(four_cluster), UnrollPolicy.ALL)
        assert r.unroll_factor == 4
        assert len(r.schedule.graph) == 4 * len(daxpy())
        verify_schedule(r.schedule)

    def test_unified_machine_never_unrolls(self, unified):
        r = schedule_with_policy(daxpy(), UnifiedScheduler(unified), UnrollPolicy.ALL)
        assert r.unroll_factor == 1

    def test_falls_back_when_unrolled_unschedulable(self):
        """If the unrolled body defeats the scheduler (register pressure),
        the original loop is kept."""
        from repro.arch.cluster import MachineConfig
        from repro.arch.resources import BusSpec, FuSet
        from repro.ir.ddg import DependenceGraph

        tiny = MachineConfig("tiny", 2, FuSet(2, 2, 2), 3, BusSpec(1, 1))
        g = DependenceGraph("fat")
        # three parallel producer pairs joined by consumers: per-copy needs
        # >= 2 regs; x2 copies co-scheduled overflow a 3-reg file.
        for i in range(3):
            p1 = g.add_operation("fadd")
            p2 = g.add_operation("fadd")
            c = g.add_operation("fadd")
            g.add_dependence(p1, c)
            g.add_dependence(p2, c)
        r = schedule_with_policy(g, BsaScheduler(tiny), UnrollPolicy.ALL)
        verify_schedule(r.schedule)
        assert r.unroll_factor in (1, 2)  # fallback allowed
        if r.unroll_factor == 1:
            assert r.base_schedule is not None


class TestSelectiveDecision:
    def test_not_bus_limited_keeps_loop(self, four_cluster):
        r = schedule_with_policy(
            dot_product(), BsaScheduler(four_cluster), UnrollPolicy.SELECTIVE
        )
        # serial reduction: II = RecMII, never bus limited
        assert r.unroll_factor == 1
        assert not r.schedule.was_bus_limited

    def test_ladder_selective_unrolls(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        r = schedule_with_policy(
            ladder_graph(), BsaScheduler(cfg), UnrollPolicy.SELECTIVE
        )
        assert r.unroll_factor == 2
        assert r.base_schedule is not None
        assert r.base_schedule.was_bus_limited
        # parity with the unified machine: 3 cycles per source iteration
        assert r.ii_per_original_iteration == 3.0

    def test_decision_respects_bandwidth_estimate(self):
        """A loop whose cross-copy deps exceed the bus budget is kept."""
        from repro.ir.ddg import DependenceGraph

        g = DependenceGraph("carried-heavy")
        prev = g.add_operation("fadd")
        for i in range(7):
            node = g.add_operation("fadd")
            g.add_dependence(prev, node)
            prev = node
        # many odd-distance carried edges -> expensive after unrolling
        nodes = g.node_ids
        for i in range(0, 6):
            g.add_dependence(nodes[i + 1], nodes[i], distance=1)
        cfg = two_cluster_config(n_buses=1, bus_latency=4)
        sched = BsaScheduler(cfg).schedule(g)
        if sched.was_bus_limited:
            decision = selective_unroll_decision(g, cfg, sched)
            # comneeded = 6 * 2 = 12 transfers, cycneeded = 48 — never
            # below the unrolled MII for this small graph.
            assert not decision

    def test_literal_vs_mii_rule_defined_for_all(self):
        cfg = two_cluster_config(1, 2)
        sched = BsaScheduler(cfg).schedule(ladder_graph())
        for rule in SelectiveRule:
            decision = selective_unroll_decision(
                ladder_graph(), cfg, sched, rule=rule
            )
            assert isinstance(decision, bool)

    def test_unified_decision_is_false(self, unified):
        sched = UnifiedScheduler(unified).schedule(daxpy())
        assert not selective_unroll_decision(daxpy(), unified, sched)


class TestScheduleMemo:
    def test_policies_share_two_schedules(self):
        cfg = two_cluster_config(n_buses=1, bus_latency=2)
        memo = ScheduleMemo()
        shared = {
            policy: schedule_with_policy(
                ladder_graph(), BsaScheduler(cfg), policy, memo=memo
            )
            for policy in UnrollPolicy
        }
        none, unroll_all, selective = (shared[p] for p in UnrollPolicy)
        assert selective.base_schedule is none.schedule
        assert selective.schedule is unroll_all.schedule
        for policy, result in shared.items():
            alone = schedule_with_policy(ladder_graph(), BsaScheduler(cfg), policy)
            assert result.unroll_factor == alone.unroll_factor
            assert schedule_to_dict(result.schedule) == schedule_to_dict(
                alone.schedule
            )


class TestResultMetadata:
    def test_ii_per_original_iteration(self, four_cluster):
        r = schedule_with_policy(daxpy(), BsaScheduler(four_cluster), UnrollPolicy.ALL)
        assert r.ii_per_original_iteration == r.schedule.ii / 4

    def test_stage_count_passthrough(self, two_cluster):
        r = schedule_with_policy(daxpy(), BsaScheduler(two_cluster), UnrollPolicy.NONE)
        assert r.stage_count == r.schedule.stage_count
