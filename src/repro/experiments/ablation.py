"""Ablation studies beyond the paper's figures.

* **single-pass vs two-phase** (EXP-A1): the gap between BSA and the
  two-phase comparator as communication latency grows, on identical
  graphs — isolates the benefit the paper attributes to unified
  assign-and-schedule.
* **selective rule** (EXP-A2): the Figure 6 pseudo-code tests
  ``cycneeded < II(sched)`` while the prose compares against the unrolled
  loop's achievable II; this ablation counts how often the two rules
  disagree and what each costs in IPC and code size.
* **ordering** (EXP-A3): BSA with SMS ordering vs plain topological
  ordering — how much of BSA's quality comes from the SMS priority.
* **default cluster** (EXP-A4): the paper's circular rotation vs the
  least-loaded alternative it mentions (Section 5.1).
* **unroll factor** (EXP-A5): the paper fixes U = n_clusters; sweep U in
  {1, 2, 4, 8} to test that choice.
* **memory stalls** (EXP-A6): sensitivity of the clustered-vs-unified
  comparison to the perfect-memory assumption (extension; the paper's
  t_stall is zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from ..arch.configs import clustered_config, unified_config
from ..codegen.codesize import ZERO_SIZE, schedule_code_size
from ..core.bsa import BsaScheduler
from ..core.selective import ScheduledLoopResult, SelectiveRule, UnrollPolicy
from ..errors import SchedulingError
from ..ir.unroll import unroll_graph
from ..perf.model import StallModel, program_performance
from .common import ExperimentContext, relative_ipc, suite_grid, suite_performance


@dataclass(frozen=True)
class LatencyAblationPoint:
    bus_latency: int
    algorithm: str
    relative_ipc: float


def run_singlepass_ablation(
    ctx: ExperimentContext,
    *,
    n_clusters: int = 4,
    n_buses: int = 1,
    latencies: tuple[int, ...] = (1, 2, 4),
) -> list[LatencyAblationPoint]:
    """EXP-A1: BSA vs two-phase as communication latency grows."""
    cells = [
        (latency, algorithm, clustered_config(n_clusters, n_buses, latency))
        for latency in latencies
        for algorithm in ("bsa", "two-phase")
    ]
    grid = suite_grid(ctx.suite, unified_config(), "bsa", UnrollPolicy.NONE)
    for _latency, algorithm, cfg in cells:
        grid.extend(suite_grid(ctx.suite, cfg, algorithm, UnrollPolicy.NONE))
    results = iter(ctx.results(grid))
    unified = suite_performance(ctx.suite, results)
    points = []
    for latency, algorithm, _cfg in cells:
        rel = relative_ipc(suite_performance(ctx.suite, results), unified)
        points.append(LatencyAblationPoint(latency, algorithm, rel))
    return points


@dataclass(frozen=True)
class SelectiveRulePoint:
    rule: str
    n_clusters: int
    n_buses: int
    bus_latency: int
    mean_ipc: float
    unrolled_loops: int
    total_ops: int


def run_selective_rule_ablation(
    ctx: ExperimentContext,
    *,
    n_clusters: int = 4,
    scenarios: tuple[tuple[int, int], ...] = ((1, 1), (1, 4), (2, 1)),
) -> list[SelectiveRulePoint]:
    """EXP-A2: the two readings of the Figure 6 decision test."""
    cells = [
        (n_buses, latency, rule, clustered_config(n_clusters, n_buses, latency))
        for n_buses, latency in scenarios
        for rule in SelectiveRule
    ]
    grid = []
    for *_, rule, cfg in cells:
        grid.extend(suite_grid(ctx.suite, cfg, "bsa", UnrollPolicy.SELECTIVE, rule))
    results = iter(ctx.results(grid))
    per_cell = sum(len(program.eligible_loops()) for program in ctx.suite)
    points = []
    for n_buses, latency, rule, _cfg in cells:
        cell = list(islice(results, per_cell))
        perfs = suite_performance(ctx.suite, cell)
        size = sum((schedule_code_size(r.schedule) for r in cell), ZERO_SIZE)
        points.append(
            SelectiveRulePoint(
                rule.value,
                n_clusters,
                n_buses,
                latency,
                sum(p.ipc for p in perfs) / len(perfs),
                sum(r.unroll_factor > 1 for r in cell),
                size.total_ops,
            )
        )
    return points


@dataclass(frozen=True)
class OrderingPoint:
    ordering: str
    n_clusters: int
    relative_ipc: float


def run_ordering_ablation(
    ctx: ExperimentContext,
    *,
    cluster_counts: tuple[int, ...] = (2, 4),
    n_buses: int = 1,
    latency: int = 1,
) -> list[OrderingPoint]:
    """EXP-A3: SMS ordering vs plain topological ordering inside BSA."""
    cells = [
        (n_clusters, name, label)
        for n_clusters in cluster_counts
        for name, label in (("bsa", "sms"), ("bsa-topo", "topological"))
    ]
    grid = suite_grid(ctx.suite, unified_config(), "bsa", UnrollPolicy.NONE)
    for n_clusters, name, _label in cells:
        cfg = clustered_config(n_clusters, n_buses, latency)
        grid.extend(suite_grid(ctx.suite, cfg, name, UnrollPolicy.NONE))
    results = iter(ctx.results(grid))
    unified = suite_performance(ctx.suite, results)
    points = []
    for n_clusters, _name, label in cells:
        rel = relative_ipc(suite_performance(ctx.suite, results), unified)
        points.append(OrderingPoint(label, n_clusters, rel))
    return points


@dataclass(frozen=True)
class DefaultClusterPoint:
    policy: str
    n_clusters: int
    policy_label: str
    relative_ipc: float


def run_default_cluster_ablation(
    ctx: ExperimentContext,
    *,
    cluster_counts: tuple[int, ...] = (2, 4),
    n_buses: int = 1,
    latency: int = 1,
) -> list[DefaultClusterPoint]:
    """EXP-A4: circular vs least-loaded default-cluster rotation.

    Evaluated with blanket unrolling, where the default-cluster choice is
    what spreads the unrolled copies.
    """
    cells = [
        (n_clusters, name, label)
        for n_clusters in cluster_counts
        for name, label in (("bsa", "circular"), ("bsa-least-loaded", "least-loaded"))
    ]
    grid = suite_grid(ctx.suite, unified_config(), "bsa", UnrollPolicy.NONE)
    for n_clusters, name, _label in cells:
        cfg = clustered_config(n_clusters, n_buses, latency)
        grid.extend(suite_grid(ctx.suite, cfg, name, UnrollPolicy.ALL))
    results = iter(ctx.results(grid))
    unified = suite_performance(ctx.suite, results)
    points = []
    for n_clusters, name, label in cells:
        rel = relative_ipc(suite_performance(ctx.suite, results), unified)
        points.append(DefaultClusterPoint(name, n_clusters, label, rel))
    return points


@dataclass(frozen=True)
class UnrollFactorPoint:
    n_clusters: int
    factor: int
    mean_ipc: float
    failed_loops: int


def run_unroll_factor_sweep(
    ctx: ExperimentContext,
    *,
    n_clusters: int = 4,
    n_buses: int = 1,
    latency: int = 1,
    factors: tuple[int, ...] = (1, 2, 4, 8),
) -> list[UnrollFactorPoint]:
    """EXP-A5: is U = n_clusters the right unroll factor?

    Loops whose unrolled body cannot be scheduled fall back to the
    non-unrolled schedule (counted in ``failed_loops``).
    """
    cfg = clustered_config(n_clusters, n_buses, latency)
    bases = ctx.results(suite_grid(ctx.suite, cfg, "bsa", UnrollPolicy.NONE))
    points = []
    for factor in factors:
        failed = 0
        ipcs = []
        base = iter(bases)
        for program in ctx.suite:
            results: dict[str, ScheduledLoopResult] = {}
            for loop in program.eligible_loops():
                results[loop.name] = next(base)
                if factor == 1:
                    continue
                try:
                    sched = BsaScheduler(cfg).schedule(
                        unroll_graph(loop.graph, factor)
                    )
                    results[loop.name] = ScheduledLoopResult(
                        sched, factor, UnrollPolicy.ALL
                    )
                except SchedulingError:
                    failed += 1
            ipcs.append(program_performance(program, results).ipc)
        points.append(
            UnrollFactorPoint(
                n_clusters, factor, sum(ipcs) / len(ipcs), failed
            )
        )
    return points


@dataclass(frozen=True)
class RegisterSweepPoint:
    regs_per_cluster: int
    policy: UnrollPolicy
    mean_ipc: float
    fallback_loops: int


def run_register_sweep(
    ctx_suite,
    *,
    n_clusters: int = 4,
    n_buses: int = 1,
    latency: int = 1,
    reg_sizes: tuple[int, ...] = (8, 12, 16, 24, 32),
) -> list[RegisterSweepPoint]:
    """EXP-A7: how small can the per-cluster register file get?

    The paper fixes 64/n_clusters registers per cluster; this sweeps the
    file size to expose the pressure wall — where modulo scheduling
    starts failing (list-scheduling fallbacks) and IPC collapses.  Uses a
    fresh context per size (configs differ from the paper machines).
    """
    from ..arch.cluster import MachineConfig
    from ..arch.resources import BusSpec, FuSet

    points = []
    for regs in reg_sizes:
        cfg = MachineConfig(
            name=f"4c-r{regs}",
            n_clusters=n_clusters,
            fu_per_cluster=FuSet(1, 1, 1),
            regs_per_cluster=regs,
            buses=BusSpec(n_buses, latency),
        )
        for policy in (UnrollPolicy.NONE, UnrollPolicy.SELECTIVE):
            ctx = ExperimentContext(suite=ctx_suite)
            ipcs = [
                ctx.program_ipc(p, cfg, "bsa", policy).ipc for p in ctx.suite
            ]
            points.append(
                RegisterSweepPoint(
                    regs, policy, sum(ipcs) / len(ipcs), len(ctx.fallbacks)
                )
            )
    return points


@dataclass(frozen=True)
class PipeliningGainPoint:
    program: str
    config_label: str
    list_ipc: float
    modulo_ipc: float

    @property
    def gain(self) -> float:
        return self.modulo_ipc / self.list_ipc if self.list_ipc else 0.0


def run_pipelining_gain(
    ctx: ExperimentContext,
    *,
    n_clusters: int = 4,
    n_buses: int = 1,
    latency: int = 1,
) -> list[PipeliningGainPoint]:
    """EXP-A8: what modulo scheduling buys over list scheduling.

    The motivation experiment for the whole line of work: one-iteration
    list schedules leave the machine idle during dependence latencies;
    software pipelining overlaps iterations.
    """
    from ..core.list_schedule import list_schedule

    cfg = clustered_config(n_clusters, n_buses, latency)
    grid = suite_grid(ctx.suite, cfg, "bsa", UnrollPolicy.SELECTIVE)
    modulo = suite_performance(ctx.suite, ctx.results(grid))
    points = []
    for program, modulo_perf in zip(ctx.suite, modulo):
        list_results = {
            loop.name: ScheduledLoopResult(
                list_schedule(loop.graph, cfg), 1, UnrollPolicy.NONE
            )
            for loop in program.eligible_loops()
        }
        points.append(
            PipeliningGainPoint(
                program.name,
                f"{n_clusters}c/b{n_buses}/l{latency}",
                program_performance(program, list_results).ipc,
                modulo_perf.ipc,
            )
        )
    return points


@dataclass(frozen=True)
class StallSensitivityPoint:
    miss_rate: float
    miss_penalty: int
    relative_ipc: float  # clustered(SU) / unified, stalls applied to both


def run_stall_sensitivity(
    ctx: ExperimentContext,
    *,
    n_clusters: int = 4,
    n_buses: int = 1,
    latency: int = 1,
    scenarios: tuple[tuple[float, int], ...] = (
        (0.0, 0),
        (0.02, 10),
        (0.05, 20),
        (0.10, 40),
    ),
) -> list[StallSensitivityPoint]:
    """EXP-A6: how memory stalls dilute the clustered/unified IPC gap.

    Stalls hit both machines identically (shared memory hierarchy), so
    they pull the relative IPC towards 1.0 — quantifying how much the
    perfect-memory assumption flatters *any* scheduling difference.
    """
    cfg = clustered_config(n_clusters, n_buses, latency)
    clustered = suite_grid(ctx.suite, cfg, "bsa", UnrollPolicy.SELECTIVE)
    unified = suite_grid(ctx.suite, unified_config(), "bsa", UnrollPolicy.NONE)
    results = ctx.results(clustered + unified)
    points = []
    for miss_rate, penalty in scenarios:
        stall = StallModel(miss_rate, penalty)
        both = iter(results)
        clustered_perfs = suite_performance(ctx.suite, both, stall)
        unified_perfs = suite_performance(ctx.suite, both, stall)
        rel = relative_ipc(clustered_perfs, unified_perfs)
        points.append(StallSensitivityPoint(miss_rate, penalty, rel))
    return points
