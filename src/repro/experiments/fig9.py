"""Figure 9: cycle-time-aware speed-up over the unified machine.

Combines the measured suite IPCs with the Palacharla-style cycle times of
Table 2: ``speedup = (IPC_c / IPC_u) * (cycle_u / cycle_c)``, for the 2-
and 4-cluster machines with 1 and 2 buses (latency 1), without unrolling
(NU) and with selective unrolling (SU).

Expected shape (paper): every clustered configuration beats the unified
machine; best is 4-cluster / 1 bus / selective unrolling at ~3.6x.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.configs import unified_config
from ..core.selective import UnrollPolicy
from ..perf.speedup import SpeedupReport, speedup_report
from ..runner.scenario import GridItem
from .common import ExperimentContext, geometric_mean, paper_machine, suite_grid

SCENARIOS = (
    ("NU", UnrollPolicy.NONE),
    ("SU", UnrollPolicy.SELECTIVE),
)


def fig9_grid(
    ctx: ExperimentContext,
    *,
    cluster_counts: tuple[int, ...] = (2, 4),
    bus_counts: tuple[int, ...] = (1, 2),
    bus_latency: int = 1,
) -> list[GridItem]:
    """The Figure 9 grid as a flat scenario-point declaration."""
    items = suite_grid(ctx.suite, unified_config(), "bsa", UnrollPolicy.NONE)
    for n_clusters in cluster_counts:
        for n_buses in bus_counts:
            cfg = paper_machine(n_clusters, n_buses, bus_latency)
            for _label, policy in SCENARIOS:
                items.extend(suite_grid(ctx.suite, cfg, "bsa", policy))
    return items


@dataclass(frozen=True)
class Fig9Point:
    n_clusters: int
    n_buses: int
    scenario: str  # NU or SU
    report: SpeedupReport


def run_fig9(
    ctx: ExperimentContext,
    *,
    cluster_counts: tuple[int, ...] = (2, 4),
    bus_counts: tuple[int, ...] = (1, 2),
    bus_latency: int = 1,
) -> list[Fig9Point]:
    """Run Figure 9: suite IPCs combined with modelled cycle times."""
    ctx.run_grid(
        fig9_grid(
            ctx,
            cluster_counts=cluster_counts,
            bus_counts=bus_counts,
            bus_latency=bus_latency,
        )
    )
    unified = unified_config()
    unified_perfs = ctx.suite_ipc(unified, "bsa", UnrollPolicy.NONE)
    # The paper reports the SPECfp95 average; the speed-up is computed
    # from the geometric-mean IPCs of the suite on each machine.
    mean_ipc_u = geometric_mean([perf.ipc for perf in unified_perfs.values()])
    points = []
    for n_clusters in cluster_counts:
        for n_buses in bus_counts:
            cfg = paper_machine(n_clusters, n_buses, bus_latency)
            for label, policy in SCENARIOS:
                perfs = ctx.suite_ipc(cfg, "bsa", policy)
                mean_ipc_c = geometric_mean([perf.ipc for perf in perfs.values()])
                report = speedup_report(cfg, unified, mean_ipc_c, mean_ipc_u)
                points.append(Fig9Point(n_clusters, n_buses, label, report))
    return points


def fig9_rows(points: list[Fig9Point]) -> list[dict]:
    """Figure 9 points as table rows."""
    return [
        {
            "clusters": p.n_clusters,
            "buses": p.n_buses,
            "scenario": p.scenario,
            "ipc_ratio": p.report.ipc_ratio,
            "clock_ratio": p.report.clock_ratio,
            "speedup": p.report.speedup,
        }
        for p in points
    ]


def best_speedup(points: list[Fig9Point]) -> Fig9Point:
    """The winning configuration (the paper's 4c/1bus/SU headline)."""
    return max(points, key=lambda p: p.report.speedup)
