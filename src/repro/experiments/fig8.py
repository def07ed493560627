"""Figure 8: per-program IPC under the three unrolling policies.

For every SPECfp95 program: IPC of the unified machine, and of the 2- and
4-cluster machines with 1 or 2 buses at latencies 1, 2 and 4, under *No
unrolling*, *Unrolling* (all loops, factor = cluster count) and *Selective
unrolling* (Figure 6).

Expected shape (paper): without unrolling the clustered IPC falls as buses
shrink or slow; with unrolling it recovers to roughly unified parity (and
occasionally above — the unified scheduler packs the first unrolled
iteration greedily at the expense of the rest); selective unrolling tracks
full unrolling closely; tomcatv on the 4-cluster machine is the canonical
loser from blanket unrolling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.cluster import MachineConfig
from ..arch.configs import (
    PAPER_BUS_COUNTS,
    PAPER_BUS_LATENCIES,
    unified_config,
)
from ..core.selective import UnrollPolicy
from ..runner.scenario import GridItem
from .common import ExperimentContext, paper_machine, suite_grid

POLICIES = (UnrollPolicy.NONE, UnrollPolicy.ALL, UnrollPolicy.SELECTIVE)

#: One machine scenario: ``(n_clusters, n_buses, latency, policy, machine)``.
Scenario = tuple[int, int, int, UnrollPolicy, MachineConfig]


def fig8_scenarios(
    *,
    cluster_counts: tuple[int, ...] = (2, 4),
    bus_counts: tuple[int, ...] = PAPER_BUS_COUNTS,
    latencies: tuple[int, ...] = PAPER_BUS_LATENCIES,
) -> list[Scenario]:
    """Every machine scenario of Figures 8 and 10 (and of crossval).

    The unified baseline ``(1, 0, 0, NONE, unified)`` comes first, then
    every clusters x policy x buses x latency combination in that loop
    order.  The figure functions take these three keywords as ``**dims``.
    """
    scenarios: list[Scenario] = [(1, 0, 0, UnrollPolicy.NONE, unified_config())]
    for n_clusters in cluster_counts:
        for policy in POLICIES:
            for n_buses in bus_counts:
                for latency in latencies:
                    machine = paper_machine(n_clusters, n_buses, latency)
                    scenarios.append((n_clusters, n_buses, latency, policy, machine))
    return scenarios


def fig8_grid(ctx: ExperimentContext, **dims: tuple[int, ...]) -> list[GridItem]:
    """The Figure 8 grid as a flat scenario-point declaration.

    One ``suite_grid`` per :func:`fig8_scenarios` entry; ~2,000 schedule
    runs on the full suite.  Figure 10 runs the same grid.
    """
    return [
        item
        for *_, policy, machine in fig8_scenarios(**dims)
        for item in suite_grid(ctx.suite, machine, "bsa", policy)
    ]


@dataclass(frozen=True)
class Fig8Point:
    program: str
    n_clusters: int  # 1 = unified
    n_buses: int
    bus_latency: int
    policy: UnrollPolicy
    ipc: float


def run_fig8(ctx: ExperimentContext, **dims: tuple[int, ...]) -> list[Fig8Point]:
    """Run the Figure 8 grid: per-program IPC for every scenario.

    The grid executes through the runner (parallel across the context's
    ``jobs``, persisted in its cache); the reduction below is then pure
    memo lookups.
    """
    ctx.run_grid(fig8_grid(ctx, **dims))
    return [
        Fig8Point(
            program.name,
            n_clusters,
            n_buses,
            latency,
            policy,
            ctx.program_ipc(program, machine, "bsa", policy).ipc,
        )
        for n_clusters, n_buses, latency, policy, machine in fig8_scenarios(**dims)
        for program in ctx.suite
    ]


def fig8_rows(points: list[Fig8Point]) -> list[dict]:
    """Figure 8 points as table rows."""
    return [
        {
            "program": p.program,
            "clusters": p.n_clusters,
            "buses": p.n_buses,
            "bus_latency": p.bus_latency,
            "policy": str(p.policy),
            "ipc": p.ipc,
        }
        for p in points
    ]


def average_ipc(points: list[Fig8Point]) -> list[dict]:
    """The AVERAGE panels of Figure 8: mean IPC per scenario."""
    groups: dict[tuple, list[float]] = {}
    for p in points:
        key = (p.n_clusters, p.n_buses, p.bus_latency, p.policy)
        groups.setdefault(key, []).append(p.ipc)
    rows = []
    for (clusters, buses, latency, policy), values in sorted(
        groups.items(), key=lambda kv: (kv[0][0], str(kv[0][3]), kv[0][1], kv[0][2])
    ):
        rows.append(
            {
                "clusters": clusters,
                "buses": buses,
                "bus_latency": latency,
                "policy": str(policy),
                "mean_ipc": sum(values) / len(values),
            }
        )
    return rows
