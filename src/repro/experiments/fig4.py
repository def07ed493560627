"""Figure 4: bus sensitivity of clustered modulo scheduling.

Relative IPC (clustered / unified, averaged over the suite) as the number
of buses sweeps, for the BSA single-pass scheduler and the N&E two-phase
comparator, at bus latencies 1 and 2, on the 2- and 4-cluster machines.

Expected shape (paper): BSA above N&E everywhere (about 7% at the N&E
configurations 2c/2b and 4c/4b with latency 1); both approach 1.0 as buses
grow; both degrade as buses shrink or slow down, N&E faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.configs import clustered_config, unified_config
from ..core.selective import UnrollPolicy
from ..runner.scenario import GridItem
from .common import ExperimentContext, suite_grid

#: Bus counts swept on the x axis (the paper's plots run to 12).
BUS_SWEEP = (1, 2, 3, 4, 6, 8, 12)
LATENCIES = (1, 2)
ALGORITHMS = ("bsa", "two-phase")
CLUSTER_COUNTS = (2, 4)


def fig4_grid(
    ctx: ExperimentContext,
    *,
    bus_sweep: tuple[int, ...] = BUS_SWEEP,
    cluster_counts: tuple[int, ...] = CLUSTER_COUNTS,
) -> list[GridItem]:
    """The Figure 4 sweep as a flat scenario-point declaration."""
    items = suite_grid(ctx.suite, unified_config(), "bsa", UnrollPolicy.NONE)
    for n_clusters in cluster_counts:
        for algorithm in ALGORITHMS:
            for latency in LATENCIES:
                for n_buses in bus_sweep:
                    cfg = clustered_config(n_clusters, n_buses, latency)
                    items.extend(
                        suite_grid(ctx.suite, cfg, algorithm, UnrollPolicy.NONE)
                    )
    return items


@dataclass(frozen=True)
class Fig4Point:
    n_clusters: int
    algorithm: str
    bus_latency: int
    n_buses: int
    relative_ipc: float


def run_fig4(
    ctx: ExperimentContext,
    *,
    bus_sweep: tuple[int, ...] = BUS_SWEEP,
    cluster_counts: tuple[int, ...] = CLUSTER_COUNTS,
) -> list[Fig4Point]:
    """Run the Figure 4 sweep: relative IPC per (clusters, algorithm,
    latency, bus count) point."""
    ctx.run_grid(fig4_grid(ctx, bus_sweep=bus_sweep, cluster_counts=cluster_counts))
    points = []
    for n_clusters in cluster_counts:
        for algorithm in ALGORITHMS:
            for latency in LATENCIES:
                for n_buses in bus_sweep:
                    cfg = clustered_config(n_clusters, n_buses, latency)
                    rel = ctx.average_relative_ipc(
                        cfg, algorithm, UnrollPolicy.NONE
                    )
                    points.append(
                        Fig4Point(n_clusters, algorithm, latency, n_buses, rel)
                    )
    return points


def fig4_rows(points: list[Fig4Point]) -> list[dict]:
    """Figure 4 points as table rows."""
    return [
        {
            "clusters": p.n_clusters,
            "algorithm": p.algorithm,
            "bus_latency": p.bus_latency,
            "buses": p.n_buses,
            "relative_ipc": p.relative_ipc,
        }
        for p in points
    ]
