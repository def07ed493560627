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
from itertools import product

from ..arch.configs import clustered_config, unified_config
from ..core.selective import UnrollPolicy
from ..runner.scenario import GridItem
from .common import ExperimentContext, relative_ipc, suite_grid, suite_performance

#: Bus counts swept on the x axis (the paper's plots run to 12).
BUS_SWEEP = (1, 2, 3, 4, 6, 8, 12)
LATENCIES = (1, 2)
ALGORITHMS = ("bsa", "two-phase")
CLUSTER_COUNTS = (2, 4)


def _cells(bus_sweep, cluster_counts) -> list[tuple[int, str, int, int]]:
    """Every ``(clusters, algorithm, latency, buses)`` cell, in plot order."""
    return list(product(cluster_counts, ALGORITHMS, LATENCIES, bus_sweep))


def fig4_grid(
    ctx: ExperimentContext,
    *,
    bus_sweep: tuple[int, ...] = BUS_SWEEP,
    cluster_counts: tuple[int, ...] = CLUSTER_COUNTS,
) -> list[GridItem]:
    """The Figure 4 sweep: the unified baseline, then one
    :func:`suite_grid` per cell."""
    items = suite_grid(ctx.suite, unified_config(), "bsa", UnrollPolicy.NONE)
    for n_clusters, algorithm, latency, n_buses in _cells(bus_sweep, cluster_counts):
        cfg = clustered_config(n_clusters, n_buses, latency)
        items.extend(suite_grid(ctx.suite, cfg, algorithm, UnrollPolicy.NONE))
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
    grid = fig4_grid(ctx, bus_sweep=bus_sweep, cluster_counts=cluster_counts)
    results = iter(ctx.results(grid))
    unified = suite_performance(ctx.suite, results)
    points = []
    for cell in _cells(bus_sweep, cluster_counts):
        rel = relative_ipc(suite_performance(ctx.suite, results), unified)
        points.append(Fig4Point(*cell, rel))
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
