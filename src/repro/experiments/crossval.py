"""Model cross-validation: the Figure 8 grid re-run under simulation.

Every (program loop, machine, policy) point of the Figure 8 IPC grid is
executed by the cycle-accurate simulator (:mod:`repro.sim`) under a
perfect memory and diffed against the analytic model's cycles and IPC.
The headline number is the **maximum IPC divergence** over the whole
grid: the paper's closed-form results are only trustworthy if it is zero
(to floating-point rounding), so the experiment fails loudly on any
disagreement instead of averaging it away.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.selective import UnrollPolicy
from ..errors import SimulationError
from ..runner.scenario import GridItem
from ..sim.crosscheck import CrossCheck
from .common import ExperimentContext, suite_grid
from .fig8 import fig8_scenarios


@dataclass(frozen=True)
class CrossvalPoint:
    """One simulated grid point with its analytic counterpart."""

    program: str
    loop: str
    n_clusters: int  # 1 = unified
    n_buses: int
    bus_latency: int
    policy: UnrollPolicy
    check: CrossCheck


def crossval_grid(ctx: ExperimentContext, **dims: tuple[int, ...]) -> list[GridItem]:
    """The cross-validation grid: Figure 8's points, simulate-flagged.

    Simulated points embed their schedule in the result, so a crossval
    sweep also warms the schedule cache for the other figures (and vice
    versa: cached Figure 8 schedules skip straight to simulation).
    """
    return [
        item
        for *_, policy, machine in fig8_scenarios(**dims)
        for item in suite_grid(ctx.suite, machine, "bsa", policy, simulate=True)
    ]


def run_crossval(
    ctx: ExperimentContext, **dims: tuple[int, ...]
) -> list[CrossvalPoint]:
    """Simulate every loop of the Figure 8 grid and diff against the model."""
    ctx.run_grid(crossval_grid(ctx, **dims))
    points: list[CrossvalPoint] = []
    for n_clusters, n_buses, latency, policy, machine in fig8_scenarios(**dims):
        for program in ctx.suite:
            for loop in program.eligible_loops():
                try:
                    check = ctx.crosscheck_loop(loop, machine, "bsa", policy)
                except SimulationError as exc:  # a wrong schedule slipped through
                    raise SimulationError(
                        f"{program.name}/{loop.name} on {machine.name} "
                        f"({policy}): {exc}"
                    ) from exc
                points.append(
                    CrossvalPoint(
                        program.name,
                        loop.name,
                        n_clusters,
                        n_buses,
                        latency,
                        policy,
                        check,
                    )
                )
    return points


def max_ipc_divergence(points: list[CrossvalPoint]) -> float:
    """The headline: worst analytic-vs-simulated IPC gap over the grid."""
    return max((p.check.ipc_divergence for p in points), default=0.0)


def max_cycle_divergence(points: list[CrossvalPoint]) -> int:
    """Worst absolute cycle-count disagreement over the grid."""
    return max((abs(p.check.cycle_divergence) for p in points), default=0)


def crossval_rows(points: list[CrossvalPoint], *, per_loop: bool = False) -> list[dict]:
    """Cross-validation summary rows (per scenario, or per loop point).

    The per-scenario summary aggregates each (machine, policy) combination
    over all loops: how many points were simulated, how many matched the
    model exactly, and the worst divergence seen.
    """
    if per_loop:
        return [
            {
                "program": p.program,
                "loop": p.loop,
                "clusters": p.n_clusters,
                "buses": p.n_buses,
                "bus_latency": p.bus_latency,
                "policy": str(p.policy),
                "analytic_cycles": p.check.analytic_cycles,
                "simulated_cycles": p.check.simulated_cycles,
                "analytic_ipc": p.check.analytic_ipc,
                "simulated_ipc": p.check.simulated_ipc,
            }
            for p in points
        ]
    groups: dict[tuple, list[CrossvalPoint]] = {}
    for p in points:
        groups.setdefault((p.n_clusters, p.n_buses, p.bus_latency, p.policy), []).append(p)
    rows = []
    for (clusters, buses, latency, policy), pts in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2], str(kv[0][3]))
    ):
        rows.append(
            {
                "clusters": clusters,
                "buses": buses,
                "bus_latency": latency,
                "policy": str(policy),
                "loops": len(pts),
                "exact": sum(1 for p in pts if p.check.exact),
                "max_ipc_divergence": max(p.check.ipc_divergence for p in pts),
                "max_cycle_divergence": max(
                    abs(p.check.cycle_divergence) for p in pts
                ),
            }
        )
    return rows
