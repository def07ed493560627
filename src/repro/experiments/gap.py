"""Optimality-gap ablation: the heuristics measured against the oracle.

Every figure in the paper compares heuristic modulo schedulers against
each other; none of them says how far any heuristic sits from *optimal*.
This experiment runs the kernel catalogue through the heuristics **and**
the exact backend (:class:`repro.core.exact.ExactScheduler`) on the same
machines and tabulates heuristic-vs-optimal II and MaxLive per kernel.

Points flow through the shared cache-backed runner like every other
experiment, so gap sweeps reuse schedules other figures already computed
(and vice versa).  When the exact search blows its time budget on a
kernel the runner substitutes the list-schedule fallback; those points
are *not* optimality claims, so the reduction detects the fallback flag
and reports the oracle column as a timeout instead of a number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..arch.cluster import MachineConfig
from ..arch.configs import clustered_config
from ..core.lifetimes import max_pressure
from ..core.selective import UnrollPolicy
from ..perf.report import format_markdown, format_table
from ..runner.scenario import GridItem, scenario_for
from ..workloads.kernels import kernel_loop
from ..workloads.registry import workloads
from .common import ExperimentContext, config_label

#: Heuristics measured against the oracle (registry names).
GAP_HEURISTICS = ("bsa", "two-phase")
#: Scheduler order of the emitted table (oracle last).
GAP_SCHEDULERS = GAP_HEURISTICS + ("exact",)
#: The quick set: catalogue kernels whose exact search finishes in well
#: under a second each, so the verb is usable interactively and in CI.
QUICK_KERNELS = (
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
#: The full set: the whole catalogue (the largest kernels may time the
#: oracle out — reported as such, never silently dropped).
FULL_KERNELS = tuple(spec.name for spec in workloads(tag="kernel", discover=False))


def gap_configs(quick: bool) -> tuple[MachineConfig, ...]:
    """The machines of the gap table (paper fabrics, hardest last)."""
    configs = (clustered_config(2, 1, 1), clustered_config(2, 1, 2))
    if not quick:
        configs = configs + (clustered_config(4, 1, 1),)
    return configs


@dataclass(frozen=True)
class GapPoint:
    """One (kernel, machine, scheduler) measurement."""

    kernel: str
    config: str
    scheduler: str
    ii: int
    mii: int
    max_live: int
    fallback: bool  # the scheduler failed (exact: timed out) on this point


def gap_grid(
    kernels: tuple[str, ...],
    configs: tuple[MachineConfig, ...],
    schedulers: tuple[str, ...] = GAP_SCHEDULERS,
) -> list[GridItem]:
    """Every (kernel, machine, scheduler) point of the gap table."""
    items: list[GridItem] = []
    for config in configs:
        for kernel in kernels:
            loop = kernel_loop(kernel)
            for scheduler in schedulers:
                items.append(
                    (
                        scenario_for(
                            loop, config, scheduler, UnrollPolicy.NONE
                        ),
                        loop,
                    )
                )
    return items


def run_gap(ctx: ExperimentContext, *, quick: bool = False) -> list[GapPoint]:
    """Measure every scheduler of the table on every kernel and machine."""
    kernels = QUICK_KERNELS if quick else FULL_KERNELS
    configs = gap_configs(quick)
    ctx.run_grid(gap_grid(kernels, configs))
    points: list[GapPoint] = []
    for config in configs:
        for kernel in kernels:
            loop = kernel_loop(kernel)
            for scheduler in GAP_SCHEDULERS:
                result = ctx.schedule_loop(
                    loop, config, scheduler, UnrollPolicy.NONE
                )
                points.append(
                    GapPoint(
                        kernel=kernel,
                        config=config_label(config),
                        scheduler=scheduler,
                        ii=result.schedule.ii,
                        mii=result.schedule.mii,
                        max_live=max_pressure(result.schedule),
                        fallback=result.fallback,
                    )
                )
    return points


def gap_rows(points: list[GapPoint]) -> list[dict]:
    """One table row per (kernel, machine): heuristics vs the oracle.

    The oracle's columns show ``timeout`` when its point fell back (a
    timed-out search proves nothing); the ``ii_gap`` column is the best
    heuristic II minus the optimal II — 0 means some heuristic is
    II-optimal on that kernel.
    """
    groups: dict[tuple[str, str], dict[str, GapPoint]] = {}
    order: list[tuple[str, str]] = []
    for p in points:
        key = (p.config, p.kernel)
        if key not in groups:
            groups[key] = {}
            order.append(key)
        groups[key][p.scheduler] = p
    rows: list[dict] = []
    for config, kernel in order:
        by_sched = groups[(config, kernel)]
        row: dict = {"kernel": kernel, "config": config}
        mii = next(iter(by_sched.values())).mii
        row["mii"] = mii
        heuristic_iis: list[int] = []
        for name in GAP_HEURISTICS:
            p = by_sched.get(name)
            if p is None:
                continue
            col = name.replace("-", "_")
            row[f"{col}_ii"] = p.ii
            row[f"{col}_live"] = p.max_live
            if not p.fallback:
                heuristic_iis.append(p.ii)
        exact = by_sched.get("exact")
        if exact is None or exact.fallback:
            row["exact_ii"] = "timeout"
            row["exact_live"] = "timeout"
            row["ii_gap"] = ""
        else:
            row["exact_ii"] = exact.ii
            row["exact_live"] = exact.max_live
            row["ii_gap"] = (
                min(heuristic_iis) - exact.ii if heuristic_iis else ""
            )
        rows.append(row)
    return rows


def render_gap(points: list[GapPoint], fmt: str = "text") -> str:
    """Render the gap table as ``text``, ``markdown`` or ``json``."""
    rows = gap_rows(points)
    if fmt == "json":
        return json.dumps(rows, indent=2)
    columns = list(rows[0]) if rows else []
    if fmt == "markdown":
        return format_markdown(rows, columns)
    if fmt == "text":
        return format_table(
            rows, columns, title="Heuristic vs optimal (exact backend)"
        )
    raise ValueError(f"unknown gap format {fmt!r}")
