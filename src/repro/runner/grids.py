"""Named grid registry for ``repro-vliw sweep`` and the figure verbs.

Each :class:`GridSpec` names one declared experiment grid and knows how
to run it through an :class:`~repro.experiments.common.ExperimentContext`
and render the resulting tables.  ``repro-vliw sweep <name> --jobs N``
(and ``repro-vliw <name>`` for the figures, which runs the same entry)
is then the single entry point for any sweep: points are served from
the shared cache, misses execute across worker processes, and
interrupted runs resume from whatever finished.

New grids are one registry entry: declare the points (usually by
composing :func:`~repro.experiments.common.suite_grid` calls), reduce,
render.  The experiment modules are imported lazily inside each entry —
this module is imported by the runner package, which the experiment
harnesses themselves build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.common import ExperimentContext


@dataclass(frozen=True)
class GridSpec:
    """One named, sweepable experiment grid.

    Attributes
    ----------
    name:
        Registry key (the ``repro-vliw sweep <name>`` argument).
    description:
        One-line summary shown by ``repro-vliw sweep --list``.
    run:
        ``(ctx, quick) -> str``: execute the grid through *ctx* (which
        carries the cache and job count) and return the rendered tables.
    """

    name: str
    description: str
    run: Callable[["ExperimentContext", bool], str]


def _run_fig4(ctx: "ExperimentContext", quick: bool) -> str:
    from ..experiments import fig4_rows, run_fig4
    from ..perf.report import format_table

    kwargs = {"bus_sweep": (1, 2, 4)} if quick else {}
    points = run_fig4(ctx, **kwargs)
    return format_table(fig4_rows(points), title="Figure 4: relative IPC vs buses")


def _run_fig8(ctx: "ExperimentContext", quick: bool) -> str:
    from ..experiments import average_ipc, fig8_rows, run_fig8
    from ..perf.report import format_table

    kwargs = {"bus_counts": (1,), "latencies": (1, 4)} if quick else {}
    points = run_fig8(ctx, **kwargs)
    return (
        format_table(fig8_rows(points), title="Figure 8: IPC per program")
        + "\n\n"
        + format_table(average_ipc(points), title="Figure 8: averages")
    )


def _run_fig9(ctx: "ExperimentContext", quick: bool) -> str:
    from ..experiments import best_speedup, fig9_rows, run_fig9
    from ..perf.report import format_table

    kwargs = {"cluster_counts": (4,), "bus_counts": (1,)} if quick else {}
    points = run_fig9(ctx, **kwargs)
    best = best_speedup(points)
    return (
        format_table(fig9_rows(points), title="Figure 9: speed-up vs unified")
        + f"\n\nbest: {best.n_clusters}-cluster / {best.n_buses} bus / "
        f"{best.scenario} -> {best.report.speedup:.2f}x"
    )


def _run_fig10(ctx: "ExperimentContext", quick: bool) -> str:
    from ..experiments import fig10_rows, run_fig10
    from ..perf.report import format_table

    kwargs = {"bus_counts": (1,), "latencies": (1, 4)} if quick else {}
    points = run_fig10(ctx, **kwargs)
    return format_table(
        fig10_rows(points), title="Figure 10: code size (normalised)"
    )


def _run_crossval(ctx: "ExperimentContext", quick: bool) -> str:
    from ..experiments import (
        crossval_rows,
        max_cycle_divergence,
        max_ipc_divergence,
        run_crossval,
    )
    from ..perf.report import format_table

    kwargs = (
        {"cluster_counts": (4,), "bus_counts": (1,), "latencies": (1, 4)}
        if quick
        else {}
    )
    points = run_crossval(ctx, **kwargs)
    return (
        format_table(
            crossval_rows(points),
            title="Cross-validation: analytic model vs simulation (Figure 8 grid)",
            floatfmt=".3e",
        )
        + f"\n\n{len(points)} loop executions simulated; max IPC divergence "
        f"{max_ipc_divergence(points):.3e}, max cycle divergence "
        f"{max_cycle_divergence(points)}"
    )


def _run_gap(ctx: "ExperimentContext", quick: bool) -> str:
    from ..experiments import render_gap, run_gap

    points = run_gap(ctx, quick=quick)
    return render_gap(points, "text")


def _run_ablation(ctx: "ExperimentContext", quick: bool) -> str:
    from dataclasses import asdict

    from ..experiments import (
        run_selective_rule_ablation,
        run_singlepass_ablation,
    )
    from ..perf.report import format_table

    latencies = (1, 2) if quick else (1, 2, 4)
    scenarios = ((1, 1), (2, 1)) if quick else ((1, 1), (1, 4), (2, 1))
    singlepass = run_singlepass_ablation(ctx, latencies=latencies)
    rules = run_selective_rule_ablation(ctx, scenarios=scenarios)
    return (
        format_table(
            [asdict(p) for p in singlepass],
            title="Ablation EXP-A1: single-pass vs two-phase",
        )
        + "\n\n"
        + format_table(
            [asdict(p) for p in rules],
            title="Ablation EXP-A2: Figure 6 decision rule",
        )
    )


def _run_smoke(ctx: "ExperimentContext", quick: bool) -> str:
    from ..arch.configs import clustered_config
    from ..core.selective import UnrollPolicy
    from ..experiments.common import config_label
    from ..perf.report import format_table
    from ..runner.scenario import scenario_for
    from ..workloads.kernels import kernel_loop

    kernels = ("daxpy", "dot") if quick else ("daxpy", "dot", "fir4", "vadd")
    configs = [clustered_config(2, 1, 1), clustered_config(4, 1, 1)]
    items = []
    for name in kernels:
        loop = kernel_loop(name, trip_count=100)
        for config in configs:
            point = scenario_for(loop, config, "bsa", UnrollPolicy.NONE)
            items.append((point, loop))
    ctx.run_grid(items)
    rows = []
    for point, _loop in items:
        result = ctx.memo[point.canonical()]
        rows.append(
            {
                "kernel": point.loop,
                "config": config_label(point.config()),
                "ii": result.ii,
                "stages": result.stage_count,
            }
        )
    return format_table(
        rows, title="Smoke grid: II / stage count per kernel and machine"
    )


#: All sweepable grids, by name (the ``repro-vliw sweep`` registry).
GRIDS: dict[str, GridSpec] = {
    spec.name: spec
    for spec in (
        GridSpec("fig4", "bus-sensitivity sweep (relative IPC)", _run_fig4),
        GridSpec("fig8", "per-program IPC under the three policies", _run_fig8),
        GridSpec("fig9", "cycle-time-aware speed-up over unified", _run_fig9),
        GridSpec("fig10", "code-size impact of the policies", _run_fig10),
        GridSpec(
            "crossval",
            "Figure 8 grid re-run on the cycle-accurate simulator",
            _run_crossval,
        ),
        GridSpec(
            "gap",
            "heuristic-vs-optimal II and MaxLive (exact backend oracle)",
            _run_gap,
        ),
        GridSpec(
            "ablation",
            "single-pass vs two-phase and Figure 6 rule ablations",
            _run_ablation,
        ),
        GridSpec(
            "smoke",
            "tiny fixed grid for fabric/CI plumbing checks (milliseconds)",
            _run_smoke,
        ),
    )
}
