"""Experiment harnesses for the paper's tables and figures.

Every figure is declared as a grid of
:class:`~repro.runner.scenario.ScenarioPoint` work units (the
``fig*_grid`` functions) and executed through the parallel, cache-backed
engine in :mod:`repro.runner`; the ``run_fig*`` functions then reduce
the warm results into the figure's rows.
"""

from .ablation import (
    run_default_cluster_ablation,
    run_pipelining_gain,
    run_register_sweep,
    run_ordering_ablation,
    run_selective_rule_ablation,
    run_singlepass_ablation,
    run_stall_sensitivity,
    run_unroll_factor_sweep,
)
from .common import (
    ExperimentContext,
    config_label,
    geometric_mean,
    make_scheduler,
    paper_machine,
    sequential_fallback,
    suite_grid,
)
from .crossval import (
    CrossvalPoint,
    crossval_grid,
    crossval_rows,
    max_cycle_divergence,
    max_ipc_divergence,
    run_crossval,
)
from .fig4 import BUS_SWEEP, Fig4Point, fig4_grid, fig4_rows, run_fig4
from .fig7 import Fig7Case, fig7_rows, run_fig7, run_fig7_ladder
from .fig8 import Fig8Point, average_ipc, fig8_grid, fig8_rows, fig8_scenarios, run_fig8
from .fig9 import Fig9Point, best_speedup, fig9_grid, fig9_rows, run_fig9
from .fig10 import Fig10Point, fig10_rows, run_fig10
from .gap import (
    GAP_HEURISTICS,
    GAP_SCHEDULERS,
    GapPoint,
    gap_grid,
    gap_rows,
    render_gap,
    run_gap,
)
from .tables import run_table1, run_table2

__all__ = [
    "BUS_SWEEP",
    "CrossvalPoint",
    "ExperimentContext",
    "Fig4Point",
    "Fig7Case",
    "Fig8Point",
    "Fig9Point",
    "Fig10Point",
    "GAP_HEURISTICS",
    "GAP_SCHEDULERS",
    "GapPoint",
    "average_ipc",
    "best_speedup",
    "config_label",
    "crossval_grid",
    "crossval_rows",
    "fig10_rows",
    "fig4_grid",
    "fig4_rows",
    "fig7_rows",
    "fig8_grid",
    "fig8_rows",
    "fig8_scenarios",
    "fig9_grid",
    "fig9_rows",
    "gap_grid",
    "gap_rows",
    "geometric_mean",
    "make_scheduler",
    "max_cycle_divergence",
    "max_ipc_divergence",
    "paper_machine",
    "render_gap",
    "run_crossval",
    "run_gap",
    "run_fig10",
    "run_fig4",
    "run_fig7",
    "run_fig7_ladder",
    "run_fig8",
    "run_fig9",
    "run_default_cluster_ablation",
    "run_pipelining_gain",
    "run_register_sweep",
    "run_ordering_ablation",
    "run_selective_rule_ablation",
    "run_singlepass_ablation",
    "run_stall_sensitivity",
    "run_unroll_factor_sweep",
    "run_table1",
    "run_table2",
    "sequential_fallback",
    "suite_grid",
]
