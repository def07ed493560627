#!/usr/bin/env python
"""The paper's Figure 7 walk-through: why unrolling hides communication.

Schedules the paper's 6-operation example and the assignment-proof ladder
variant on the 2-cluster machine, before and after unrolling by 2, and
prints the initiation intervals, communications and the selective-unroll
decision at each step.

Run:  python examples/unrolling_walkthrough.py
"""

from repro import (
    BsaScheduler,
    UnrollPolicy,
    count_cross_copy_deps,
    schedule_with_policy,
    two_cluster_config,
    verify_schedule,
)
from repro.codegen import render_schedule
from repro.experiments import fig7_rows, run_fig7, run_fig7_ladder
from repro.perf import format_table
from repro.workloads import figure7_graph
from repro.workloads.kernels import ladder_graph


def main():
    # --- the paper's 6-node graph ------------------------------------
    graph = figure7_graph()
    print(graph.describe())
    print()
    case = run_fig7()
    print(
        f"ResMII={case.res_mii} (6 ops / 4 units), "
        f"RecMII={case.rec_mii} (A->B->D->A: latency 3, distance 2)"
    )
    print(format_table(fig7_rows(case), title="paper 6-node graph"))
    print()
    print("non-unrolled kernel (bus limited at II=3):")
    print(render_schedule(case.base_schedule))
    print()
    print(
        f"cross-copy deps after unrolling by 2: "
        f"{count_cross_copy_deps(graph, 2)} "
        "(the carried A->E edge becomes A->E' and A'->E, the paper's two"
        " communications)"
    )
    print()

    # --- the ladder: no assignment can dodge the bus ------------------
    case = run_fig7_ladder()
    print(format_table(fig7_rows(case), title="ladder variant (bus latency 2)"))
    print()

    # --- the selective-unroll decision on the ladder -------------------
    config = two_cluster_config(n_buses=1, bus_latency=2)
    result = schedule_with_policy(
        ladder_graph(), BsaScheduler(config), UnrollPolicy.SELECTIVE
    )
    verify_schedule(result.schedule)
    print(
        f"selective unrolling on the ladder: base II="
        f"{result.base_schedule.ii} (bus limited: "
        f"{result.base_schedule.was_bus_limited}) -> "
        f"unrolled x{result.unroll_factor}, II={result.ii} "
        f"({result.ii_per_original_iteration:.1f} cycles per source iteration"
        f" = unified parity)"
    )


if __name__ == "__main__":
    main()
