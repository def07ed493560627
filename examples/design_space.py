#!/usr/bin/env python
"""Design-space exploration: clusters x buses x latency for one program.

Answers the architect's question the paper poses: given 12 functional
units and 64 registers, how should they be clustered, and how much bus
bandwidth is enough?  Evaluates one synthetic SPECfp95 program over the
whole fabric grid, with and without selective unrolling, reporting IPC,
cycle time and end-to-end speed-up against the unified machine.

Run:  python examples/design_space.py [program]
"""

import sys

from repro import UnrollPolicy, clustered_config, cycle_time_ps, unified_config
from repro.experiments import ExperimentContext
from repro.perf import format_table
from repro.workloads import resolve_workload


def main(program_name: str = "hydro2d"):
    _, build = resolve_workload(program_name, kind="program")
    program = build()
    ctx = ExperimentContext(suite=[program])
    unified = unified_config()
    unified_ipc = ctx.program_ipc(program, unified, "bsa", UnrollPolicy.NONE).ipc
    unified_cycle = cycle_time_ps(unified)
    print(
        f"program {program.name!r}: {len(program.eligible_loops())} loops, "
        f"unified IPC {unified_ipc:.2f} at {unified_cycle:.0f} ps"
    )

    rows = []
    for n_clusters in (2, 4):
        for n_buses in (1, 2):
            for latency in (1, 2, 4):
                config = clustered_config(n_clusters, n_buses, latency)
                cycle = cycle_time_ps(config)
                for policy in (UnrollPolicy.NONE, UnrollPolicy.SELECTIVE):
                    ipc = ctx.program_ipc(program, config, "bsa", policy).ipc
                    speedup = (ipc / unified_ipc) * (unified_cycle / cycle)
                    rows.append(
                        {
                            "clusters": n_clusters,
                            "buses": n_buses,
                            "bus_latency": latency,
                            "policy": str(policy),
                            "ipc": ipc,
                            "rel_ipc": ipc / unified_ipc,
                            "cycle_ps": round(cycle),
                            "speedup": speedup,
                        }
                    )

    print()
    print(format_table(rows, title=f"design space for {program.name!r}"))
    best = max(rows, key=lambda r: r["speedup"])
    print(
        f"\nbest point: {best['clusters']} clusters, {best['buses']} bus(es), "
        f"latency {best['bus_latency']}, {best['policy']} -> "
        f"{best['speedup']:.2f}x over unified"
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "hydro2d")
