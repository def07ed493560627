#!/usr/bin/env python
"""Code-size study: what unrolling costs in instruction memory.

The embedded-systems angle of Section 6.4: for each unrolling policy on
the 4-cluster machine, measure static code size (useful operations and
NOP padding) across a program, and show where selective unrolling saves
memory relative to unrolling everything.

Run:  python examples/codesize_study.py [program]
"""

import sys

from repro import UnrollPolicy, clustered_config
from repro.codegen import schedule_code_size
from repro.experiments import ExperimentContext, suite_grid
from repro.perf import format_table
from repro.workloads import resolve_workload


def main(program_name: str = "applu"):
    _, build = resolve_workload(program_name, kind="program")
    program = build()
    ctx = ExperimentContext(suite=[program])
    config = clustered_config(4, 1, 1)

    rows = []
    unrolled_loops = {}
    for policy in (UnrollPolicy.NONE, UnrollPolicy.ALL, UnrollPolicy.SELECTIVE):
        useful = nops = 0
        names = []
        # One scenario point per loop of the program, resolved as one grid.
        grid = suite_grid([program], config, "bsa", policy)
        for (_point, loop), result in zip(grid, ctx.results(grid)):
            size = schedule_code_size(result.schedule)
            useful += size.useful_ops
            nops += size.nop_ops
            if result.unroll_factor > 1:
                names.append(loop.name)
        unrolled_loops[policy] = names
        rows.append(
            {
                "policy": str(policy),
                "useful_ops": useful,
                "nop_ops": nops,
                "total_ops": useful + nops,
            }
        )

    print(format_table(rows, title=f"static code size of {program.name!r} (4c/1bus)"))
    base = rows[0]["total_ops"]
    for row in rows:
        print(f"  {row['policy']:22s} {row['total_ops'] / base:5.2f}x of no-unrolling")
    print(
        f"\nselective unrolling expanded "
        f"{len(unrolled_loops[UnrollPolicy.SELECTIVE])}/"
        f"{len(program.eligible_loops())} loops: "
        f"{', '.join(unrolled_loops[UnrollPolicy.SELECTIVE]) or '(none)'}"
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "applu")
