#!/usr/bin/env python
"""Beyond the paper's tables: a non-homogeneous clustered machine.

Section 3 notes the proposed techniques "can easily be generalized for
non-homogeneous configurations".  This example builds a 2-cluster machine
with an FP-heavy cluster and an integer/memory cluster (in the spirit of
the TI C6000's asymmetric datapaths the paper cites), schedules mixed
kernels on it, and compares against the homogeneous split of the same
total resources.

Run:  python examples/heterogeneous_machine.py
"""

from repro import BsaScheduler, verify_schedule
from repro.arch import BusSpec, FuSet, MachineConfig, heterogeneous_config
from repro.perf import format_table, schedule_stats
from repro.workloads import workload


def machines():
    hetero = heterogeneous_config(
        "fp-island",
        cluster_fus=(FuSet(1, 3, 2), FuSet(3, 1, 2)),  # FP cluster + int cluster
        regs_per_cluster=32,
        buses=BusSpec(1, 1),
    )
    homo = MachineConfig(
        "balanced",
        n_clusters=2,
        fu_per_cluster=FuSet(2, 2, 2),
        regs_per_cluster=32,
        buses=BusSpec(1, 1),
    )
    return hetero, homo


def main():
    hetero, homo = machines()
    print(hetero.describe())
    print(homo.describe())
    print()

    rows = []
    for name in ("daxpy", "stencil5", "cmul", "gather", "fir4", "hydro"):
        graph = workload(name).factory()
        row = {"kernel": name, "ops": len(graph)}
        for config in (hetero, homo):
            sched = BsaScheduler(config).schedule(graph)
            verify_schedule(sched)
            stats = schedule_stats(sched)
            row[f"{config.name}_ii"] = sched.ii
            row[f"{config.name}_comms"] = stats.n_communications
        rows.append(row)

    print(format_table(rows, title="heterogeneous vs balanced 2-cluster (II / comms)"))
    print(
        "\nFP-heavy kernels keep their chains on the FP island; integer "
        "address work (gather) prefers the integer cluster — the profit "
        "rule of Figure 5 adapts without any change to the algorithm."
    )


if __name__ == "__main__":
    main()
