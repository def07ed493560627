"""The paper's evaluated configurations (Table 1, Section 6.1).

Three machines share a total of 12 functional units (4 integer, 4 floating
point, 4 memory) and 64 registers:

* ``unified``  — 1 cluster x (4I/4F/4M FUs, 64 registers), no buses;
* ``2-cluster`` — 2 clusters x (2I/2F/2M FUs, 32 registers);
* ``4-cluster`` — 4 clusters x (1I/1F/1M FUs, 16 registers).

Clustered configurations are evaluated with 1 or 2 buses and bus latencies
of 1, 2 or 4 cycles (Section 6.2); Figure 4 additionally sweeps wider bus
counts.
"""

from __future__ import annotations

from .cluster import MachineConfig
from .resources import BusSpec, FuSet

#: Bus counts shown in the IPC figures (Figure 8).
PAPER_BUS_COUNTS = (1, 2)
#: Bus latencies shown in the IPC figures (Figure 8).
PAPER_BUS_LATENCIES = (1, 2, 4)
#: Cluster counts :func:`clustered_config` builds (1 is the unified machine).
CLUSTER_COUNTS = (1, 2, 4)


def unified_config() -> MachineConfig:
    """The paper's baseline: one cluster with all resources."""
    return MachineConfig(
        name="unified",
        n_clusters=1,
        fu_per_cluster=FuSet(4, 4, 4),
        regs_per_cluster=64,
        buses=BusSpec(0, 1),
    )


def two_cluster_config(n_buses: int = 1, bus_latency: int = 1) -> MachineConfig:
    """2 clusters x 2I/2F/2M FUs, 32 registers each."""
    return MachineConfig(
        name="2-cluster",
        n_clusters=2,
        fu_per_cluster=FuSet(2, 2, 2),
        regs_per_cluster=32,
        buses=BusSpec(n_buses, bus_latency),
    )


def four_cluster_config(n_buses: int = 1, bus_latency: int = 1) -> MachineConfig:
    """4 clusters x 1I/1F/1M FUs, 16 registers each."""
    return MachineConfig(
        name="4-cluster",
        n_clusters=4,
        fu_per_cluster=FuSet(1, 1, 1),
        regs_per_cluster=16,
        buses=BusSpec(n_buses, bus_latency),
    )


def clustered_config(
    n_clusters: int, n_buses: int = 1, bus_latency: int = 1
) -> MachineConfig:
    """The paper's machine with *n_clusters* clusters (one of
    :data:`CLUSTER_COUNTS`; the fabric is ignored for the unified one)."""
    if n_clusters not in CLUSTER_COUNTS:
        raise ValueError(
            f"paper configurations have 1, 2 or 4 clusters, not {n_clusters}"
        )
    if n_clusters == 1:
        return unified_config()
    if n_clusters == 2:
        return two_cluster_config(n_buses, bus_latency)
    return four_cluster_config(n_buses, bus_latency)


def paper_configs() -> dict[str, MachineConfig]:
    """All Table 1 machines at their default (1 bus, latency 1) fabric."""
    return {
        "unified": unified_config(),
        "2-cluster": two_cluster_config(),
        "4-cluster": four_cluster_config(),
    }


def table1_rows() -> list[dict]:
    """Table 1 as data: one row per configuration."""
    rows = []
    for cfg in paper_configs().values():
        rows.append(
            {
                "config": cfg.name,
                "clusters": cfg.n_clusters,
                "int_fus_per_cluster": cfg.fu_per_cluster.int_units,
                "fp_fus_per_cluster": cfg.fu_per_cluster.fp_units,
                "mem_fus_per_cluster": cfg.fu_per_cluster.mem_units,
                "regs_per_cluster": cfg.regs_per_cluster,
                "total_issue_width": cfg.issue_width,
                "total_registers": cfg.total_registers,
            }
        )
    return rows
