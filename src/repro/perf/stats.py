"""Schedule statistics: lifetimes, utilisation, communication profile.

SMS is a *lifetime-sensitive* scheduler; these statistics expose the
quantities it optimises so schedules can be compared beyond their II:
value lifetimes (mean/max), per-cluster register pressure, functional-unit
and bus utilisation, and the communication profile (transfers, broadcast
fan-out, reuse).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.lifetimes import _intervals, cluster_pressures
from ..core.mrt import ReservationTable
from ..core.schedule import ModuloSchedule
from ..ir.operation import FuClass


@dataclass(frozen=True)
class ScheduleStats:
    """Summary statistics of one modulo schedule."""

    ii: int
    stage_count: int
    n_operations: int
    n_communications: int
    total_bus_readers: int
    mean_lifetime: float
    max_lifetime: int
    pressure_per_cluster: dict[int, int]
    fu_utilisation: float
    bus_utilisation: float

    @property
    def max_pressure(self) -> int:
        return max(self.pressure_per_cluster.values(), default=0)

    @property
    def broadcast_fanout(self) -> float:
        """Mean reading clusters per transfer (1.0 = pure unicast)."""
        if self.n_communications == 0:
            return 0.0
        return self.total_bus_readers / self.n_communications

    def describe(self) -> str:
        lines = [
            f"II={self.ii} SC={self.stage_count} ops={self.n_operations}",
            f"lifetimes: mean={self.mean_lifetime:.1f} max={self.max_lifetime}",
            f"pressure: {self.pressure_per_cluster} (max {self.max_pressure})",
            f"utilisation: FU {self.fu_utilisation:.0%}, bus {self.bus_utilisation:.0%}",
            f"communications: {self.n_communications} "
            f"(fan-out {self.broadcast_fanout:.2f})",
        ]
        return "\n".join(lines)


def _rebuild_mrt(schedule: ModuloSchedule) -> ReservationTable:
    """Reservation tables reconstructed from a finished schedule."""
    mrt = ReservationTable(schedule.config, schedule.ii)
    for node, placed in schedule.ops.items():
        op = schedule.graph.operation(node)
        grid = mrt.fu_grid(placed.cluster, op.fu_class)
        grid.occupy(placed.cycle % schedule.ii, placed.fu_index, node)
    for comm in schedule.comms:
        mrt.occupy_bus(comm.start_cycle, comm.bus, (comm.producer, comm.start_cycle))
    return mrt


def schedule_stats(schedule: ModuloSchedule) -> ScheduleStats:
    """Compute all statistics for *schedule*."""
    intervals = _intervals(schedule)
    lengths = [end - start for _, start, end in intervals]
    mrt = _rebuild_mrt(schedule)
    return ScheduleStats(
        ii=schedule.ii,
        stage_count=schedule.stage_count,
        n_operations=len(schedule.ops),
        n_communications=len(schedule.comms),
        total_bus_readers=sum(len(c.readers) for c in schedule.comms),
        mean_lifetime=(sum(lengths) / len(lengths)) if lengths else 0.0,
        max_lifetime=max(lengths, default=0),
        pressure_per_cluster=cluster_pressures(schedule),
        fu_utilisation=mrt.fu_utilisation(),
        bus_utilisation=mrt.bus_utilisation(),
    )


def render_reservation_table(schedule: ModuloSchedule) -> str:
    """ASCII view of the modulo reservation tables (rows = II)."""
    mrt = _rebuild_mrt(schedule)
    config = schedule.config
    header = ["row"]
    for cluster in config.clusters():
        for fu_class in (FuClass.INT, FuClass.FP, FuClass.MEM):
            for unit in range(config.fu_count(cluster, fu_class)):
                header.append(f"c{cluster}.{fu_class.value}{unit}")
    for bus in range(config.buses.count):
        header.append(f"bus{bus}")

    rows = []
    for row in range(schedule.ii):
        cells = [f"{row:3d}"]
        for cluster in config.clusters():
            for fu_class in (FuClass.INT, FuClass.FP, FuClass.MEM):
                for unit in range(config.fu_count(cluster, fu_class)):
                    owner = mrt.fu_owner(cluster, fu_class, row, unit)
                    cells.append("." if owner is None else f"n{owner}")
        for bus in range(config.buses.count):
            owner = mrt.bus_owner(row, bus)
            cells.append("." if owner is None else f"n{owner[0]}")
        rows.append(cells)

    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for cells in rows:
        out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)))
    return "\n".join(out)
