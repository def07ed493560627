"""Result record of one simulated loop execution."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SimReport:
    """What one cycle-accurate run of a software-pipelined loop measured.

    ``ipc`` counts *useful* operations — operations of one source loop
    body per source iteration, unrolling-neutral — exactly like the
    analytic model, so the two are directly comparable.  ``issued_ops``
    is what the machine actually issued (a partially-filled last unrolled
    batch issues more than it usefully retires).
    """

    loop_name: str
    config_name: str
    ii: int
    stage_count: int
    unroll_factor: int
    niter: int
    kernel_iterations: int
    cycles: int
    stall_cycles: int
    issued_ops: int
    useful_ops: int
    loads_executed: int
    load_misses: int
    #: Busy cycles of each bus over the whole run.
    bus_busy_cycles: tuple[int, ...]
    #: Peak simultaneously-live register values observed per cluster.
    peak_live: tuple[int, ...]

    @property
    def ipc(self) -> float:
        """Useful operations per cycle (the analytic model's measure)."""
        return self.useful_ops / self.cycles if self.cycles else 0.0

    @property
    def bus_occupancy(self) -> tuple[float, ...]:
        """Fraction of cycles each bus spent transferring."""
        if not self.cycles:
            return tuple(0.0 for _ in self.bus_busy_cycles)
        return tuple(busy / self.cycles for busy in self.bus_busy_cycles)

    def render(self) -> str:
        """Human-readable summary (what the CLI prints)."""
        lines = [
            f"SimReport: {self.loop_name!r} on {self.config_name!r}",
            f"  II={self.ii}  SC={self.stage_count}  unroll={self.unroll_factor}"
            f"  niter={self.niter} ({self.kernel_iterations} kernel iterations)",
            f"  cycles            {self.cycles}"
            + (f"  (of which {self.stall_cycles} stalled)" if self.stall_cycles else ""),
            f"  useful ops        {self.useful_ops}  (issued {self.issued_ops})",
            f"  IPC               {self.ipc:.3f}",
        ]
        if self.loads_executed:
            lines.append(
                f"  loads             {self.loads_executed}"
                f"  ({self.load_misses} missed)"
            )
        for b, occ in enumerate(self.bus_occupancy):
            lines.append(
                f"  bus {b} occupancy   {occ:.3f}"
                f"  ({self.bus_busy_cycles[b]} busy cycles)"
            )
        live = "  ".join(
            f"c{c}={p}" for c, p in enumerate(self.peak_live)
        )
        lines.append(f"  peak live values  {live}")
        return "\n".join(lines)
