"""Cross-validation of the analytic cycle model against simulation.

The paper's results rest on ``NCYCLES = (NITER + SC - 1) * II`` with a
perfect memory; the simulator executes the same schedules for real.  This
module diffs the two: under a perfect memory every discrepancy is a bug
in one of the models, so :func:`crosscheck_schedule` is used as a hard
oracle by the test suite, the ``repro-vliw crossval`` experiment mode and
the cross-check benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.schedule import ModuloSchedule
from ..core.selective import ScheduledLoopResult
from ..ir.loop import Loop
from ..perf.model import loop_performance, pipeline_cycles
from .engine import simulate_result, simulate_schedule
from .memory import MemoryModel
from .report import SimReport


@dataclass(frozen=True)
class CrossCheck:
    """Analytic vs simulated cycles and IPC for one loop execution."""

    loop_name: str
    config_name: str
    analytic_cycles: int
    simulated_cycles: int
    analytic_ipc: float
    simulated_ipc: float
    #: The full simulator report, when the check ran in this process
    #: (``None`` when the numbers were replayed from the result cache).
    report: SimReport | None = None

    def to_dict(self) -> dict[str, int | float]:
        """The four numbers: a result payload's ``sim`` record."""
        return {
            "analytic_cycles": self.analytic_cycles,
            "simulated_cycles": self.simulated_cycles,
            "analytic_ipc": self.analytic_ipc,
            "simulated_ipc": self.simulated_ipc,
        }

    @property
    def cycle_divergence(self) -> int:
        return self.simulated_cycles - self.analytic_cycles

    @property
    def ipc_divergence(self) -> float:
        """Absolute analytic-vs-simulated IPC gap."""
        return abs(self.simulated_ipc - self.analytic_ipc)

    @property
    def exact(self) -> bool:
        """Do model and simulation agree to floating-point rounding?"""
        return self.cycle_divergence == 0 and math.isclose(
            self.simulated_ipc, self.analytic_ipc, rel_tol=1e-12, abs_tol=0.0
        )

    def render(self) -> str:
        return (
            f"crosscheck {self.loop_name!r} on {self.config_name!r}: "
            f"analytic {self.analytic_cycles} cycles / IPC "
            f"{self.analytic_ipc:.3f}, simulated {self.simulated_cycles} "
            f"cycles / IPC {self.simulated_ipc:.3f}"
            + ("" if self.cycle_divergence == 0 else
               f"  (divergence {self.cycle_divergence:+d} cycles)")
        )


def crosscheck_schedule(
    schedule: ModuloSchedule,
    niter: int,
    *,
    unroll_factor: int = 1,
    ops_per_source_iteration: int | None = None,
    memory: MemoryModel | None = None,
) -> CrossCheck:
    """Simulate *schedule* and diff it against the closed-form model.

    The analytic side always uses the perfect-memory formula; passing a
    *memory* model therefore measures how far dynamic stalls pull the
    machine away from the paper's idealisation.
    """
    report = simulate_schedule(
        schedule,
        niter,
        unroll_factor=unroll_factor,
        ops_per_source_iteration=ops_per_source_iteration,
        memory=memory,
    )
    analytic_cycles = pipeline_cycles(
        report.kernel_iterations, schedule.stage_count, schedule.ii
    )
    analytic_ipc = report.useful_ops / analytic_cycles
    return CrossCheck(
        loop_name=report.loop_name,
        config_name=report.config_name,
        analytic_cycles=analytic_cycles,
        simulated_cycles=report.cycles,
        analytic_ipc=analytic_ipc,
        simulated_ipc=report.ipc,
        report=report,
    )


def crosscheck_loop(
    loop: Loop,
    result: ScheduledLoopResult,
    *,
    memory: MemoryModel | None = None,
) -> CrossCheck:
    """Diff one scheduled :class:`Loop` (one loop entry) against the model.

    The analytic side comes from :func:`repro.perf.model.loop_performance`
    with a perfect memory; the simulated side executes ``loop.trip_count``
    source iterations under *memory*.
    """
    perf = loop_performance(loop, result)
    report = simulate_result(
        result,
        loop.trip_count,
        ops_per_source_iteration=loop.ops_per_iteration,
        memory=memory,
    )
    return CrossCheck(
        loop_name=loop.name,
        config_name=result.schedule.config.name,
        analytic_cycles=perf.cycles_per_entry,
        simulated_cycles=report.cycles,
        analytic_ipc=perf.ipc,
        simulated_ipc=report.ipc,
        report=report,
    )
