"""The paper's performance model (Section 4, Section 6.2).

For a modulo-scheduled loop::

    NCYCLES = (NITER + SC - 1) * II + t_stall

with ``t_stall = 0`` (the memory hierarchy is perfect, Section 6.1).  IPC
counts committed *useful* operations — one loop body's operations per
source iteration regardless of unrolling — over those cycles, "taking into
account the prologue, the kernel and the epilogue as well as the number of
iterations and the times each loop is executed".

With an unroll factor U, one kernel iteration retires U source iterations:
``NITER_kernel = ceil(NITER / U)`` (the final partial batch runs as a full
unrolled iteration — the standard peeled-remainder cost, at most one extra
II per loop entry).  This keeps the model honest for short trip counts,
where unrolling loses ground through deeper pipelines and remainder waste.

**Beyond the paper:** the optional :class:`StallModel` fills in the
``t_stall`` term the paper sets to zero ("memory hierarchy ... considered
perfect", Section 6.1) with the standard first-order estimate
``loads_executed * miss_rate * miss_penalty`` — the sensitivity study the
paper defers to its cache-sensitive-scheduling citation [20].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.selective import ScheduledLoopResult
from ..ir.loop import Loop, Program
from ..ir.operation import FuClass


@dataclass(frozen=True)
class StallModel:
    """First-order memory-stall estimate (extension; paper uses zero).

    ``t_stall = loads * miss_rate * miss_penalty`` — every load misses
    with probability *miss_rate* and stalls the lock-step machine for
    *miss_penalty* cycles (a stall in one cluster stalls all, Section 3).
    """

    miss_rate: float = 0.0
    miss_penalty: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError(f"miss_rate {self.miss_rate} not in [0, 1]")
        if self.miss_penalty < 0:
            raise ValueError(f"negative miss_penalty {self.miss_penalty}")

    def stall_cycles(self, loads_executed: int) -> int:
        return round(loads_executed * self.miss_rate * self.miss_penalty)


#: The paper's assumption: no stalls.
PERFECT_MEMORY = StallModel(0.0, 0)


def pipeline_cycles(kernel_iterations: int, stage_count: int, ii: int) -> int:
    """The paper's ``NCYCLES = (NITER + SC - 1) * II`` (perfect memory).

    Shared between the analytic model and the simulator cross-validation
    (:mod:`repro.sim.crosscheck`), so both sides diff against one formula.
    """
    return (kernel_iterations + stage_count - 1) * ii


@dataclass(frozen=True)
class LoopPerformance:
    """Cycles and committed operations of one loop over the whole run."""

    loop_name: str
    ii: int
    stage_count: int
    unroll_factor: int
    trip_count: int
    times_executed: int
    ops_per_iteration: int
    #: loads per source iteration (drives the optional stall model)
    loads_per_iteration: int = 0
    stall_model: StallModel = PERFECT_MEMORY

    @property
    def kernel_iterations(self) -> int:
        return math.ceil(self.trip_count / self.unroll_factor)

    @property
    def stall_cycles_per_entry(self) -> int:
        loads = self.loads_per_iteration * self.trip_count
        return self.stall_model.stall_cycles(loads)

    @property
    def cycles_per_entry(self) -> int:
        """NCYCLES for one entry of the loop (+ t_stall if modelled)."""
        pipeline = pipeline_cycles(self.kernel_iterations, self.stage_count, self.ii)
        return pipeline + self.stall_cycles_per_entry

    @property
    def total_cycles(self) -> int:
        return self.cycles_per_entry * self.times_executed

    @property
    def useful_operations(self) -> int:
        """Committed operations (source-iteration ops; unrolling neutral)."""
        return self.ops_per_iteration * self.trip_count * self.times_executed

    @property
    def ipc(self) -> float:
        return self.useful_operations / self.total_cycles if self.total_cycles else 0.0


def loop_performance(
    loop: Loop,
    result: ScheduledLoopResult,
    stall_model: StallModel = PERFECT_MEMORY,
) -> LoopPerformance:
    """Evaluate one scheduled loop under the paper's cycle model.

    ``result.schedule`` may be of the unrolled graph; operations per
    *source* iteration come from the original loop.
    """
    graph = loop.graph
    loads = graph.derived(
        "loads_per_iteration",
        lambda: sum(
            1
            for op in graph.operations()
            if op.fu_class is FuClass.MEM and op.writes_register
        ),
    )
    return LoopPerformance(
        loop_name=loop.name,
        ii=result.schedule.ii,
        stage_count=result.schedule.stage_count,
        unroll_factor=result.unroll_factor,
        trip_count=loop.trip_count,
        times_executed=loop.times_executed,
        ops_per_iteration=loop.ops_per_iteration,
        loads_per_iteration=loads,
        stall_model=stall_model,
    )


@dataclass(frozen=True)
class ProgramPerformance:
    """Aggregated IPC of a program's modulo-scheduled loops."""

    program_name: str
    loops: tuple[LoopPerformance, ...]

    @property
    def total_cycles(self) -> int:
        return sum(lp.total_cycles for lp in self.loops)

    @property
    def useful_operations(self) -> int:
        return sum(lp.useful_operations for lp in self.loops)

    @property
    def ipc(self) -> float:
        cycles = self.total_cycles
        return self.useful_operations / cycles if cycles else 0.0


def program_performance(
    program: Program,
    results: dict[str, ScheduledLoopResult],
    stall_model: StallModel = PERFECT_MEMORY,
) -> ProgramPerformance:
    """Aggregate over the program's eligible loops.

    *results* maps loop names to their scheduling outcome; every eligible
    loop must be present (a missing loop is a harness bug worth failing
    loudly on).
    """
    perfs = []
    for loop in program.eligible_loops():
        result = results[loop.name]
        perfs.append(loop_performance(loop, result, stall_model))
    return ProgramPerformance(program_name=program.name, loops=tuple(perfs))
