"""Linearised issue plan of a modulo schedule, for execution.

:func:`linearize` lowers a :class:`~repro.core.schedule.ModuloSchedule`
into the per-row issue records the cycle-accurate simulator
(:mod:`repro.sim`) executes.  Where :mod:`repro.codegen.vliw` renders the
*format* of the emitted code (Figure 3 fields, NOP slots, code size), this
module keeps the *semantics*: for every kernel row, which operations issue
there, what values they read (producer node and iteration distance), what
they produce, and which bus transfers start.

Dynamic execution follows the standard software-pipeline identity: the
instance of operation *v* (schedule cycle ``c = stage*II + row``) that
belongs to kernel iteration *i* issues in dynamic II-group ``g = i +
stage`` at row ``row`` — so prologue groups are ``g < SC-1``, kernel
executions ``SC-1 <= g < K`` and epilogue groups ``g >= K`` for a run of
*K* kernel iterations.  The simulator iterates groups and predicates each
record on ``0 <= g - stage < K``, which also handles trip counts too short
to fill the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.schedule import ModuloSchedule
from ..ir.operation import FuClass


@dataclass(frozen=True)
class OperandRead:
    """One value an operation consumes: its producer, *distance* iterations back."""

    producer: int
    distance: int


@dataclass(frozen=True)
class IssueRecord:
    """One operation's slot in the kernel, with everything execution needs."""

    node: int
    cluster: int
    fu_class: FuClass
    fu_index: int
    row: int
    stage: int
    latency: int
    opcode: str
    writes_register: bool
    is_load: bool
    reads: tuple[OperandRead, ...]


@dataclass(frozen=True)
class BusRecord:
    """One inter-cluster transfer: starts at (row, stage), runs latbus cycles."""

    producer: int
    src_cluster: int
    bus: int
    row: int
    stage: int
    readers: tuple[int, ...]


@dataclass(frozen=True)
class LinearCode:
    """The kernel as row-indexed issue/bus records (see module docstring)."""

    ii: int
    stage_count: int
    #: ``rows[r]`` — operations issuing at kernel row *r*.
    rows: tuple[tuple[IssueRecord, ...], ...]
    #: ``bus_rows[r]`` — transfers starting at kernel row *r*.
    bus_rows: tuple[tuple[BusRecord, ...], ...]


def linearize(schedule: ModuloSchedule) -> LinearCode:
    """Lower *schedule* into the issue plan the simulator executes."""
    graph = schedule.graph
    ii = schedule.ii
    rows: list[list[IssueRecord]] = [[] for _ in range(ii)]
    bus_rows: list[list[BusRecord]] = [[] for _ in range(ii)]

    for node, placed in schedule.ops.items():
        op = graph.operation(node)
        reads = tuple(
            OperandRead(dep.src, dep.distance)
            for dep in graph.flow_producers(node)
        )
        rows[placed.cycle % ii].append(
            IssueRecord(
                node=node,
                cluster=placed.cluster,
                fu_class=op.fu_class,
                fu_index=placed.fu_index,
                row=placed.cycle % ii,
                stage=placed.cycle // ii,
                latency=op.latency,
                opcode=op.opcode.name,
                writes_register=op.writes_register,
                is_load=op.fu_class is FuClass.MEM and op.writes_register,
                reads=reads,
            )
        )

    for comm in schedule.comms:
        bus_rows[comm.start_cycle % ii].append(
            BusRecord(
                producer=comm.producer,
                src_cluster=comm.src_cluster,
                bus=comm.bus,
                row=comm.start_cycle % ii,
                stage=comm.start_cycle // ii,
                readers=tuple(sorted(comm.readers)),
            )
        )

    return LinearCode(
        ii=ii,
        stage_count=schedule.stage_count,
        rows=tuple(tuple(r) for r in rows),
        bus_rows=tuple(tuple(r) for r in bus_rows),
    )
