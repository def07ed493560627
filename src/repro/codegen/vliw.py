"""VLIW code generation from a modulo schedule.

Renders the kernel (II instructions) of the software-pipelined loop in the
instruction format of the paper's Figure 3, so a schedule can be eyeballed.
The prologue and the epilogue are not expanded: each takes ``(SC-1)*II``
instructions, and :mod:`repro.codegen.codesize` counts their slots in
closed form (Section 6.4).

Kernel construction: the operation scheduled at absolute cycle *t* appears
in kernel row ``t mod II`` on its (cluster, FU).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arch.cluster import MachineConfig
from ..arch.isa import VliwInstruction, empty_instruction
from ..core.schedule import ModuloSchedule
from ..ir.operation import FuClass


@dataclass
class KernelCode:
    """The software-pipelined loop body plus its ramp up/down sizes."""

    schedule: ModuloSchedule
    kernel: list[VliwInstruction] = field(default_factory=list)

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def stage_count(self) -> int:
        return self.schedule.stage_count

    @property
    def prologue_instructions(self) -> int:
        return (self.stage_count - 1) * self.ii

    @property
    def epilogue_instructions(self) -> int:
        return (self.stage_count - 1) * self.ii

    @property
    def total_instructions(self) -> int:
        """Static VLIW instructions: prologue + kernel + epilogue."""
        return self.prologue_instructions + self.ii + self.epilogue_instructions

    def render(self) -> str:
        lines = [
            f"kernel of {self.schedule.graph.name!r}: II={self.ii}, "
            f"SC={self.stage_count}, prologue/epilogue "
            f"{self.prologue_instructions}/{self.epilogue_instructions} instr"
        ]
        lines.extend(instr.render() for instr in self.kernel)
        return "\n".join(lines)


def _place_in_slot(
    instr: VliwInstruction,
    config: MachineConfig,
    cluster: int,
    fu_class: FuClass,
    fu_index: int,
    label: str,
    *,
    node: int | None = None,
    stage: int | None = None,
) -> None:
    """Fill one FU slot of *instr* (slots are laid out INT, FP, MEM)."""
    offset = 0
    for cls in (FuClass.INT, FuClass.FP, FuClass.MEM):
        if cls is fu_class:
            break
        offset += config.fu_count(cluster, cls)
    slot_idx = offset + fu_index
    slots = instr.clusters[cluster].slots
    old = slots[slot_idx]
    assert old.is_nop, f"slot collision at cluster {cluster} slot {slot_idx}"
    slots[slot_idx] = type(old)(
        old.fu_class, old.fu_index, label, node=node, stage=stage
    )


def generate_kernel(schedule: ModuloSchedule) -> KernelCode:
    """Build the II kernel instructions with bus fields filled in."""
    config = schedule.config
    ii = schedule.ii
    rows = [empty_instruction(config, r) for r in range(ii)]
    for node, placed in schedule.ops.items():
        op = schedule.graph.operation(node)
        stage = placed.cycle // ii
        label = f"{op.opcode.name}.{node}" + (f"s{stage}" if stage else "")
        _place_in_slot(
            rows[placed.cycle % ii], config, placed.cluster, op.fu_class,
            placed.fu_index, label, node=node, stage=stage,
        )
    # Bus control fields: an OUT on the producing cluster at the start row,
    # an IN (store into register file) on every reader at the arrival row.
    latbus = config.buses.latency
    for comm in schedule.comms:
        out_row = comm.start_cycle % ii
        out_cluster = rows[out_row].clusters[comm.src_cluster]
        out_cluster.bus = type(out_cluster.bus)(
            bus_index=comm.bus,
            out_source=f"n{comm.producer}",
            in_store=out_cluster.bus.in_store,
        )
        in_row = (comm.start_cycle + latbus) % ii
        for reader in comm.readers:
            in_cluster = rows[in_row].clusters[reader]
            in_cluster.bus = type(in_cluster.bus)(
                bus_index=in_cluster.bus.bus_index,
                out_source=in_cluster.bus.out_source,
                in_store=True,
            )
    return KernelCode(schedule=schedule, kernel=rows)


def render_schedule(schedule: ModuloSchedule) -> str:
    """Human-readable kernel listing (examples, debugging)."""
    return generate_kernel(schedule).render()
