"""The VLIW instruction format (Figure 3 of the paper).

One VLIW instruction is fetched per cycle and split into per-cluster
sub-instructions.  Each sub-instruction carries:

* one operation slot per functional unit of the cluster (``FUj`` fields),
* an ``IN BUS`` field: if the incoming-value register (IRV) holds a value
  this cycle, which local register to store it into (or none if the value
  is consumed directly through the multiplexers),
* an ``OUT BUS`` field: what to drive onto a bus, either the output of a
  functional unit or a local register (or nothing).

These classes are a *format* description used by code generation and the
code-size model; scheduling itself works on reservation tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.operation import FuClass
from .cluster import MachineConfig


@dataclass(frozen=True)
class FuSlot:
    """One operation slot of a sub-instruction (None = NOP).

    ``node`` and ``stage`` tie a filled slot back to the scheduled graph
    node and its pipeline stage, so consumers of emitted code (the
    simulator, tooling) need not parse ``op_label`` text.
    """

    fu_class: FuClass
    fu_index: int
    op_label: str | None = None  # None encodes a NOP
    node: int | None = None
    stage: int | None = None

    @property
    def is_nop(self) -> bool:
        return self.op_label is None

    def render(self) -> str:
        body = self.op_label if self.op_label is not None else "nop"
        return f"{self.fu_class.value}{self.fu_index}:{body}"


@dataclass(frozen=True)
class BusField:
    """IN BUS / OUT BUS control of one sub-instruction.

    ``out_source`` identifies what is driven onto the bus ("fu:<i>" or
    "reg"); ``in_store`` is True when the IRV value is written into the
    local register file this cycle.
    """

    bus_index: int | None = None
    out_source: str | None = None
    in_store: bool = False

    def render(self) -> str:
        parts = []
        if self.bus_index is not None and self.out_source is not None:
            parts.append(f"out[bus{self.bus_index}]={self.out_source}")
        if self.in_store:
            parts.append("in->reg")
        return " ".join(parts) if parts else "-"


@dataclass
class ClusterInstruction:
    """The sub-instruction executed by one cluster in one cycle."""

    cluster: int
    slots: list[FuSlot] = field(default_factory=list)
    bus: BusField = field(default_factory=BusField)

    @property
    def useful_ops(self) -> int:
        return sum(1 for s in self.slots if not s.is_nop)

    @property
    def nop_ops(self) -> int:
        return sum(1 for s in self.slots if s.is_nop)

    def render(self) -> str:
        inner = " | ".join(s.render() for s in self.slots)
        return f"c{self.cluster}[{inner} || {self.bus.render()}]"


@dataclass
class VliwInstruction:
    """One machine-wide VLIW instruction (one per cycle)."""

    cycle: int
    clusters: list[ClusterInstruction] = field(default_factory=list)

    @property
    def useful_ops(self) -> int:
        return sum(c.useful_ops for c in self.clusters)

    @property
    def nop_ops(self) -> int:
        return sum(c.nop_ops for c in self.clusters)

    @property
    def total_slots(self) -> int:
        return sum(len(c.slots) for c in self.clusters)

    def render(self) -> str:
        body = "  ".join(c.render() for c in self.clusters)
        return f"{self.cycle:4d}: {body}"


def empty_instruction(config: MachineConfig, cycle: int) -> VliwInstruction:
    """A VLIW instruction with every slot set to NOP."""
    clusters = []
    for c in config.clusters():
        slots = []
        for fu_class in (FuClass.INT, FuClass.FP, FuClass.MEM):
            for i in range(config.fu_count(c, fu_class)):
                slots.append(FuSlot(fu_class, i))
        clusters.append(ClusterInstruction(cluster=c, slots=slots))
    return VliwInstruction(cycle=cycle, clusters=clusters)


def slots_per_instruction(config: MachineConfig) -> int:
    """Operation slots in one VLIW instruction (FU slots, machine-wide).

    Bus control fields are not operation slots; Section 6.4 counts code
    size in operations (useful + NOP), which is what this feeds.
    """
    return config.issue_width
