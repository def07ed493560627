"""Static code-size accounting (Section 6.4 / Figure 10).

The paper measures code size in *operations*: white bars count every slot
of every static VLIW instruction (useful operations plus NOPs), black bars
count useful operations only.  For a modulo-scheduled loop:

* static VLIW instructions = prologue + kernel + epilogue
  = ``(2*SC - 1) * II``;
* each instruction carries ``issue_width`` operation slots;
* each of the graph's operations appears once in the kernel and ``SC - 1``
  more times across the prologue/epilogue (stage *s* of the pipeline is
  present in ``SC - 1 - s`` prologue instructions groups and ``s`` epilogue
  groups), so useful operations = ``ops * SC``;
* everything else is NOP padding.

Program code size sums the eligible (modulo-scheduled) loops; Figure 10
normalises to the unified machine without unrolling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.cluster import MachineConfig
from ..arch.isa import slots_per_instruction
from ..core.schedule import ModuloSchedule


@dataclass(frozen=True)
class CodeSize:
    """Operation-slot accounting of one loop or one program."""

    useful_ops: int
    nop_ops: int

    @property
    def total_ops(self) -> int:
        return self.useful_ops + self.nop_ops

    def __add__(self, other: "CodeSize") -> "CodeSize":
        return CodeSize(
            self.useful_ops + other.useful_ops, self.nop_ops + other.nop_ops
        )

    def normalised_to(self, baseline: "CodeSize") -> tuple[float, float]:
        """(total ratio, useful ratio) against *baseline* (Figure 10 bars)."""
        return (
            self.total_ops / baseline.total_ops,
            self.useful_ops / baseline.useful_ops,
        )


ZERO_SIZE = CodeSize(0, 0)


def schedule_code_size(schedule: ModuloSchedule) -> CodeSize:
    """Static code size of one modulo-scheduled loop.

    The kernel is counted once, as the paper counts it: no modulo-variable-
    expansion copies.
    """
    config: MachineConfig = schedule.config
    ii = schedule.ii
    sc = schedule.stage_count
    slots = (2 * sc - 1) * ii * slots_per_instruction(config)
    useful = len(schedule.ops) * sc
    return CodeSize(useful_ops=useful, nop_ops=slots - useful)
