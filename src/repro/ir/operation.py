"""Operations of the loop intermediate representation.

The paper's machine has three functional-unit classes (integer, floating
point and memory, Section 3 / Table 1).  Each operation in a dependence
graph carries an opcode drawn from a small catalogue; the opcode determines
the functional-unit class that executes it and its result latency.

Latencies follow the values used by the SMS / ICTINEO line of work (the
scan of the paper's Table 1 is partially illegible; the exact numbers only
shift absolute IPC, not any of the comparisons).  They can be overridden
per-:class:`OpCatalog` for sensitivity studies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class FuClass(enum.Enum):
    """Functional-unit class an operation executes on.

    ``index`` is the class's dense position (0, 1, 2 in definition
    order).  Per-class tables are lists indexed by it: hashing an enum
    member is a Python-level call, reading an attribute is not.
    """

    INT = "int"
    FP = "fp"
    MEM = "mem"

    index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


for _position, _fu_class in enumerate(FuClass):
    _fu_class.index = _position
del _position, _fu_class


@dataclass(frozen=True)
class Opcode:
    """A machine operation kind.

    Attributes
    ----------
    name:
        Mnemonic, e.g. ``"fadd"``.
    fu_class:
        Functional-unit class that executes the operation.
    latency:
        Cycles from issue until the result may be consumed.  Operations are
        fully pipelined: a functional unit accepts a new operation every
        cycle regardless of latency.
    writes_register:
        Whether the operation produces a register value (stores and branches
        do not; their "result" cannot be communicated over a bus).
    """

    name: str
    fu_class: FuClass
    latency: int
    writes_register: bool = True

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"opcode {self.name!r}: latency must be >= 0")


def _default_opcodes() -> dict[str, Opcode]:
    ops = [
        # Integer
        Opcode("iadd", FuClass.INT, 1),
        Opcode("isub", FuClass.INT, 1),
        Opcode("imul", FuClass.INT, 2),
        Opcode("ilogic", FuClass.INT, 1),
        Opcode("ishift", FuClass.INT, 1),
        Opcode("icmp", FuClass.INT, 1),
        Opcode("iaddr", FuClass.INT, 1),  # address arithmetic
        # Floating point
        Opcode("fadd", FuClass.FP, 3),
        Opcode("fsub", FuClass.FP, 3),
        Opcode("fmul", FuClass.FP, 4),
        Opcode("fdiv", FuClass.FP, 17),
        Opcode("fsqrt", FuClass.FP, 17),
        Opcode("fneg", FuClass.FP, 1),
        Opcode("fcmp", FuClass.FP, 1),
        Opcode("fmac", FuClass.FP, 4),
        # Memory
        Opcode("load", FuClass.MEM, 2),
        Opcode("store", FuClass.MEM, 1, writes_register=False),
        # A generic 1-cycle op used by the paper's Figure 7 walk-through
        # ("two general-purpose functional units ... each instruction is
        # 1-cycle latency").
        Opcode("gen", FuClass.INT, 1),
    ]
    return {op.name: op for op in ops}


@dataclass
class OpCatalog:
    """The set of opcodes available to a workload.

    A catalog maps mnemonics to :class:`Opcode` records.  The default
    catalog covers the paper's three FU classes with conventional latencies;
    :meth:`with_latency` derives variants for sensitivity experiments.
    """

    opcodes: dict[str, Opcode] = field(default_factory=_default_opcodes)

    def __getitem__(self, name: str) -> Opcode:
        try:
            return self.opcodes[name]
        except KeyError:
            raise KeyError(
                f"unknown opcode {name!r}; known: {sorted(self.opcodes)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.opcodes

    def names(self) -> list[str]:
        """All mnemonics, sorted."""
        return sorted(self.opcodes)

    def by_class(self, fu_class: FuClass) -> list[Opcode]:
        """All opcodes executed by *fu_class*, sorted by name."""
        return sorted(
            (op for op in self.opcodes.values() if op.fu_class is fu_class),
            key=lambda op: op.name,
        )

    def with_latency(self, name: str, latency: int) -> "OpCatalog":
        """Return a new catalog with *name*'s latency replaced."""
        new = dict(self.opcodes)
        new[name] = replace(new[name], latency=latency)
        return OpCatalog(new)


#: Shared default catalog.  Treat as immutable.
DEFAULT_CATALOG = OpCatalog()


@dataclass(frozen=True)
class Operation:
    """A node of a dependence graph: one machine operation of the loop body.

    Attributes
    ----------
    node_id:
        Dense integer id, unique within its graph.
    opcode:
        The operation kind (determines FU class and latency).
    tag:
        Free-form label for readability of dumps (e.g. ``"a[i]"``).
    """

    node_id: int
    opcode: Opcode
    tag: str = ""

    @property
    def fu_class(self) -> FuClass:
        return self.opcode.fu_class

    @property
    def latency(self) -> int:
        return self.opcode.latency

    @property
    def writes_register(self) -> bool:
        return self.opcode.writes_register

    def __str__(self) -> str:
        label = f"n{self.node_id}:{self.opcode.name}"
        return f"{label}({self.tag})" if self.tag else label
