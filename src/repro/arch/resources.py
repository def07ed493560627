"""Low-level resource descriptions of the clustered VLIW machine."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..ir.operation import FuClass


@dataclass(frozen=True)
class FuSet:
    """How many functional units of each class a cluster owns."""

    int_units: int
    fp_units: int
    mem_units: int

    def __post_init__(self) -> None:
        for label, n in (
            ("int", self.int_units),
            ("fp", self.fp_units),
            ("mem", self.mem_units),
        ):
            if n < 0:
                raise ConfigError(f"negative {label} unit count: {n}")
        if self.total == 0:
            raise ConfigError("a cluster must own at least one functional unit")
        #: Units per class, in :attr:`FuClass.index` order (built once:
        #: verification and reservation tables ask per op).
        object.__setattr__(
            self, "counts", (self.int_units, self.fp_units, self.mem_units)
        )

    def count(self, fu_class: FuClass) -> int:
        return self.counts[fu_class.index]

    @property
    def total(self) -> int:
        return self.int_units + self.fp_units + self.mem_units

    def scaled(self, factor: int) -> "FuSet":
        """A set with every count multiplied by *factor*."""
        return FuSet(
            self.int_units * factor, self.fp_units * factor, self.mem_units * factor
        )

    def __str__(self) -> str:
        return f"{self.int_units}I/{self.fp_units}F/{self.mem_units}M"


@dataclass(frozen=True)
class BusSpec:
    """The shared inter-cluster communication fabric.

    ``count`` buses are shared by all clusters; a value transfer occupies
    one bus for ``latency`` consecutive cycles (Section 3: "when one
    particular cluster places a data on the bus, this bus will be busy
    during the entirety of the communication latency").
    """

    count: int
    latency: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigError(f"negative bus count: {self.count}")
        if self.count and self.latency < 1:
            raise ConfigError(f"bus latency must be >= 1, got {self.latency}")

    def __str__(self) -> str:
        if self.count == 0:
            return "no buses"
        return f"{self.count} bus(es), latency {self.latency}"
