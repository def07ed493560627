"""Communication plans: the bus actions a tentative placement would take.

When a node is placed on a cluster, every already-scheduled flow
predecessor in a *different* cluster must deliver its value over a bus, and
every already-scheduled flow successor in a different cluster must receive
this node's value.  A :class:`CommPlan` captures the required bus actions
so they can be evaluated (register pressure, bus occupancy) before being
committed atomically:

* :class:`NewTransfer` — claim a bus for ``latbus`` cycles from
  ``start_cycle`` to carry ``producer``'s value to ``readers``;
* :class:`AddReader` — an existing transfer already carries the value early
  enough; the new cluster simply snoops it from the bus (Section 3: the
  write and *the clusters that read* are encoded in the VLIW word).
"""

from __future__ import annotations

from dataclasses import dataclass

from .schedule import Communication


@dataclass(frozen=True)
class NewTransfer:
    """A bus transfer to be created."""

    producer: int
    src_cluster: int
    bus: int
    start_cycle: int
    reader: int

    def as_communication(self) -> Communication:
        return Communication(
            producer=self.producer,
            src_cluster=self.src_cluster,
            bus=self.bus,
            start_cycle=self.start_cycle,
            readers=frozenset({self.reader}),
        )


@dataclass(frozen=True)
class AddReader:
    """A reading cluster added to an existing transfer."""

    existing: Communication
    reader: int


@dataclass
class CommPlan:
    """All bus actions of one tentative placement."""

    new_transfers: list[NewTransfer]
    added_readers: list[AddReader]


def empty_plan() -> CommPlan:
    return CommPlan(new_transfers=[], added_readers=[])
