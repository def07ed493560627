"""Modulo schedule representation.

A :class:`ModuloSchedule` records, for one dependence graph on one machine
configuration:

* the initiation interval II;
* for every operation: its absolute cycle (stage = cycle // II), cluster
  and functional-unit index;
* every inter-cluster communication: producer node, source cluster, bus,
  absolute start cycle and the set of reading clusters.

Timing conventions (shared with the verifier and all schedulers):

* an operation scheduled at cycle ``s`` reads its inputs at ``s`` and its
  result is ready at ``s + latency``;
* a same-cluster dependence (u -> v, lat, d) requires
  ``s(v) + II*d >= s(u) + lat``;
* a cross-cluster flow dependence requires a communication ``c`` of u's
  value with ``start(c) >= s(u) + lat(u)`` and
  ``s(v) + II*d >= start(c) + latbus``, with v's cluster among the readers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from ..arch.cluster import MachineConfig
from ..errors import SchedulingError
from ..ir.ddg import DependenceGraph


class ScheduledOp(NamedTuple):
    """Placement of one operation.

    A tuple: ``list(op)`` is its serialised row and
    ``ScheduledOp._make(row)`` rebuilds it; use ``op._replace(...)`` for
    a moved copy.
    """

    node: int
    cycle: int
    cluster: int
    fu_index: int

    def stage(self, ii: int) -> int:
        return self.cycle // ii

    def row(self, ii: int) -> int:
        return self.cycle % ii


@dataclass(frozen=True)
class Communication:
    """One bus transfer of a produced value.

    The transfer occupies ``bus`` from ``start_cycle`` for the bus latency;
    any cluster in ``readers`` consumes the value at
    ``start_cycle + latbus`` or later (the incoming-value register plus the
    local register file hold it from then on).
    """

    producer: int
    src_cluster: int
    bus: int
    start_cycle: int
    readers: frozenset[int] = frozenset()

    def arrival(self, bus_latency: int) -> int:
        return self.start_cycle + bus_latency

    def with_reader(self, cluster: int) -> "Communication":
        return replace(self, readers=self.readers | {cluster})


@dataclass
class FailureLog:
    """Why placements failed, per II attempt (drives LimitedByBus).

    Each field counts the failed probes of one class among the probes
    the attempt made.  BSA probes clusters lazily, so its counts may be
    a subset of those trying every cluster would give (see
    :attr:`repro.core.base.SchedulerBase.lazy_log`).
    """

    no_fu: int = 0
    no_bus: int = 0
    register_pressure: int = 0
    dependence_window: int = 0

    @property
    def total(self) -> int:
        return self.no_fu + self.no_bus + self.register_pressure + self.dependence_window


class ModuloSchedule:
    """A complete modulo schedule (see module docstring for conventions)."""

    def __init__(
        self,
        graph: DependenceGraph,
        config: MachineConfig,
        ii: int,
        *,
        mii: int | None = None,
    ):
        self.graph = graph
        self.config = config
        self.ii = ii
        #: The MII the scheduler started from (for bus-limited detection).
        self.mii = mii if mii is not None else ii
        self.ops: dict[int, ScheduledOp] = {}
        self.comms: list[Communication] = []
        #: By-producer view of ``comms`` (placement engines query a
        #: producer's transfers in their inner loops; keep in sync via
        #: add_comm / replace_comm / _rebuild_comm_index).
        self._comms_by_producer: dict[int, list[Communication]] = {}
        #: Failure log of the II attempts before this one succeeded: one
        #: :class:`FailureLog` per attempt, of the probes it made.
        self.attempt_failures: list[FailureLog] = []
        #: Bus rows occupied / total (filled by the scheduler).
        self.bus_utilisation: float = 0.0

    # ------------------------------------------------------------------
    def place(self, op: ScheduledOp) -> None:
        if op.node in self.ops:
            raise SchedulingError(f"node {op.node} scheduled twice")
        self.ops[op.node] = op

    def cluster_of(self, node: int) -> int:
        return self.ops[node].cluster

    def cycle_of(self, node: int) -> int:
        return self.ops[node].cycle

    def is_scheduled(self, node: int) -> bool:
        return node in self.ops

    def nodes_in_cluster(self, cluster: int) -> list[int]:
        return [n for n, op in self.ops.items() if op.cluster == cluster]

    # ------------------------------------------------------------------
    def comms_for(self, producer: int) -> list[Communication]:
        return self._comms_by_producer.get(producer, [])

    def add_comm(self, comm: Communication) -> None:
        self.comms.append(comm)
        self._comms_by_producer.setdefault(comm.producer, []).append(comm)

    def replace_comm(self, old: Communication, new: Communication) -> None:
        idx = self.comms.index(old)
        self.comms[idx] = new
        per = self._comms_by_producer[old.producer]
        per[per.index(old)] = new

    def _rebuild_comm_index(self) -> None:
        """Re-derive the by-producer view after a bulk ``comms`` rewrite."""
        self._comms_by_producer = {}
        for comm in self.comms:
            self._comms_by_producer.setdefault(comm.producer, []).append(comm)

    # ------------------------------------------------------------------
    @property
    def is_complete(self) -> bool:
        return len(self.ops) == len(self.graph)

    @property
    def schedule_length(self) -> int:
        """Last cycle with activity, +1 (communications included)."""
        last = 0
        for op in self.ops.values():
            last = max(last, op.cycle + 1)
        lat = self.config.buses.latency
        for c in self.comms:
            last = max(last, c.start_cycle + lat)
        return last

    @property
    def stage_count(self) -> int:
        """SC: number of overlapped iterations (prologue/epilogue depth).

        ``floor(max cycle / II) + 1`` over operations; communications are
        machine actions tied to the producing stage and do not add stages
        beyond their own cycle.
        """
        if not self.ops:
            return 1
        last = max(op.cycle for op in self.ops.values())
        lat = self.config.buses.latency
        for c in self.comms:
            last = max(last, c.start_cycle + lat - 1)
        return last // self.ii + 1

    @property
    def communication_count(self) -> int:
        return len(self.comms)

    @property
    def was_bus_limited(self) -> bool:
        """Paper's ``LimitedByBus``: did communications force II above MII?

        True when II exceeded MII and bus-slot failures contributed to the
        failed attempts, or the final schedule saturates the buses.  Note
        the scheduler may *avoid* buses entirely by under-using clusters —
        that still counts: the failed attempts that tried to spread across
        clusters show the communication bottleneck.  The Figure 6
        bandwidth estimate remains the actual gate for unrolling.
        """
        if not self.config.is_clustered or self.ii <= self.mii:
            return False
        if any(log.no_bus > 0 for log in self.attempt_failures):
            return True
        return self.bus_utilisation >= 0.999

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"ModuloSchedule of {self.graph.name!r} on {self.config.name!r}: "
            f"II={self.ii} (MII={self.mii}), SC={self.stage_count}, "
            f"{len(self.comms)} communication(s)"
        ]
        for node in sorted(self.ops):
            op = self.ops[node]
            lines.append(
                f"  {self.graph.operation(node)} -> cycle {op.cycle} "
                f"(row {op.row(self.ii)}, stage {op.stage(self.ii)}), "
                f"cluster {op.cluster}, unit {op.fu_index}"
            )
        for c in self.comms:
            lines.append(
                f"  comm: node {c.producer} cluster {c.src_cluster} -> "
                f"{sorted(c.readers)} via bus {c.bus} @ cycle {c.start_cycle}"
            )
        return "\n".join(lines)
