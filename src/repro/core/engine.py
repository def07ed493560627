"""The placement engine shared by every modulo scheduler in the package.

For one (graph, machine, II) triple a :class:`PlacementEngine` keeps the
partial :class:`~repro.core.schedule.ModuloSchedule` plus the reservation
tables, and answers the central question of cluster-aware modulo
scheduling: *can node n be placed on cluster c, at which cycle, and with
which bus transfers?* (:meth:`find_placement`).  Committing a placement
atomically claims the functional unit and all planned bus slots.

Timing windows follow Swing Modulo Scheduling: a node with scheduled
predecessors only is scanned forward from its earliest feasible cycle; one
with scheduled successors only is scanned backward from its latest; one
with both is scanned inside the closed interval; an unconstrained node
starts at its resource-free ASAP.  Scans cover at most II consecutive
cycles — placements repeat modulo II, so a longer scan cannot succeed.

Cycles may be negative during construction (backward scans); completed
schedules are normalised by a multiple of II so all cycles are >= 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..arch.cluster import MachineConfig
from ..errors import SchedulingError
from ..ir.ddg import DependenceGraph
from .comm import AddReader, CommPlan, NewTransfer, empty_plan
from .mrt import ReservationTable
from .pressure import PressureTracker
from .schedule import Communication, FailureLog, ModuloSchedule, ScheduledOp
from .sms import compute_timings


class FailReason(enum.Enum):
    """Why a node could not be placed."""

    NO_FU = "no free functional unit"
    NO_BUS = "no bus slot for a required communication"
    REG_PRESSURE = "register requirements exceed the local file"
    WINDOW = "dependence window empty"


#: Failure reasons from least to most informative; a failed placement
#: search reports the highest rank it met (as an index, so the hot loop
#: compares integers instead of hashing enums).
_FAIL_RANKS = (
    FailReason.WINDOW,
    FailReason.NO_FU,
    FailReason.REG_PRESSURE,
    FailReason.NO_BUS,
)
_NO_FU, _REG_PRESSURE, _NO_BUS = 1, 2, 3


@dataclass
class Placement:
    """A feasible (node, cluster, cycle) choice plus its bus actions."""

    node: int
    cluster: int
    cycle: int
    comm_plan: CommPlan


class PlacementEngine:
    """Partial-schedule state and placement search for one II attempt."""

    def __init__(
        self,
        graph: DependenceGraph,
        config: MachineConfig,
        ii: int,
        mii: int,
    ):
        self.graph = graph
        self.config = config
        self.ii = ii
        self.schedule = ModuloSchedule(graph, config, ii, mii=mii)
        self.mrt = ReservationTable(config, ii)
        self.fail = FailureLog()
        self._timings = compute_timings(graph, ii)
        self._bus_latency = config.buses.latency
        self._pressure = PressureTracker(self.schedule)
        #: node -> (scheduled preds, scheduled succs), the dependence
        #: window inputs; entries are dropped for a committed node's
        #: neighbourhood (a commit is the only event that changes them).
        self._nbr_cache: dict[int, tuple[list, list]] = {}

    # ------------------------------------------------------------------
    # Dependence windows
    # ------------------------------------------------------------------
    def _scheduled_neighbors(self, node: int) -> tuple[list, list]:
        """Cached (scheduled predecessor deps, scheduled successor deps).

        The window and communication plans of a node only depend on its
        *scheduled* neighbours; the set changes exactly when a neighbour
        commits, which is when :meth:`commit` invalidates the entry.  The
        cache turns the per-cluster window/plan scans (one per cluster
        tried) into a single dependence walk per placement round.
        """
        entry = self._nbr_cache.get(node)
        if entry is None:
            sched = self.schedule
            preds = [
                d
                for d in self.graph.predecessors(node)
                if d.src != node and sched.is_scheduled(d.src)
            ]
            succs = [
                d
                for d in self.graph.successors(node)
                if d.dst != node and sched.is_scheduled(d.dst)
            ]
            entry = (preds, succs)
            self._nbr_cache[node] = entry
        return entry

    def window(self, node: int, cluster: int) -> tuple[int | None, int | None]:
        """(early, late) bounds from scheduled neighbours; None = unbounded.

        Cross-cluster flow edges account for the bus latency; the *early*
        bound is optimistic about bus availability (the scan verifies the
        actual slots).
        """
        sched = self.schedule
        early: int | None = None
        late: int | None = None
        preds, succs = self._scheduled_neighbors(node)
        for dep in preds:
            placed = sched.ops[dep.src]
            bound = placed.cycle + dep.latency - self.ii * dep.distance
            if dep.moves_value and placed.cluster != cluster:
                ready = placed.cycle + self.graph.operation(dep.src).latency
                arrival = ready + self._bus_latency  # a fresh transfer
                for c in sched.comms_for(dep.src):
                    a = c.start_cycle + self._bus_latency
                    if a < arrival:
                        arrival = a
                bound = max(bound, arrival - self.ii * dep.distance)
            early = bound if early is None else max(early, bound)
        for dep in succs:
            placed = sched.ops[dep.dst]
            bound = placed.cycle + self.ii * dep.distance - dep.latency
            if dep.moves_value and placed.cluster != cluster:
                bound = min(
                    bound,
                    placed.cycle
                    + self.ii * dep.distance
                    - self._bus_latency
                    - self.graph.operation(node).latency,
                )
            late = bound if late is None else min(late, bound)
        return early, late

    def _candidate_cycles(self, node: int, cluster: int) -> list[int]:
        """Cycles to try, nearest-to-the-schedule first.

        Loop-carried edges make the raw dependence bounds loose by
        multiples of II (a consumer may sit II*d cycles before its
        producer and still read the value on time).  Scanning from the raw
        bound would strand nodes far from the rest of the schedule and
        blow up lifetimes, so scans are clamped into the node's resource-
        free ASAP/ALAP band; since placements repeat modulo II, an II-long
        scan still covers every reservation-table row.
        """
        early, late = self.window(node, cluster)
        timing = self._timings[node]
        if early is not None and late is not None:
            if late < early:
                return []
            start = max(early, min(timing.asap, late))
            stop = min(late, start + self.ii - 1)
            candidates = list(range(start, stop + 1))
            # Keep the skipped [early, start) range as a fallback so the
            # clamp never converts a feasible window into a failure.
            if start > early and (stop - start + 1) < self.ii:
                tail = list(range(max(early, start - self.ii), start))
                candidates.extend(reversed(tail))
            return candidates
        if early is not None:
            start = max(early, timing.asap)
            return list(range(start, start + self.ii))
        if late is not None:
            start = min(late, timing.alap)
            return list(range(start, start - self.ii, -1))
        return list(range(timing.asap, timing.asap + self.ii))

    # ------------------------------------------------------------------
    # Communication planning
    # ------------------------------------------------------------------
    def _plan_transfer(
        self,
        producer: int,
        src_cluster: int,
        reader: int,
        ready: int,
        deadline: int,
        plan: CommPlan,
    ) -> bool:
        """Ensure *producer*'s value reaches *reader* by *deadline*.

        ``ready`` is the first cycle the value can be driven onto a bus;
        the arrival (start + latbus) must be <= deadline.  Prefers reusing
        an existing or already-planned transfer; otherwise claims a new bus
        slot, scanning at most II start cycles.  Returns False when no bus
        slot exists.
        """
        latbus = self._bus_latency
        # Reuse a committed transfer.
        for comm in self.schedule.comms_for(producer):
            if comm.arrival(latbus) <= deadline and comm.start_cycle >= ready:
                if reader in comm.readers or any(
                    a.existing is comm and a.reader == reader
                    for a in plan.added_readers
                ):
                    return True
                plan.added_readers.append(AddReader(existing=comm, reader=reader))
                return True
        # Reuse a transfer planned earlier in this same placement.
        for idx, t in enumerate(plan.new_transfers):
            if (
                t.producer == producer
                and t.start_cycle >= ready
                and t.start_cycle + latbus <= deadline
            ):
                if t.reader != reader:
                    plan.added_readers.append(
                        AddReader(existing=t.as_communication(), reader=reader)
                    )
                return True
        # A fresh transfer.
        last_start = deadline - latbus
        if last_start < ready:
            return False
        slot = self.mrt.first_free_bus(
            ready,
            min(last_start, ready + self.ii - 1),
            [(t.start_cycle, t.bus) for t in plan.new_transfers],
        )
        if slot is None:
            return False
        start, bus = slot
        plan.new_transfers.append(
            NewTransfer(
                producer=producer,
                src_cluster=src_cluster,
                bus=bus,
                start_cycle=start,
                reader=reader,
            )
        )
        return True

    def _plan_comms(self, node: int, cluster: int, cycle: int) -> CommPlan | None:
        """All bus actions needed to place *node* at (*cluster*, *cycle*)."""
        sched = self.schedule
        plan = empty_plan()
        preds, succs = self._scheduled_neighbors(node)
        for dep in preds:
            if not dep.moves_value:
                continue
            placed = sched.ops[dep.src]
            if placed.cluster == cluster:
                continue
            ready = placed.cycle + self.graph.operation(dep.src).latency
            deadline = cycle + self.ii * dep.distance
            if not self._plan_transfer(
                dep.src, placed.cluster, cluster, ready, deadline, plan
            ):
                return None
        for dep in succs:
            if not dep.moves_value:
                continue
            placed = sched.ops[dep.dst]
            if placed.cluster == cluster:
                continue
            ready = cycle + self.graph.operation(node).latency
            deadline = placed.cycle + self.ii * dep.distance
            if not self._plan_transfer(
                node, cluster, placed.cluster, ready, deadline, plan
            ):
                return None
        return plan

    # ------------------------------------------------------------------
    # Placement search
    # ------------------------------------------------------------------
    def find_placement(self, node: int, cluster: int) -> Placement | FailReason:
        """First feasible cycle for *node* on *cluster*, with its bus plan.

        On failure returns the dominant :class:`FailReason` (also recorded
        into the attempt's :class:`FailureLog`).
        """
        op = self.graph.operation(node)
        # Self-dependences only constrain II (lat <= II*dist); RecMII
        # guarantees them, but custom latencies may not — check explicitly.
        for dep in self.graph.predecessors(node):
            if dep.src == node and dep.latency > self.ii * dep.distance:
                self.fail.dependence_window += 1
                return FailReason.WINDOW

        candidates = self._candidate_cycles(node, cluster)
        if not candidates:
            self.fail.dependence_window += 1
            return FailReason.WINDOW

        worst = 0  # rank into _FAIL_RANKS
        grid = self.mrt.fu_grid(cluster, op.fu_class)
        masks, full, ii = grid.masks, grid.full, self.ii
        for cycle in candidates:
            if masks[cycle % ii] == full:  # no free functional unit
                self.fail.no_fu += 1
                if worst < _NO_FU:
                    worst = _NO_FU
                continue
            plan = self._plan_comms(node, cluster, cycle)
            if plan is None:
                self.fail.no_bus += 1
                worst = _NO_BUS
                continue
            if not self._pressure_ok(node, cluster, cycle, plan):
                self.fail.register_pressure += 1
                if worst < _REG_PRESSURE:
                    worst = _REG_PRESSURE
                continue
            return Placement(node=node, cluster=cluster, cycle=cycle, comm_plan=plan)
        return _FAIL_RANKS[worst]

    def _pressure_ok(
        self, node: int, cluster: int, cycle: int, plan: CommPlan
    ) -> bool:
        return self._pressure.placement_fits(node, cluster, cycle, plan)

    def placement_pressure(self, placement: Placement) -> int:
        """MaxLive of the placement's cluster if it were committed."""
        return self._pressure.placement_pressure(
            placement.node, placement.cluster, placement.cycle, placement.comm_plan
        )

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self, placement: Placement) -> None:
        """Claim the FU and all planned bus slots; record the placement."""
        op = self.graph.operation(placement.node)
        fu = self.mrt.occupy_fu(
            placement.cluster, op.fu_class, placement.cycle, placement.node
        )
        self.schedule.place(
            ScheduledOp(placement.node, placement.cycle, placement.cluster, fu)
        )
        for t in placement.comm_plan.new_transfers:
            self.mrt.occupy_bus(t.start_cycle, t.bus, (t.producer, t.start_cycle))
            self.schedule.add_comm(t.as_communication())
        for a in placement.comm_plan.added_readers:
            target = self._find_comm(a.existing)
            self.schedule.replace_comm(target, target.with_reader(a.reader))
        self._pressure.commit(
            placement.node, placement.cluster, placement.comm_plan
        )
        # The committed node is a newly *scheduled* neighbour of its
        # adjacency — exactly the entries whose cached window inputs
        # changed.  (Comms do not invalidate: windows read them live.)
        cache = self._nbr_cache
        cache.pop(placement.node, None)
        for other in self.graph.neighbors(placement.node):
            cache.pop(other, None)

    def _find_comm(self, like: Communication) -> Communication:
        for comm in self.schedule.comms_for(like.producer):
            if comm.bus == like.bus and comm.start_cycle == like.start_cycle:
                return comm
        raise SchedulingError(f"planned reuse of unknown communication {like}")

    # ------------------------------------------------------------------
    def finalize(self) -> ModuloSchedule:
        """Normalise cycles to be non-negative and fill statistics."""
        sched = self.schedule
        if not sched.is_complete:
            raise SchedulingError(
                f"finalize on incomplete schedule ({len(sched.ops)}/{len(self.graph)})"
            )
        min_cycle = min(op.cycle for op in sched.ops.values())
        for comm in sched.comms:
            min_cycle = min(min_cycle, comm.start_cycle)
        if min_cycle < 0:
            shift = ((-min_cycle) + self.ii - 1) // self.ii * self.ii
            sched.ops = {
                n: ScheduledOp(o.node, o.cycle + shift, o.cluster, o.fu_index)
                for n, o in sched.ops.items()
            }
            sched.comms = [
                Communication(
                    c.producer, c.src_cluster, c.bus, c.start_cycle + shift, c.readers
                )
                for c in sched.comms
            ]
            sched._rebuild_comm_index()
        sched.bus_utilisation = self.mrt.bus_utilisation()
        return sched
