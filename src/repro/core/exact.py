"""Exact modulo scheduling: an optimality oracle for the heuristics.

The heuristic schedulers (:mod:`repro.core.bsa`, :mod:`repro.core.twophase`,
:mod:`repro.core.unified`) are evaluated throughout the paper without ever
knowing how far they sit from optimal.  This module provides the missing
reference point: a complete branch-and-bound search over the same model —
dependences with ``s(v) + II*d >= s(u) + lat``, modulo reservation tables
for typed functional units, shared buses occupying ``latbus`` consecutive
rows, per-cluster register files — that proves per-II feasibility.  The II
search starts at MII and stops at the first feasible II, which is therefore
optimal; a second pass then binary-searches the register budget at that II
to minimise MaxLive.

Search-space conventions (the standard modulo-scheduling window argument,
Eichenberger & Davidson's optimal formulation): the first node is anchored
at cycle 0 (whole-schedule translation symmetry), later unconstrained nodes
range over one full II of rows, and one-sided dependence windows are II
cycles wide — the same canonical windows every heuristic in this package
scans, so the oracle's search space is a superset of theirs and
``exact.II <= heuristic.II`` holds by construction.  Communication starts
are likewise enumerated over the II-wide canonical window after the value
is produced; a single bus transfer may broadcast to several reader
clusters, exactly as the placement engine's ``AddReader`` reuse does.

There is one search, the stdlib depth-first branch and bound of
:class:`_BnbSearch`, and nothing selects another: a search that finishes
inside its budget gives the same schedule for the same graph and machine
on any host.

Exhaustive search is exponential, so the scheduler guards itself: graphs
above ``max_nodes`` operations and searches above ``time_budget_s``
wall-clock seconds raise :class:`~repro.errors.ExactTimeout` — fail fast
with a clear message instead of hanging a runner worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..arch.cluster import MachineConfig
from ..errors import ExactTimeout, SchedulingError
from ..ir.ddg import DependenceGraph
from ..ir.operation import FuClass
from .base import SchedulerBase, default_ii_budget
from .lifetimes import cluster_pressures, max_pressure
from .mii import mii as compute_mii
from .mrt import ReservationTable
from .schedule import Communication, FailureLog, ModuloSchedule, ScheduledOp
from .sms import sms_order
from .verify import verify_schedule

#: Node-count guard: catalogue kernels stay below this, random soups above
#: it would take the search exponential territory.
DEFAULT_MAX_NODES = 24
#: Wall-clock guard per :meth:`ExactScheduler.schedule` call.
DEFAULT_TIME_BUDGET_S = 10.0

_NEG = -(1 << 30)
_POS = 1 << 30


@dataclass(frozen=True)
class _Solution:
    """One feasible assignment, machine-independent of MRT bookkeeping."""

    ii: int
    ops: tuple[tuple[int, int, int], ...]  # (node, cycle, cluster)
    comms: tuple[Communication, ...]


@dataclass
class _Pending:
    """A new bus transfer chosen while planning one placement."""

    producer: int
    src_cluster: int
    bus: int
    start: int
    readers: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class _Requirement:
    """One cross-cluster value delivery a candidate placement needs."""

    producer: int
    src_cluster: int
    reader: int
    ready: int  # earliest transfer start (value produced)
    consume: int  # latest useful arrival (reader's consumption cycle)


class ExactScheduler(SchedulerBase):
    """Optimal modulo scheduler (branch and bound).

    Finds the minimum feasible II for the graph on this machine, then
    minimises MaxLive at that II (binary search over the register budget,
    best-effort within the remaining time budget).  The produced
    :class:`~repro.core.schedule.ModuloSchedule` is interchangeable with a
    heuristic scheduler's output — verified, simulatable, cacheable.
    """

    name = "exact"

    def __init__(
        self,
        config: MachineConfig,
        *,
        max_nodes: int = DEFAULT_MAX_NODES,
        time_budget_s: float = DEFAULT_TIME_BUDGET_S,
    ):
        super().__init__(config)
        self.max_nodes = max_nodes
        self.time_budget_s = time_budget_s

    # ------------------------------------------------------------------
    def _place_all(self, engine) -> bool:  # pragma: no cover - interface stub
        raise NotImplementedError("ExactScheduler overrides schedule() directly")

    def schedule(self, graph: DependenceGraph) -> ModuloSchedule:
        graph.validate()
        if len(graph) == 0:
            raise SchedulingError(f"graph {graph.name!r} has no operations")
        if len(graph) > self.max_nodes:
            raise ExactTimeout(
                f"exact: {graph.name!r} has {len(graph)} operations, above the "
                f"exact-search limit of {self.max_nodes}; raise max_nodes or "
                "use a heuristic scheduler for graphs this size"
            )
        start_ii = compute_mii(graph, self.config)
        budget = start_ii + default_ii_budget(graph, self.config)
        deadline = time.monotonic() + self.time_budget_s
        failures: list[FailureLog] = []
        solution: _Solution | None = None
        for ii in range(start_ii, budget + 1):
            solution = self._solve(graph, ii, self.config.regs_per_cluster, deadline)
            if solution is not None:
                break
            failures.append(FailureLog())
        if solution is None:
            raise SchedulingError(
                f"exact: no schedule for {graph.name!r} on {self.config.name!r} "
                f"within II <= {budget}",
                ii_tried=budget,
            )
        solution = self._refine_pressure(graph, solution, deadline)
        sched = self._materialize(graph, solution, start_ii)
        sched.attempt_failures = failures
        verify_schedule(sched)
        return sched

    # ------------------------------------------------------------------
    def _solve(
        self,
        graph: DependenceGraph,
        ii: int,
        reg_limit: int,
        deadline: float,
    ) -> _Solution | None:
        """A feasible assignment at *ii* under *reg_limit*, or ``None``."""
        return _BnbSearch(
            graph, self.config, ii, reg_limit, deadline, self.time_budget_s
        ).run()

    def _refine_pressure(
        self, graph: DependenceGraph, best: _Solution, deadline: float
    ) -> _Solution:
        """Minimise MaxLive at the optimal II (best-effort within budget)."""
        best_p = max_pressure(self._materialize(graph, best, best.ii))
        lo, hi = 1, best_p - 1
        try:
            while lo <= hi:
                mid = (lo + hi) // 2
                sol = self._solve(graph, best.ii, mid, deadline)
                if sol is None:
                    lo = mid + 1
                else:
                    best = sol
                    best_p = max_pressure(self._materialize(graph, sol, sol.ii))
                    hi = best_p - 1
        except ExactTimeout:
            pass  # a feasible optimal-II schedule is already in hand
        return best

    def _materialize(
        self, graph: DependenceGraph, sol: _Solution, start_ii: int
    ) -> ModuloSchedule:
        """Turn a raw assignment into a normalised, finalised schedule."""
        ii = sol.ii
        min_cycle = min(cycle for _, cycle, _ in sol.ops)
        shift = -(min_cycle // ii) * ii  # multiple of II; min lands in [0, II)
        sched = ModuloSchedule(graph, self.config, ii, mii=start_ii)
        mrt = ReservationTable(self.config, ii)
        for node, cycle, cluster in sorted(sol.ops):
            op = graph.operation(node)
            unit = mrt.occupy_fu(cluster, op.fu_class, cycle + shift, node)
            sched.place(ScheduledOp(node, cycle + shift, cluster, unit))
        for comm in sorted(
            sol.comms, key=lambda c: (c.start_cycle, c.bus, c.producer)
        ):
            moved = replace(comm, start_cycle=comm.start_cycle + shift)
            mrt.occupy_bus(moved.start_cycle, moved.bus, (moved.producer, moved.bus))
            sched.add_comm(moved)
        sched.bus_utilisation = mrt.bus_utilisation()
        return sched


class _BnbSearch:
    """Depth-first branch and bound for one (II, register-limit) probe.

    Nodes are tried in SMS order (recurrence sets first, neighbours
    adjacent — the same order the heuristics use, so the first solutions
    found resemble theirs).  Before each node, longest-path bounds are
    re-propagated from the placed anchors over every dependence edge; a
    placed node pushed past its own cycle kills the branch immediately.
    Cluster symmetry (homogeneous machines) and whole-schedule translation
    are broken explicitly; interchangeable idle buses are deduplicated.
    """

    def __init__(
        self,
        graph: DependenceGraph,
        config: MachineConfig,
        ii: int,
        reg_limit: int,
        deadline: float,
        budget_s: float,
    ):
        self.graph = graph
        self.config = config
        self.ii = ii
        self.reg_limit = reg_limit
        self.deadline = deadline
        self.budget_s = budget_s
        self.sched = ModuloSchedule(graph, config, ii, mii=ii)
        self.mrt = ReservationTable(config, ii)
        self.order = sms_order(graph)
        self.nodes = graph.node_ids
        self.edges = [
            (d.src, d.dst, d.latency - ii * d.distance) for d in graph.edges
        ]
        self.latbus = config.buses.latency
        self.n_buses = config.buses.count if config.is_clustered else 0
        self.homogeneous = config.is_homogeneous
        self.cluster_use = [0] * config.n_clusters
        self.used_clusters = 0
        # Per-class open-slot accounting for the global resource prune,
        # indexed by FuClass.index.
        self.free_slots = [ii * units for units in config.total_fus.counts]
        self.unplaced = [0] * len(FuClass)
        for op in graph.operations():
            self.unplaced[op.fu_class.index] += 1
        # Pressure is re-derived from scratch per commit only when the
        # register budget can plausibly bind; leaves are always checked,
        # so skipping the per-commit prune never costs soundness.
        self.check_every_commit = reg_limit < 2 * len(graph)
        self.solution: _Solution | None = None

    # -- driver ---------------------------------------------------------
    def run(self) -> _Solution | None:
        if self._search():
            return self.solution
        return None

    def _search(self) -> bool:
        if time.monotonic() >= self.deadline:
            raise ExactTimeout(
                f"exact: search for {self.graph.name!r} on "
                f"{self.config.name!r} exceeded the {self.budget_s:.1f}s "
                f"budget at II={self.ii}"
            )
        depth = len(self.sched.ops)
        if depth == len(self.order):
            if self._within_reg_limit():
                self.solution = _Solution(
                    self.ii,
                    tuple(
                        (n, op.cycle, op.cluster)
                        for n, op in sorted(self.sched.ops.items())
                    ),
                    tuple(self.sched.comms),
                )
                return True
            return False
        for left, free in zip(self.unplaced, self.free_slots):
            if left > free:
                return False
        bounds = self._bounds()
        if bounds is None:
            return False
        asap, alap = bounds
        v = self.order[depth]
        op = self.graph.operation(v)
        if self.homogeneous:
            cluster_limit = min(self.config.n_clusters, self.used_clusters + 1)
        else:
            cluster_limit = self.config.n_clusters
        for q in range(cluster_limit):
            grid = self.mrt.fu_grid(q, op.fu_class)
            if grid.cols == 0:
                continue
            lo, hi = self._window(v, q, asap[v], alap[v], depth)
            if hi < lo:
                continue
            for t in range(lo, hi + 1):
                if grid.masks[t % self.ii] == grid.full:
                    continue
                reqs = self._requirements(v, q, t)
                if reqs is None:
                    continue
                for pending, added in self._plans(reqs, 0, [], []):
                    undo = self._commit(v, op, q, t, pending, added)
                    ok = not self.check_every_commit or self._within_reg_limit()
                    if ok and self._search():
                        return True
                    self._undo(undo)
        return False

    # -- bounds ---------------------------------------------------------
    def _bounds(self):
        """Longest-path ASAP/ALAP from the placed anchors; None = dead."""
        ops = self.sched.ops
        asap = {v: (ops[v].cycle if v in ops else _NEG) for v in self.nodes}
        for _ in range(len(self.nodes)):
            changed = False
            for src, dst, w in self.edges:
                a = asap[src]
                if a == _NEG:
                    continue
                cand = a + w
                if cand > asap[dst]:
                    if dst in ops:
                        return None  # contradicts a committed placement
                    asap[dst] = cand
                    changed = True
            if not changed:
                break
        else:
            return None  # positive cycle at this II
        alap = {v: (ops[v].cycle if v in ops else _POS) for v in self.nodes}
        for _ in range(len(self.nodes)):
            changed = False
            for src, dst, w in self.edges:
                b = alap[dst]
                if b == _POS:
                    continue
                cand = b - w
                if cand < alap[src]:
                    if src in ops:
                        return None
                    alap[src] = cand
                    changed = True
            if not changed:
                break
        else:
            return None
        for v in self.nodes:
            if v not in ops and asap[v] != _NEG and alap[v] != _POS:
                if asap[v] > alap[v]:
                    return None
        return asap, alap

    def _window(self, v: int, q: int, a: int, b: int, depth: int) -> tuple[int, int]:
        """The candidate cycle range of *v* on cluster *q*.

        The dependence-only ASAP/ALAP anchors are first tightened with the
        bus latency of every delivery the cluster choice forces: a value
        produced in another cluster cannot be consumed before
        ``production + latbus``, and a value consumed in another cluster
        must leave early enough to arrive.  Without this the canonical
        II-wide windows would miss comm-shifted placements entirely
        (acutely so at small II, where the window is only a cycle or two).
        """
        ii = self.ii
        ops = self.sched.ops
        graph = self.graph
        if self.n_buses:
            for dep in graph.flow_producers(v):
                placed = ops.get(dep.src)
                if placed is None or dep.src == v or placed.cluster == q:
                    continue
                ready = placed.cycle + graph.operation(dep.src).latency
                cand = ready + self.latbus - ii * dep.distance
                if a == _NEG or cand > a:
                    a = cand
            for dep in graph.flow_consumers(v):
                placed = ops.get(dep.dst)
                if placed is None or dep.dst == v or placed.cluster == q:
                    continue
                cand = (
                    placed.cycle
                    + ii * dep.distance
                    - self.latbus
                    - graph.operation(v).latency
                )
                if b == _POS or cand < b:
                    b = cand
        if a != _NEG and b != _POS:
            return a, b
        if a != _NEG:
            return a, a + ii - 1
        if b != _POS:
            return b - ii + 1, b
        if depth == 0:
            return 0, 0  # whole-schedule translation symmetry
        return 0, ii - 1  # per-component translation by multiples of II

    # -- communication planning ----------------------------------------
    def _requirements(self, v: int, q: int, t: int) -> list[_Requirement] | None:
        """Cross-cluster deliveries placing *v* at (*q*, *t*) would need."""
        ops = self.sched.ops
        ii = self.ii
        merged: dict[tuple[int, int], _Requirement] = {}

        def need(producer: int, src_cluster: int, reader: int, ready: int, consume: int):
            key = (producer, reader)
            prev = merged.get(key)
            if prev is None or consume < prev.consume:
                merged[key] = _Requirement(producer, src_cluster, reader, ready, consume)

        for dep in self.graph.flow_producers(v):
            placed = ops.get(dep.src)
            if placed is None or placed.cluster == q or dep.src == v:
                continue
            ready = placed.cycle + self.graph.operation(dep.src).latency
            need(dep.src, placed.cluster, q, ready, t + ii * dep.distance)
        for dep in self.graph.flow_consumers(v):
            placed = ops.get(dep.dst)
            if placed is None or placed.cluster == q or dep.dst == v:
                continue
            ready = t + self.graph.operation(v).latency
            need(v, q, placed.cluster, ready, placed.cycle + ii * dep.distance)
        if merged and (self.n_buses == 0 or self.latbus > ii):
            return None  # no usable bus fabric: cross-cluster flow impossible
        return list(merged.values())

    def _plans(self, reqs, idx, pending, added):
        """Enumerate complete communication plans for *reqs* (DFS product).

        Per requirement: reuse a committed transfer already readable (or
        add this reader to one), join a transfer pending in this very
        plan (broadcast), or open a new transfer on any free,
        non-interchangeable bus within the canonical start window.
        """
        if idx == len(reqs):
            yield pending, added
            return
        r = reqs[idx]
        latest_start = r.consume - self.latbus
        committed = self.sched.comms_for(r.producer)
        for c in committed:
            if c.start_cycle <= latest_start and r.reader in c.readers:
                yield from self._plans(reqs, idx + 1, pending, added)
                return  # already delivered: nothing to decide
        for c in committed:
            if c.start_cycle <= latest_start:
                added.append((c, r.reader))
                yield from self._plans(reqs, idx + 1, pending, added)
                added.pop()
        for p in pending:
            if p.producer == r.producer and p.start <= latest_start:
                p.readers.add(r.reader)
                yield from self._plans(reqs, idx + 1, pending, added)
                p.readers.discard(r.reader)
        hi = min(latest_start, r.ready + self.ii - 1)
        for start in range(r.ready, hi + 1):
            for bus in self._free_buses(start, pending):
                pending.append(
                    _Pending(r.producer, r.src_cluster, bus, start, {r.reader})
                )
                yield from self._plans(reqs, idx + 1, pending, added)
                pending.pop()

    def _free_buses(self, start: int, pending: list[_Pending]) -> list[int]:
        """Free buses for a transfer at *start* (idle buses deduplicated)."""
        busy = self.mrt.bus_occupancy(start)
        rows_mask = self.mrt.bus_rows_mask(start)
        for p in pending:
            if self.mrt.bus_rows_mask(p.start) & rows_mask:
                busy |= 1 << p.bus
        masks = self.mrt._bus.masks
        out: list[int] = []
        seen_idle = False
        pending_buses = {p.bus for p in pending}
        for b in range(self.n_buses):
            if busy & (1 << b):
                continue
            idle = b not in pending_buses and not any(
                m & (1 << b) for m in masks
            )
            if idle:
                if seen_idle:
                    continue  # completely idle buses are interchangeable
                seen_idle = True
            out.append(b)
        return out

    # -- commit / undo --------------------------------------------------
    def _commit(self, v, op, q, t, pending, added):
        unit = self.mrt.occupy_fu(q, op.fu_class, t, v)
        self.sched.place(ScheduledOp(v, t, q, unit))
        if self.cluster_use[q] == 0:
            self.used_clusters += 1
        self.cluster_use[q] += 1
        self.unplaced[op.fu_class.index] -= 1
        self.free_slots[op.fu_class.index] -= 1
        new_comms: list[Communication] = []
        for p in pending:
            comm = Communication(
                p.producer, p.src_cluster, p.bus, p.start, frozenset(p.readers)
            )
            self.mrt.occupy_bus(p.start, p.bus, (p.producer, p.start, p.bus))
            self.sched.add_comm(comm)
            new_comms.append(comm)
        replacements: list[tuple[Communication, Communication]] = []
        current: dict[int, Communication] = {}
        for c, reader in added:
            live = current.get(id(c), c)
            grown = live.with_reader(reader)
            self.sched.replace_comm(live, grown)
            current[id(c)] = grown
            replacements.append((live, grown))
        return (v, op, q, t, unit, new_comms, replacements)

    def _undo(self, undo):
        v, op, q, t, unit, new_comms, replacements = undo
        for live, grown in reversed(replacements):
            self.sched.replace_comm(grown, live)
        for comm in reversed(new_comms):
            self.mrt.release_bus(
                comm.start_cycle, comm.bus, (comm.producer, comm.start_cycle, comm.bus)
            )
            self.sched.comms.remove(comm)
            self.sched._comms_by_producer[comm.producer].remove(comm)
        del self.sched.ops[v]
        self.cluster_use[q] -= 1
        if self.cluster_use[q] == 0:
            self.used_clusters -= 1
        self.unplaced[op.fu_class.index] += 1
        self.free_slots[op.fu_class.index] += 1
        self.mrt.release_fu(q, op.fu_class, t, unit, v)

    def _within_reg_limit(self) -> bool:
        pressures = cluster_pressures(self.sched)
        return max(pressures.values()) <= self.reg_limit if pressures else True
