"""Incremental register-pressure (MaxLive) tracking for placement search.

:func:`repro.core.lifetimes.cluster_pressures` rebuilds every live range
of the schedule from scratch; placement engines used to call it once per
*candidate cycle*, making it the hottest path in the package.  This module
maintains the same model incrementally on the live
:class:`~repro.core.schedule.ModuloSchedule`:

* the per-cluster pressure histogram (one counter per MRT row, plus a
  scalar for whole-II wraps) is kept up to date as placements commit;
* a tentative placement is evaluated once, as a :class:`PressureDelta`:
  the intervals the new node can affect — its own produced value,
  same-cluster producers it reads, incoming copies it reads late, and
  the communications its plan would add — with their new extents;
* the fit check bounds each touched cluster's MaxLive by its committed
  value plus ``ceil(growth / II)`` per interval the delta creates or
  lengthens, and builds the exact histogram only when that bound
  exceeds the register file;
* committing the placement folds the same delta into the histograms;
  nothing is re-derived.

The interval semantics are identical to ``lifetimes._intervals`` (the two
are cross-checked by a property test after every commit); pressures and
fit decisions are therefore *exactly* those of a from-scratch
recomputation, not an approximation — schedules are byte-identical with
and without tracking.

The unit of bookkeeping is an *entry*: either the produced-value interval
of one node (``("p", node)``) or the stored-incoming-value interval of
one (communication, reader cluster) pair (``("i", (producer, bus, start),
reader)``).  A placement changes a small, statically enumerable set of
entries (:meth:`PressureTracker.delta`), which is what makes the delta
sound:

* a produced interval ends at the last same-cluster read or communication
  start of that value — only a new same-cluster consumer or a new
  transfer of the value can move it, and only later;
* an incoming interval ends at the last late read in the reader cluster —
  only a new consumer in that cluster can move it (later), and a new
  transfer or reader creates it;
* remote consumers never touch a producer interval (they read the
  communicated copy), so placements in other clusters are unaffected.

So every entry a placement touches is either created, and derived by
walking its value's consumers, or lengthened, and extended in O(1) from
its committed interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add

from ..errors import SchedulingError
from .comm import CommPlan
from .schedule import ModuloSchedule

#: An interval: (cluster, start, end) with end exclusive, end > start.
Interval = tuple[int, int, int]


@dataclass(slots=True)
class PressureDelta:
    """The register-pressure change of one tentative placement.

    ``entries`` maps each entry the placement creates or lengthens to its
    new interval; ``spans`` is the matching histogram change as
    ``(cluster, start, end, sign)`` ranges.  A delta describes the
    placement against the committed state it was computed on, so it is
    valid only until the tracker's next commit (``version``).
    """

    entries: dict[tuple, Interval]
    spans: list[tuple[int, int, int, int]]
    version: int


class PressureTracker:
    """Exact incremental MaxLive per cluster for one live schedule."""

    def __init__(self, schedule: ModuloSchedule):
        self.schedule = schedule
        self.graph = schedule.graph
        self.ii = schedule.ii
        self.n_clusters = schedule.config.n_clusters
        self._bus_latency = schedule.config.buses.latency
        self._limit = schedule.config.regs_per_cluster
        #: Remainder histogram per cluster (one counter per MRT row).
        self._hist: list[list[int]] = [
            [0] * self.ii for _ in range(self.n_clusters)
        ]
        #: Whole-II wraps per cluster (cover every row uniformly).
        self._base: list[int] = [0] * self.n_clusters
        #: Committed MaxLive per cluster, refreshed by every commit.
        self._max: list[int] = [0] * self.n_clusters
        self._entries: dict[tuple, Interval] = {}
        #: Bumped by every commit and rebuild; a delta from an older
        #: version describes a state that no longer exists.
        self.version = 0
        if schedule.ops or schedule.comms:
            self.rebuild()

    # ------------------------------------------------------------------
    # Entry derivation (must mirror lifetimes._intervals exactly)
    # ------------------------------------------------------------------
    def _producer_interval(
        self, node: int, cluster: int, cycle: int, starts: list[int] | tuple = ()
    ) -> Interval | None:
        """The produced-value live range of *node* at (*cluster*, *cycle*).

        *starts* are transfer start cycles of the value not yet
        committed.  *node* itself need not be in ``schedule.ops``.
        """
        op = self.graph.operation(node)
        if not op.writes_register:
            return None
        ops = self.schedule.ops
        ii = self.ii
        written = cycle + op.latency
        last_read = written  # the write occupies the register >= 1 cycle
        for dep in self.graph.flow_consumers(node):
            if dep.dst == node:  # a self-loop reads in its own cluster
                read = cycle + ii * dep.distance
            else:
                consumer = ops.get(dep.dst)
                if consumer is None or consumer.cluster != cluster:
                    continue  # remote consumers read the communicated copy
                read = consumer.cycle + ii * dep.distance
            if read > last_read:
                last_read = read
        for comm in self.schedule.comms_for(node):
            if comm.start_cycle > last_read:
                last_read = comm.start_cycle
        for start in starts:
            if start > last_read:
                last_read = start
        return (cluster, written, last_read + 1)

    def _incoming_interval(
        self,
        producer: int,
        start_cycle: int,
        reader: int,
        extra_read: int | None = None,
    ) -> Interval | None:
        """The stored-incoming-value range in *reader*'s file, or None.

        *extra_read* is one more read of the value in *reader* (the
        tentative node's), beside those of the placed consumers.
        """
        ops = self.schedule.ops
        ii = self.ii
        arrival = start_cycle + self._bus_latency
        last_late_read = None
        if extra_read is not None and extra_read > arrival:
            last_late_read = extra_read
        for dep in self.graph.flow_consumers(producer):
            consumer = ops.get(dep.dst)
            if consumer is None or consumer.cluster != reader:
                continue
            read = consumer.cycle + ii * dep.distance
            if read > arrival and (last_late_read is None or read > last_late_read):
                last_late_read = read
        if last_late_read is None:
            return None  # bypassed: every read happens at arrival
        return (reader, arrival, last_late_read + 1)

    # ------------------------------------------------------------------
    # Histogram maintenance
    # ------------------------------------------------------------------
    def _apply(self, cluster: int, start: int, end: int, sign: int) -> None:
        """Add (*sign* 1) or remove (-1) one range; the caller refreshes
        the cluster's MaxLive."""
        ii = self.ii
        fulls, rem = divmod(end - start, ii)
        self._base[cluster] += sign * fulls
        if rem:
            hist = self._hist[cluster]
            row = start % ii
            for _ in range(rem):
                hist[row] += sign
                row += 1
                if row == ii:
                    row = 0

    def _refresh(self, cluster: int) -> None:
        self._max[cluster] = self._base[cluster] + max(self._hist[cluster])

    def cluster_max(self, cluster: int) -> int:
        """Committed MaxLive of *cluster*."""
        return self._max[cluster]

    def pressures(self) -> dict[int, int]:
        """Committed MaxLive for every cluster (== ``cluster_pressures``)."""
        return {c: self.cluster_max(c) for c in range(self.n_clusters)}

    # ------------------------------------------------------------------
    # One placement's delta
    # ------------------------------------------------------------------
    def delta(
        self, node: int, cluster: int, cycle: int, plan: CommPlan
    ) -> PressureDelta:
        """Every entry placing *node* at (*cluster*, *cycle*) with *plan*
        would create or lengthen, against the committed state."""
        graph = self.graph
        sched = self.schedule
        ops = sched.ops
        committed = self._entries
        ii = self.ii
        latbus = self._bus_latency
        entries: dict[tuple, Interval] = {}

        # The node's latest read of each value it consumes.
        reads: dict[int, int] = {}
        for dep in graph.flow_producers(node):
            read = cycle + ii * dep.distance
            prev = reads.get(dep.src)
            if prev is None or read > prev:
                reads[dep.src] = read
        # Extensions: a same-cluster producer the node reads, and a
        # committed incoming copy the node reads late.
        for src, read in reads.items():
            placed = ops.get(src)
            if placed is None:
                continue  # unplaced (or the node itself, derived below)
            if placed.cluster == cluster:
                key = ("p", src)
                old = committed.get(key)
                if old is not None and read >= old[2]:
                    entries[key] = (cluster, old[1], read + 1)
            for comm in sched.comms_for(src):
                if cluster in comm.readers:
                    arrival = comm.start_cycle + latbus
                    if read > arrival:
                        key = ("i", (src, comm.bus, comm.start_cycle), cluster)
                        old = committed.get(key)
                        if old is None or read >= old[2]:
                            entries[key] = (cluster, arrival, read + 1)
        # Transfers the plan creates: the remote producer's interval
        # extends to the start; the copy's interval is new.
        own_starts = []
        for t in plan.new_transfers:
            producer = t.producer
            if producer == node:
                own_starts.append(t.start_cycle)
            else:
                key = ("p", producer)
                old = entries.get(key) or committed.get(key)
                if old is not None and t.start_cycle >= old[2]:
                    entries[key] = (old[0], old[1], t.start_cycle + 1)
            iv = self._incoming_interval(
                producer,
                t.start_cycle,
                t.reader,
                reads.get(producer) if t.reader == cluster else None,
            )
            if iv is not None:
                entries[("i", (producer, t.bus, t.start_cycle), t.reader)] = iv
        # Readers the plan adds to an existing transfer: a new copy.
        for a in plan.added_readers:
            e = a.existing
            iv = self._incoming_interval(
                e.producer,
                e.start_cycle,
                a.reader,
                reads.get(e.producer) if a.reader == cluster else None,
            )
            if iv is not None:
                entries[("i", (e.producer, e.bus, e.start_cycle), a.reader)] = iv
        # The node's own value.
        iv = self._producer_interval(node, cluster, cycle, own_starts)
        if iv is not None:
            entries[("p", node)] = iv

        spans: list[tuple[int, int, int, int]] = []
        for key, (c, start, end) in entries.items():
            old = committed.get(key)
            if old is None:
                spans.append((c, start, end, 1))
            elif old[0] == c and old[1] == start and old[2] <= end:
                if old[2] < end:
                    spans.append((c, old[2], end, 1))
            else:
                spans.append((old[0], old[1], old[2], -1))
                spans.append((c, start, end, 1))
        return PressureDelta(entries, spans, self.version)

    def pressure_after(self, delta: PressureDelta, cluster: int) -> int:
        """Exact MaxLive of *cluster* if *delta* were committed."""
        ii = self.ii
        base = self._base[cluster]
        diff: list[int] | None = None
        for c, start, end, sign in delta.spans:
            if c != cluster:
                continue
            if diff is None:
                diff = [0] * (2 * ii)
            fulls, rem = divmod(end - start, ii)
            base += sign * fulls
            if rem:
                row = start % ii
                diff[row] += sign
                diff[row + rem] -= sign
        if diff is None:
            return self._max[cluster]
        # Fold the doubled difference array onto the II rows.
        acc = list(accumulate(diff))
        return base + max(map(add, self._hist[cluster], map(add, acc, acc[ii:])))

    def fits(self, delta: PressureDelta) -> bool:
        """Would every cluster still fit its register file?

        A span adds at most ``ceil(length / II)`` to any row, and a
        removed span only lowers rows, so the committed MaxLive plus
        those ceilings bounds the new one; the exact histogram is built
        only for a cluster whose bound exceeds the file.
        """
        ii = self.ii
        limit = self._limit
        bound = self._max.copy()
        for c, start, end, sign in delta.spans:
            if sign > 0:
                bound[c] -= (start - end) // ii  # + ceil((end - start) / ii)
        for c, pressure in enumerate(bound):
            if pressure > limit and self.pressure_after(delta, c) > limit:
                return False
        return True

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self, delta: PressureDelta) -> None:
        """Fold a placement's delta into the committed histograms.

        Raises :class:`~repro.errors.SchedulingError` for a delta computed
        before the last commit or rebuild (its intervals may be out of
        date).
        """
        if delta.version != self.version:
            raise SchedulingError(
                f"stale placement: computed at pressure version {delta.version}, "
                f"tracker is at {self.version}"
            )
        self._entries.update(delta.entries)
        for c, start, end, sign in delta.spans:
            self._apply(c, start, end, sign)
        for c in {span[0] for span in delta.spans}:
            self._refresh(c)
        self.version += 1

    # ------------------------------------------------------------------
    # Full rebuild (initialisation and the backtrack escape hatch)
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Re-derive every entry from the schedule (O(schedule) fallback).

        Engines start from empty schedules and commit monotonically; a
        scheduler that *removes* placements (backtracking) must call this
        after mutating the schedule — per-entry invalidation of a removal
        is not supported.  Outstanding deltas become stale.
        """
        for c in range(self.n_clusters):
            self._hist[c] = [0] * self.ii
            self._base[c] = 0
        self._entries = {}
        self.version += 1
        sched = self.schedule
        for node, placed in sched.ops.items():
            iv = self._producer_interval(node, placed.cluster, placed.cycle)
            if iv is not None:
                self._entries[("p", node)] = iv
                self._apply(*iv, 1)
        for comm in sched.comms:
            for reader in comm.readers:
                iv = self._incoming_interval(comm.producer, comm.start_cycle, reader)
                if iv is not None:
                    key = ("i", (comm.producer, comm.bus, comm.start_cycle), reader)
                    self._entries[key] = iv
                    self._apply(*iv, 1)
        for c in range(self.n_clusters):
            self._refresh(c)
