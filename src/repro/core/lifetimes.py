"""Register requirements (MaxLive) of a (possibly partial) modulo schedule.

The paper uses no spill code: "those clusters for which the insertion of
this node would increase the register requirements above the number of
available registers are discarded" (Section 5.1).  This module computes the
per-cluster register requirement of a schedule, defined as the classic
MaxLive measure over the modulo-wrapped lifetimes:

* a value produced by node *u* (in cluster *c*) is written to *c*'s
  register file at ``s(u) + lat(u)`` and must stay live until its last
  local read — reads by same-cluster consumers *v* happen at
  ``s(v) + II*dist``, and every bus transfer of the value reads the
  register file (or bypass) at the communication start cycle;
* a value arriving in cluster *c'* over a bus (arrival = comm start +
  bus latency) is stored into *c'*'s file only if some consumer there
  reads it *later* than the arrival cycle (the incoming-value register
  feeds same-cycle consumers directly, Section 3); if stored, it is live
  from arrival until its last read in *c'*;
* a produced value with no scheduled reads yet occupies its destination
  register for one cycle (the write itself).

A lifetime spanning ``len`` cycles contributes to ``len`` (mod II) rows of
the pressure histogram; lifetimes longer than II therefore count multiple
times per row, which models the modulo variable expansion the hardware or
unroller would need.

Placement search tracks the same model incrementally
(:mod:`repro.core.pressure`); this from-scratch computation serves the
verifier, the statistics and the exact backend.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

from ..ir.ddg import DependenceGraph
from .schedule import Communication, ModuloSchedule


def _intervals(schedule: ModuloSchedule) -> list[tuple[int, int, int]]:
    """All live ranges as (cluster, start, end) with end exclusive."""
    graph: DependenceGraph = schedule.graph
    ii = schedule.ii
    bus_latency = schedule.config.buses.latency

    comms_by_producer: dict[int, list[Communication]] = {}
    for comm in schedule.comms:
        comms_by_producer.setdefault(comm.producer, []).append(comm)

    out: list[tuple[int, int, int]] = []
    ops = schedule.ops
    for node, placed in ops.items():
        op = graph.operation(node)
        if not op.writes_register:
            continue
        written = placed.cycle + op.latency
        last_read = written  # the write occupies the register >= 1 cycle
        for dep in graph.flow_consumers(node):
            consumer = ops.get(dep.dst)
            if consumer is None or consumer.cluster != placed.cluster:
                continue  # remote consumers read the communicated copy
            read = consumer.cycle + ii * dep.distance
            if read > last_read:
                last_read = read
        for comm in comms_by_producer.get(node, ()):
            if comm.start_cycle > last_read:
                last_read = comm.start_cycle
        out.append((placed.cluster, written, last_read + 1))

    # Incoming communicated values stored in destination register files.
    for comm in schedule.comms:
        arrival = comm.start_cycle + bus_latency
        consumers = graph.flow_consumers(comm.producer)
        for reader_cluster in comm.readers:
            # None sentinel, not -1: partial schedules legally contain
            # negative cycles (backward scans, see engine.py), so a late
            # read at a negative cycle is still a late read.
            last_late_read: int | None = None
            for dep in consumers:
                consumer = ops.get(dep.dst)
                if consumer is None or consumer.cluster != reader_cluster:
                    continue
                read = consumer.cycle + ii * dep.distance
                if read > arrival and (last_late_read is None or read > last_late_read):
                    last_late_read = read
            if last_late_read is not None:
                out.append((reader_cluster, arrival, last_late_read + 1))
    return out


def cluster_pressures(schedule: ModuloSchedule) -> dict[int, int]:
    """MaxLive per cluster for *schedule*."""
    ii = schedule.ii
    n_clusters = schedule.config.n_clusters
    # Whole-II wraps cover every row; a remainder covers rows start ..
    # start+rem-1 (mod II), one segment of a difference array over the
    # doubled range whose two halves are then folded together.
    base = [0] * n_clusters
    diffs = [[0] * (2 * ii) for _ in range(n_clusters)]
    for c, start, end in _intervals(schedule):
        full, rem = divmod(end - start, ii)
        base[c] += full
        if rem:
            s = start % ii
            diffs[c][s] += 1
            diffs[c][s + rem] -= 1
    result: dict[int, int] = {}
    for c, diff in enumerate(diffs):
        acc = list(accumulate(diff))
        result[c] = base[c] + max(map(add, acc[:ii], acc[ii:]))
    return result


def max_pressure(schedule: ModuloSchedule) -> int:
    """The largest per-cluster MaxLive of the schedule."""
    pressures = cluster_pressures(schedule)
    return max(pressures.values()) if pressures else 0
