"""Independent correctness checking of modulo schedules.

``verify_schedule`` re-derives every constraint from the graph, the machine
description and the timing conventions, sharing no code with the placement
engine beyond the data classes.  Every scheduler output in the test suite
passes through it, and the property-based tests hammer it with random
graphs and machines.

Checked invariants:

1.  every operation scheduled exactly once, on a cluster that exists, on a
    functional unit of the right class and within its index range;
2.  no two operations share a (cluster, FU class, unit, row) cell;
3.  no two communications overlap on the same bus (modulo II), and no
    communication is longer than II (it would collide with itself);
4.  every dependence is satisfied:
    same-cluster or non-value edges by ``s(v) + II*d >= s(u) + lat``;
    cross-cluster flow edges additionally by some communication of the
    producer readable by the consumer's cluster in time;
5.  every communication starts at or after its producer's result;
6.  per-cluster MaxLive fits the register file;
7.  all cycles non-negative.
"""

from __future__ import annotations

from ..errors import VerificationError
from .lifetimes import cluster_pressures
from .schedule import ModuloSchedule


def verify_schedule(schedule: ModuloSchedule) -> None:
    """Raise :class:`VerificationError` on the first violated invariant."""
    graph = schedule.graph
    config = schedule.config
    ii = schedule.ii
    latbus = config.buses.latency

    # (1) completeness and placement sanity
    if set(schedule.ops) != set(graph.node_ids):
        missing = set(graph.node_ids) - set(schedule.ops)
        extra = set(schedule.ops) - set(graph.node_ids)
        raise VerificationError(
            f"schedule incomplete: missing {sorted(missing)}, alien {sorted(extra)}"
        )
    for node, placed in schedule.ops.items():
        op = graph.operation(node)
        if not 0 <= placed.cluster < config.n_clusters:
            raise VerificationError(f"node {node}: cluster {placed.cluster} out of range")
        n_units = config.fu_count(placed.cluster, op.fu_class)
        if not 0 <= placed.fu_index < n_units:
            raise VerificationError(
                f"node {node}: unit {placed.fu_index} out of range for "
                f"{op.fu_class} (cluster has {n_units})"
            )
        if placed.cycle < 0:
            raise VerificationError(f"node {node}: negative cycle {placed.cycle}")

    # (2) functional-unit conflicts, cells keyed by FuClass.index
    seen: dict[tuple[int, int, int, int], int] = {}
    for node, placed in schedule.ops.items():
        op = graph.operation(node)
        row = placed.cycle % ii
        key = (placed.cluster, op.fu_class.index, placed.fu_index, row)
        if key in seen:
            raise VerificationError(
                f"FU conflict: nodes {seen[key]} and {node} share "
                f"cluster {placed.cluster} {op.fu_class} unit "
                f"{placed.fu_index} row {row}"
            )
        seen[key] = node

    # (3) bus conflicts
    bus_rows: dict[tuple[int, int], object] = {}
    for comm in schedule.comms:
        if not 0 <= comm.bus < config.buses.count:
            raise VerificationError(f"communication on nonexistent bus {comm.bus}")
        if latbus > ii:
            raise VerificationError(
                f"bus latency {latbus} exceeds II {ii}: transfer collides with itself"
            )
        if comm.start_cycle < 0:
            raise VerificationError(f"communication at negative cycle {comm.start_cycle}")
        for k in range(latbus):
            key = (comm.bus, (comm.start_cycle + k) % ii)
            if key in bus_rows and bus_rows[key] is not comm:
                raise VerificationError(
                    f"bus conflict on bus {comm.bus} row {key[1]}: "
                    f"{bus_rows[key]} vs {comm}"
                )
            bus_rows[key] = comm

    # (5) communications start after production, from the producer's cluster
    for comm in schedule.comms:
        if comm.producer not in schedule.ops:
            raise VerificationError(f"communication of unscheduled node {comm.producer}")
        producer = schedule.ops[comm.producer]
        op = graph.operation(comm.producer)
        if not op.writes_register:
            raise VerificationError(
                f"communication of non-value-producing node {comm.producer}"
            )
        if comm.src_cluster != producer.cluster:
            raise VerificationError(
                f"communication of node {comm.producer} claims source cluster "
                f"{comm.src_cluster}, but the node runs on {producer.cluster}"
            )
        if comm.start_cycle < producer.cycle + op.latency:
            raise VerificationError(
                f"communication of node {comm.producer} starts at "
                f"{comm.start_cycle}, before the result at "
                f"{producer.cycle + op.latency}"
            )

    # (4) dependences
    for dep in graph.edges:
        src = schedule.ops[dep.src]
        dst = schedule.ops[dep.dst]
        consume = dst.cycle + ii * dep.distance
        if consume < src.cycle + dep.latency:
            raise VerificationError(
                f"dependence {dep} violated: consume at {consume}, "
                f"ready at {src.cycle + dep.latency}"
            )
        if dep.moves_value and src.cluster != dst.cluster:
            ok = any(
                comm.producer == dep.src
                and dst.cluster in comm.readers
                and comm.arrival(latbus) <= consume
                for comm in schedule.comms
            )
            if not ok:
                raise VerificationError(
                    f"cross-cluster dependence {dep} has no communication "
                    f"arriving in cluster {dst.cluster} by cycle {consume}"
                )

    # (6) register pressure
    limit = config.regs_per_cluster
    for cluster, pressure in cluster_pressures(schedule).items():
        if pressure > limit:
            raise VerificationError(
                f"cluster {cluster} needs {pressure} registers, file has {limit}"
            )
