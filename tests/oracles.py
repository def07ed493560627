"""Slow, obviously-correct reference implementations the tests check against.

* :func:`cluster_out_edges` / :func:`out_edges_if_joined` — the paper's
  ``OutEdgesOnCluster`` and ``tmpoutedges`` recounts, whose difference
  :func:`repro.core.bsa.join_profit` computes in O(degree);
* :func:`rec_mii_exact` — RecMII by simple-cycle enumeration, against
  the binary search of :func:`repro.core.mii.rec_mii`;
* :class:`ReferenceBsa` — BSA trying every cluster for every node, with
  full failure logs, against the tiered search of
  :class:`repro.core.bsa.BsaScheduler`;
* :func:`reference_partition` — the two-phase partition rescoring every
  super-node's demand and crossing edges for every candidate cluster,
  against :func:`repro.core.twophase.partition_graph`;
* :func:`overlay_pressures` and :func:`pressure_ok` — ``cluster_pressures``
  of a scratch copy of the schedule with a tentative placement overlaid
  (its plan's transfers from :func:`pressure_comms`, an added reader as a
  :func:`phantom` transfer), against the incremental
  :class:`repro.core.pressure.PressureTracker`;
* :func:`mve_factor` — the modulo-variable-expansion factor (Lam) a
  schedule's lifetimes would need without rotating registers, from the
  same lifetime intervals as ``cluster_pressures`` (no production path
  replicates kernels);
* :func:`fu_slot_free`, :func:`bus_free` and :func:`per_start_scan` —
  per-cycle reservation-table probes, the last one trying each start
  cycle in turn, against the one-pass
  :meth:`repro.core.mrt.ReservationTable.first_free_bus`;
* :func:`expand_software_pipeline` — the prologue, kernel and epilogue
  expanded instruction by instruction, against the closed form of
  :func:`repro.codegen.schedule_code_size`;
* :func:`to_networkx` and the networkx versions of the graph algorithms
  the library implements with the stdlib: :func:`sccs_nx`,
  :func:`zero_distance_acyclic_nx`, :func:`topological_order_nx` and
  :func:`ordering_sets_nx`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import networkx as nx

from repro.arch.cluster import MachineConfig
from repro.arch.isa import VliwInstruction, empty_instruction
from repro.codegen.vliw import _place_in_slot
from repro.core.bsa import BsaScheduler, join_profit
from repro.core.comm import AddReader, CommPlan
from repro.core.engine import Placement, PlacementEngine
from repro.core.lifetimes import _intervals, cluster_pressures
from repro.core.mii import rec_mii
from repro.core.mrt import ReservationTable
from repro.core.schedule import Communication, ModuloSchedule, ScheduledOp
from repro.core.sms import _subgraph, recurrence_sets, sms_order
from repro.errors import GraphError
from repro.ir.ddg import DependenceGraph
from repro.ir.operation import FuClass


def to_networkx(graph: DependenceGraph) -> nx.MultiDiGraph:
    """Export to a :class:`networkx.MultiDiGraph` (nodes keep ops)."""
    g = nx.MultiDiGraph(name=graph.name)
    for op in graph.operations():
        g.add_node(op.node_id, op=op)
    for dep in graph.edges:
        g.add_edge(
            dep.src,
            dep.dst,
            latency=dep.latency,
            distance=dep.distance,
            kind=dep.kind,
        )
    return g


def _zero_distance_nx(graph: DependenceGraph) -> nx.DiGraph:
    zero = nx.DiGraph()
    zero.add_nodes_from(graph.node_ids)
    zero.add_edges_from((d.src, d.dst) for d in graph.edges if d.distance == 0)
    return zero


def sccs_nx(graph: DependenceGraph) -> list[set[int]]:
    """Strongly connected components, by networkx."""
    return [set(c) for c in nx.strongly_connected_components(to_networkx(graph))]


def zero_distance_acyclic_nx(graph: DependenceGraph) -> bool:
    """Whether the distance-0 edges form a DAG, by networkx."""
    return nx.is_directed_acyclic_graph(_zero_distance_nx(graph))


def topological_order_nx(graph: DependenceGraph) -> list[int]:
    """Smallest-id-first topological order of the distance-0 edges."""
    return list(nx.lexicographical_topological_sort(_zero_distance_nx(graph)))


def ordering_sets_nx(graph: DependenceGraph) -> list[set[int]]:
    """:func:`repro.core.sms.ordering_sets` written with networkx."""
    g = nx.DiGraph()
    g.add_nodes_from(graph.node_ids)
    g.add_edges_from((d.src, d.dst) for d in graph.edges)
    recurrences = [
        comp
        for comp in sccs_nx(graph)
        if len(comp) > 1 or g.has_edge(min(comp), min(comp))
    ]
    recurrences.sort(
        key=lambda comp: (-rec_mii(_subgraph(graph, comp)), -len(comp), min(comp))
    )

    def path_nodes(sources: set[int], targets: set[int]) -> set[int]:
        fwd = set(sources).union(*(nx.descendants(g, s) for s in sources))
        bwd = set(targets).union(*(nx.ancestors(g, t) for t in targets))
        return fwd & bwd

    sets: list[set[int]] = []
    placed: set[int] = set()
    for comp in recurrences:
        new = comp - placed
        if not new:
            continue
        if placed:
            new |= (path_nodes(placed, new) | path_nodes(new, placed)) - placed
        sets.append(new)
        placed |= new
    rest = g.to_undirected(as_view=True).subgraph(set(graph.node_ids) - placed)
    sets.extend(sorted((set(c) for c in nx.connected_components(rest)), key=min))
    return sets


def cluster_out_edges(
    graph: DependenceGraph, assignment: dict[int, int], cluster: int
) -> int:
    """``OutEdgesOnCluster``: value edges from *cluster*'s nodes to any node
    outside it (scheduled elsewhere or not yet scheduled)."""
    count = 0
    for node, c in assignment.items():
        if c != cluster:
            continue
        for dep in graph.flow_consumers(node):
            if dep.dst == node:
                continue
            if assignment.get(dep.dst) != cluster:
                count += 1
    return count


def out_edges_if_joined(
    graph: DependenceGraph, assignment: dict[int, int], cluster: int, node: int
) -> int:
    """``tmpoutedges``: out-edge count of *cluster* with *node* included."""
    trial = dict(assignment)
    trial[node] = cluster
    return cluster_out_edges(graph, trial, cluster)


def rec_mii_exact(graph: DependenceGraph, max_cycles: int = 200_000) -> int:
    """RecMII by simple-cycle enumeration (for cross-checks on small graphs).

    Raises :class:`GraphError` if the graph has more than *max_cycles*
    simple cycles (enumeration would be intractable).
    """
    g = to_networkx(graph)
    best = 1
    count = 0
    # networkx yields node cycles; with multi-edges we must consider every
    # combination of parallel edges along the cycle.  For cross-check use we
    # take, per hop, the edge maximising latency - best*distance; to stay
    # exact we instead maximise ceil(L/D) over per-hop edge choices by
    # enumerating them when few.
    for cycle in nx.simple_cycles(g):
        count += 1
        if count > max_cycles:
            raise GraphError("too many simple cycles for exact RecMII")
        hops = list(zip(cycle, cycle[1:] + cycle[:1]))
        choices: list[list[tuple[int, int]]] = []
        for u, v in hops:
            data = g.get_edge_data(u, v)
            choices.append([(e["latency"], e["distance"]) for e in data.values()])
        best = max(best, _best_ratio(choices))
    return best


def _best_ratio(choices: list[list[tuple[int, int]]]) -> int:
    """max over per-hop edge selections of ceil(sum L / sum D)."""
    totals = {(0, 0)}
    for options in choices:
        totals = {(L + lo, D + do) for (L, D) in totals for (lo, do) in options}
        # Prune dominated pairs to keep the set small.
        pruned = set()
        for L, D in totals:
            if not any(
                (L2 >= L and D2 <= D and (L2, D2) != (L, D)) for L2, D2 in totals
            ):
                pruned.add((L, D))
        totals = pruned
    best = 1
    for L, D in totals:
        if D == 0:
            if L > 0:
                raise GraphError("zero-distance positive cycle")
            continue
        best = max(best, math.ceil(L / D))
    return best


class ReferenceBsa(BsaScheduler):
    """BSA as Figure 5 reads: every cluster tried for every node.

    Its failure logs are full, so the II search never re-runs an attempt.
    """

    lazy_log = False

    def _place_all(self, engine: PlacementEngine) -> bool:
        graph = engine.graph
        n_clusters = self.config.n_clusters
        assignment: dict[int, int] = {}
        default_cluster = n_clusters - 1  # first advance lands on cluster 0

        for node in self._order_fn(graph):
            has_scheduled_neighbor = any(
                engine.schedule.is_scheduled(other)
                for other in graph.neighbors(node)
            )
            if not has_scheduled_neighbor:
                if self._default_policy == "circular":
                    default_cluster = (default_cluster + 1) % n_clusters
                else:  # least-loaded
                    loads = [0] * n_clusters
                    for placed in engine.schedule.ops.values():
                        loads[placed.cluster] += 1
                    default_cluster = min(
                        range(n_clusters), key=lambda c: (loads[c], c)
                    )

            feasible: dict[int, Placement] = {}
            profit: dict[int, int] = {}
            for cluster in range(n_clusters):
                placement = engine.find_placement(node, cluster)
                if not isinstance(placement, Placement):
                    continue
                feasible[cluster] = placement
                profit[cluster] = join_profit(graph, assignment, cluster, node)

            if not feasible:
                return False

            best = max(profit.values())
            candidates = {
                c: p for c, p in sorted(feasible.items()) if profit[c] == best
            }
            chosen = self._choose_cluster(engine, node, candidates, default_cluster)
            engine.commit(feasible[chosen])
            assignment[node] = chosen
        return True


def reference_partition(
    graph: DependenceGraph, config: MachineConfig, ii: int
) -> dict[int, int]:
    """The two-phase partition, every candidate cluster scored from scratch.

    Each super-node goes to the cluster with the smallest ``(overflow,
    crossing edges, load)``, the lowest index on ties.
    """
    n_clusters = config.n_clusters
    units = {
        c: {fc: config.fu_count(c, fc) for fc in FuClass}
        for c in range(n_clusters)
    }

    # Super-nodes: recurrences first (already sorted by criticality),
    # then remaining nodes one by one in SMS order.
    super_nodes: list[list[int]] = [sorted(s) for s in recurrence_sets(graph)]
    in_scc = {n for s in super_nodes for n in s}
    super_nodes.extend([n] for n in sms_order(graph) if n not in in_scc)

    load: list[dict[FuClass, int]] = [
        {fc: 0 for fc in FuClass} for _ in range(n_clusters)
    ]
    assignment: dict[int, int] = {}

    def cross_edges(nodes: list[int], cluster: int) -> int:
        count = 0
        for node in nodes:
            for dep in graph.flow_consumers(node):
                other = assignment.get(dep.dst)
                if other is not None and other != cluster and dep.dst not in nodes:
                    count += 1
            for dep in graph.flow_producers(node):
                other = assignment.get(dep.src)
                if other is not None and other != cluster and dep.src not in nodes:
                    count += 1
        return count

    def over_capacity(nodes: list[int], cluster: int) -> int:
        overflow = 0
        demand: dict[FuClass, int] = {fc: 0 for fc in FuClass}
        for node in nodes:
            demand[graph.operation(node).fu_class] += 1
        for fc in FuClass:
            cap = ii * units[cluster][fc]
            total = load[cluster][fc] + demand[fc]
            if total > cap:
                overflow += total - cap
        return overflow

    def load_metric(cluster: int) -> int:
        return sum(load[cluster].values())

    for nodes in super_nodes:
        best_cluster = None
        best_key: tuple[int, int, int] | None = None
        for cluster in range(n_clusters):
            key = (
                over_capacity(nodes, cluster),
                cross_edges(nodes, cluster),
                load_metric(cluster),
            )
            if best_key is None or key < best_key:
                best_key = key
                best_cluster = cluster
        assert best_cluster is not None
        for node in nodes:
            assignment[node] = best_cluster
            load[best_cluster][graph.operation(node).fu_class] += 1
    return assignment


def phantom(added: AddReader) -> Communication:
    """A stand-in transfer for one reader added to an existing transfer:
    same producer, bus and start, that reader alone."""
    existing = added.existing
    return Communication(
        producer=existing.producer,
        src_cluster=existing.src_cluster,
        bus=existing.bus,
        start_cycle=existing.start_cycle,
        readers=frozenset({added.reader}),
    )


def pressure_comms(plan: CommPlan) -> list[Communication]:
    """The transfers to overlay on a schedule for *plan*'s pressure.

    A reader the plan adds twice to one transfer (two consumers in one
    cluster) is one copy, as committing the plan makes it.
    """
    out = [t.as_communication() for t in plan.new_transfers]
    for added in plan.added_readers:
        stand_in = phantom(added)
        if stand_in not in out:
            out.append(stand_in)
    return out


def overlay_pressures(
    schedule: ModuloSchedule,
    comms: Iterable[Communication] = (),
    ops: Iterable[ScheduledOp] = (),
) -> dict[int, int]:
    """``cluster_pressures`` of *schedule* with *ops* and *comms* added.

    Works on a scratch copy, so *schedule* is never changed.
    """
    scratch = ModuloSchedule(schedule.graph, schedule.config, schedule.ii)
    for placed in [*schedule.ops.values(), *ops]:
        scratch.place(placed)
    for comm in [*schedule.comms, *comms]:
        scratch.add_comm(comm)
    return cluster_pressures(scratch)


def pressure_ok(
    schedule: ModuloSchedule,
    comms: Iterable[Communication] = (),
    ops: Iterable[ScheduledOp] = (),
) -> bool:
    """Does every cluster fit its register file with the overlay added?"""
    limit = schedule.config.regs_per_cluster
    return all(p <= limit for p in overlay_pressures(schedule, comms, ops).values())


def mve_factor(schedule: ModuloSchedule) -> int:
    """Modulo-variable-expansion factor of the schedule.

    A value whose lifetime exceeds II would be overwritten by its own
    next-iteration instance; without rotating register files the kernel
    must be replicated ``max_v ceil(lifetime(v) / II)`` times with renamed
    registers (Lam).  The pressure model already *counts* the extra copies
    (wrapped lifetimes contribute once per II spanned); this exposes the
    resulting kernel replication.
    """
    ii = schedule.ii
    factor = 1
    for _, start, end in _intervals(schedule):
        need = -(-(end - start) // ii)  # ceil
        if need > factor:
            factor = need
    return factor


def fu_slot_free(
    mrt: ReservationTable, cluster: int, fu_class: FuClass, cycle: int
) -> bool:
    """Is some *fu_class* unit of *cluster* free at *cycle*?"""
    grid = mrt.fu_grid(cluster, fu_class)
    return grid.masks[cycle % mrt.ii] != grid.full


def bus_free(
    mrt: ReservationTable, start_cycle: int, busy_mask: int = 0
) -> int | None:
    """The lowest bus free for a transfer starting at *start_cycle*.

    A transfer needs ``latbus`` consecutive rows on the *same* bus, so
    none fits when the latency exceeds II.  ``busy_mask`` marks extra
    buses to treat as occupied.
    """
    buses = mrt.config.buses
    if buses.count == 0 or buses.latency > mrt.ii:
        return None
    free = ~(mrt.bus_occupancy(start_cycle) | busy_mask) & ((1 << buses.count) - 1)
    if not free:
        return None
    return (free & -free).bit_length() - 1


def per_start_scan(
    mrt: ReservationTable, first: int, last: int, pending: list[tuple[int, int]]
) -> tuple[int, int] | None:
    """The earliest ``(start_cycle, bus)`` in *first*..*last*: one
    :func:`bus_free` call per start, the buses of the *pending*
    ``(start_cycle, bus)`` transfers whose rows overlap masked."""
    for start in range(first, last + 1):
        rows = set(mrt.bus_rows(start))
        busy = 0
        for other, bus in pending:
            if rows & set(mrt.bus_rows(other)):
                busy |= 1 << bus
        bus = bus_free(mrt, start, busy)
        if bus is not None:
            return start, bus
    return None


def expand_software_pipeline(schedule: ModuloSchedule) -> list[VliwInstruction]:
    """The complete static code: prologue + kernel + epilogue, expanded.

    Stage ``s`` of the pipeline (ops with ``cycle // II == s``) is present:

    * in prologue group ``k`` (0-based, ``k < SC-1``) iff ``s <= k``;
    * in the kernel always;
    * in epilogue group ``k`` iff ``s > k`` — the tail of iterations
      started during the last kernel executions.

    Only operation slots are filled; bus fields stay empty.
    """
    config = schedule.config
    ii = schedule.ii
    sc = schedule.stage_count
    out: list[VliwInstruction] = []
    groups = [("prologue", k) for k in range(sc - 1)]
    groups.append(("kernel", sc - 1))
    groups.extend(("epilogue", k) for k in range(sc - 1))

    cycle_counter = 0
    for phase, k in groups:
        rows = [empty_instruction(config, cycle_counter + r) for r in range(ii)]
        for node, placed in schedule.ops.items():
            stage = placed.cycle // ii
            if phase == "prologue" and stage > k:
                continue
            if phase == "epilogue" and stage <= k:
                continue
            op = schedule.graph.operation(node)
            label = f"{op.opcode.name}.{node}"
            _place_in_slot(
                rows[placed.cycle % ii], config, placed.cluster, op.fu_class,
                placed.fu_index, label, node=node, stage=stage,
            )
        out.extend(rows)
        cycle_counter += ii
    return out
