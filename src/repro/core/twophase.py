"""Two-phase comparator: cluster assignment first, scheduling later.

Models the approach of Nystrom & Eichenberger (MICRO'98), which the paper
uses as its baseline (Section 2, Figure 4): a partitioning phase assigns
every node to a cluster *before any cycle information exists*, then an SMS
scheduling phase places nodes at cycles while respecting the fixed
assignment, inserting communications where assigned clusters differ.  If
scheduling fails at an II, both phases re-run at II + 1.

The partitioner keeps the two properties the original emphasises:

* *recurrence awareness* — an entire recurrence (SCC) is assigned as one
  unit, because splitting it would put bus latency on the recurrence cycle
  and inflate RecMII;
* *no aggressive filling* — each cluster's per-class estimated load is
  capped at ``II * units`` with the current II, and the partition plans
  an over-subscribed cluster only when every cluster would overflow.

Super-nodes (SCCs, then remaining singletons in SMS order) are assigned
greedily to the cluster minimising, in order, the capacity overflow, the
new cross-cluster value edges and the cluster's load — a
faithful-in-spirit stand-in for the original's slack-driven heuristics.
"""

from __future__ import annotations

from ..arch.cluster import MachineConfig
from ..errors import ConfigError
from ..ir.ddg import DependenceGraph
from ..ir.operation import FuClass
from .base import SchedulerBase
from .engine import Placement, PlacementEngine
from .sms import recurrence_sets, sms_order


def partition_graph(
    graph: DependenceGraph, config: MachineConfig, ii: int
) -> dict[int, int]:
    """Assign every node to a cluster before scheduling.

    Returns a complete node -> cluster map.  Each super-node goes to the
    cluster with the smallest ``(overflow, crossing edges, load)``: the
    units by which the cluster's per-class load would exceed its
    ``II * units`` cap, then the flow edges to already-assigned nodes on
    other clusters, then the cluster's total load; ties go to the lowest
    cluster index.  Capacity is soft: when every cluster would overflow,
    the least-overflowing one is used anyway (the scheduler will discover
    the real feasibility).

    Scoring a cluster costs O(FU classes): each super-node's class
    demand and its flow edges to assigned nodes, counted per cluster,
    are computed once, not once per candidate cluster.
    """
    n_clusters = config.n_clusters
    caps = [
        [ii * units for units in config.fu_set(c).counts] for c in range(n_clusters)
    ]
    load = [[0] * len(FuClass) for _ in range(n_clusters)]
    total = [0] * n_clusters
    assignment: dict[int, int] = {}
    for nodes, demand, outside in _super_nodes(graph):
        # Every flow edge to an assigned node outside the super-node
        # crosses clusters unless the super-node joins that node.
        joining = [0] * n_clusters
        crossing = 0
        for other in outside:
            cluster = assignment.get(other)
            if cluster is not None:
                joining[cluster] += 1
                crossing += 1
        best_cluster = 0
        best_key: tuple[int, int, int] | None = None
        for cluster in range(n_clusters):
            overflow = 0
            for used, need, cap in zip(load[cluster], demand, caps[cluster]):
                if used + need > cap:
                    overflow += used + need - cap
            key = (overflow, crossing - joining[cluster], total[cluster])
            if best_key is None or key < best_key:
                best_key = key
                best_cluster = cluster
        for node in nodes:
            assignment[node] = best_cluster
        row = load[best_cluster]
        for k, need in enumerate(demand):
            row[k] += need
        total[best_cluster] += len(nodes)
    return assignment


def _super_nodes(
    graph: DependenceGraph,
) -> list[tuple[list[int], list[int], list[int]]]:
    """The partition units of *graph*: ``(nodes, demand, outside)`` each.

    Recurrences come first (already sorted by criticality), then the
    remaining nodes one by one in SMS order.  *demand* counts the unit's
    operations per :attr:`FuClass.index`; *outside* holds, once per flow
    edge, the neighbour at the far end of every flow edge that leaves
    the unit.  Memoised per graph (shared — do not mutate).
    """

    def build() -> list[tuple[list[int], list[int], list[int]]]:
        units: list[list[int]] = [sorted(s) for s in recurrence_sets(graph)]
        in_scc = {n for s in units for n in s}
        units.extend([n] for n in sms_order(graph) if n not in in_scc)
        out = []
        for nodes in units:
            members = set(nodes)
            demand = [0] * len(FuClass)
            outside: list[int] = []
            for node in nodes:
                demand[graph.operation(node).fu_class.index] += 1
                outside.extend(
                    dep.dst
                    for dep in graph.flow_consumers(node)
                    if dep.dst not in members
                )
                outside.extend(
                    dep.src
                    for dep in graph.flow_producers(node)
                    if dep.src not in members
                )
            out.append((nodes, demand, outside))
        return out

    return graph.derived("partition_units", build)


class TwoPhaseScheduler(SchedulerBase):
    """Partition-then-schedule modulo scheduler (N&E-style baseline)."""

    name = "two-phase"

    def __init__(self, config: MachineConfig):
        super().__init__(config)
        if config.n_clusters > 1 and config.buses.count == 0:
            raise ConfigError("clustered machine without buses cannot communicate")

    def _place_all(self, engine: PlacementEngine) -> bool:
        graph = engine.graph
        assignment = partition_graph(graph, self.config, engine.ii)
        for node in sms_order(graph):
            placement = engine.find_placement(node, assignment[node])
            if not isinstance(placement, Placement):
                return False
            engine.commit(placement)
        return True
