"""The paper's Basic Scheduling Algorithm (BSA, Figure 5).

BSA performs cluster assignment and cycle assignment in a *single pass*
(the unified assign-and-schedule strategy of Ozer et al., transplanted to
modulo scheduling).  Nodes are visited in SMS order; for the current node:

1. if it has no scheduled predecessor or successor (a new subgraph is
   starting), the *default cluster* advances circularly — this is what
   spreads the iterations of an unrolled loop across clusters;
2. each cluster is tried (``TryNodeOnCluster``): clusters with no free
   functional-unit slot, no feasible bus slots for the required
   communications, or that would overflow their register file are
   discarded;
3. feasible clusters are ranked by *profit* — the reduction in the number
   of value edges leaving the cluster's current node set if the node joins
   it — and the best-profit candidates are kept;
4. ties are broken in the paper's priority order: the only candidate; a
   candidate holding a scheduled predecessor/successor of the node; the
   default cluster; the candidate minimising register requirements;
5. if no cluster is feasible, II is incremented and everything restarts.

The ordering function is pluggable (``order="sms"`` or ``"topo"``) to
support the ordering ablation study.
"""

from __future__ import annotations

from typing import Callable

from ..arch.cluster import MachineConfig
from ..errors import ConfigError
from ..ir.ddg import DependenceGraph
from .base import SchedulerBase
from .engine import Placement, PlacementEngine
from .sms import sms_order, topological_order

OrderFn = Callable[[DependenceGraph], list[int]]

_ORDERINGS: dict[str, OrderFn] = {
    "sms": sms_order,
    "topo": topological_order,
}


def join_profit(
    graph: DependenceGraph, assignment: dict[int, int], cluster: int, node: int
) -> int:
    """Out-edge reduction if *node* joins *cluster*, in O(degree).

    Equal by construction to the paper's ``OutEdgesOnCluster -
    tmpoutedges`` recount (the property test cross-checks): joining
    converts the cluster members' edges *into node* from out-edges to
    internal ones, and adds node's own edges to non-members as new
    out-edges.  Avoids the full O(|assignment| * degree) recount the
    paper's formulation implies, which dominated BSA's inner loop.
    """
    in_from_cluster = 0
    for dep in graph.flow_producers(node):
        if dep.src != node and assignment.get(dep.src) == cluster:
            in_from_cluster += 1
    out_to_others = 0
    for dep in graph.flow_consumers(node):
        if dep.dst != node and assignment.get(dep.dst) != cluster:
            out_to_others += 1
    return in_from_cluster - out_to_others


class BsaScheduler(SchedulerBase):
    """Unified assign-and-schedule modulo scheduler (the paper's proposal)."""

    name = "bsa"

    def __init__(
        self,
        config: MachineConfig,
        *,
        max_ii: int | None = None,
        order: str = "sms",
        default_cluster_policy: str = "circular",
    ):
        super().__init__(config, max_ii=max_ii)
        if config.n_clusters > 1 and config.buses.count == 0:
            raise ConfigError("clustered machine without buses cannot communicate")
        try:
            self._order_fn = _ORDERINGS[order]
        except KeyError:
            raise ConfigError(
                f"unknown ordering {order!r}; choose from {sorted(_ORDERINGS)}"
            ) from None
        if default_cluster_policy not in ("circular", "least-loaded"):
            raise ConfigError(
                f"unknown default-cluster policy {default_cluster_policy!r}; "
                "choose 'circular' or 'least-loaded'"
            )
        #: Figure 5 step (2) rotates the default cluster circularly; the
        #: paper notes "other possibilities ... such as choosing the least
        #: loaded one" — both are offered (ablation EXP-A4).
        self._default_policy = default_cluster_policy

    # ------------------------------------------------------------------
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
                    default_cluster = min(range(n_clusters), key=lambda c: (loads[c], c))

            # TryNodeOnCluster for every cluster.
            feasible: dict[int, Placement] = {}
            profit: dict[int, int] = {}
            for cluster in range(n_clusters):
                placement = engine.find_placement(node, cluster)
                if not isinstance(placement, Placement):
                    continue
                feasible[cluster] = placement
                profit[cluster] = join_profit(graph, assignment, cluster, node)

            if not feasible:
                return False  # II++ and reinitialise (paper step (5))

            best = max(profit.values())
            candidates = [c for c in sorted(feasible) if profit[c] == best]
            chosen = self._choose_cluster(
                engine, graph, node, candidates, default_cluster, feasible
            )
            engine.commit(feasible[chosen])
            assignment[node] = chosen
        return True

    # ------------------------------------------------------------------
    def _choose_cluster(
        self,
        engine: PlacementEngine,
        graph: DependenceGraph,
        node: int,
        candidates: list[int],
        default_cluster: int,
        feasible: dict[int, Placement],
    ) -> int:
        if len(candidates) == 1:  # paper step (6)
            return candidates[0]

        # Step (7): a candidate already holding a scheduled pred/succ.
        neighbor_clusters: dict[int, int] = {}
        for other in graph.neighbors(node):
            if engine.schedule.is_scheduled(other):
                c = engine.schedule.cluster_of(other)
                neighbor_clusters[c] = neighbor_clusters.get(c, 0) + 1
        with_neighbors = [c for c in candidates if c in neighbor_clusters]
        if with_neighbors:
            return max(
                with_neighbors, key=lambda c: (neighbor_clusters[c], c == default_cluster, -c)
            )

        # Step (8): the default cluster.
        if default_cluster in candidates:
            return default_cluster

        # Step (9): minimise register requirements.
        return min(
            candidates,
            key=lambda c: (engine.placement_pressure(feasible[c]), c),
        )
