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
   it — and the best-profit candidates are kept (profit does not depend
   on the placement, so steps (2) and (3) run as one search: clusters are
   tried best-profit tier first, stopping at the first tier that fits);
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
from .schedule import FailureLog
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
    lazy_log = True

    def __init__(
        self,
        config: MachineConfig,
        *,
        order: str = "sms",
        default_cluster_policy: str = "circular",
    ):
        super().__init__(config)
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
    def _place_all(self, engine: PlacementEngine, probe_all: bool = False) -> bool:
        """Place every node at the engine's II (Figure 5); False on failure.

        Step (3) keeps only the best-profit feasible clusters, and a
        cluster's profit reads the assignment, never the placement.  So
        the clusters are tried in tiers of equal profit, best first, and
        the first tier holding a feasible cluster yields exactly the
        candidates that trying every cluster would: the same placements,
        from fewer probes.  The failure log then counts only the probes
        made; with *probe_all* the skipped tiers are probed too, for the
        log alone, which makes it the log of trying every cluster.
        """
        graph = engine.graph
        n_clusters = self.config.n_clusters
        assignment: dict[int, int] = {}
        default_cluster = n_clusters - 1  # first advance lands on cluster 0

        for node in self._order_fn(graph):
            preds, succs = engine.scheduled_neighbors(node)
            if not preds and not succs:
                if self._default_policy == "circular":
                    default_cluster = (default_cluster + 1) % n_clusters
                else:  # least-loaded
                    loads = [0] * n_clusters
                    for placed in engine.schedule.ops.values():
                        loads[placed.cluster] += 1
                    default_cluster = min(range(n_clusters), key=lambda c: (loads[c], c))

            tiers: dict[int, list[int]] = {}
            for cluster in range(n_clusters):
                profit = join_profit(graph, assignment, cluster, node)
                tiers.setdefault(profit, []).append(cluster)
            # TryNodeOnCluster, best-profit tier first.
            feasible: dict[int, Placement] = {}
            for profit in sorted(tiers, reverse=True):
                if feasible and not probe_all:
                    break
                tier: dict[int, Placement] = {}
                for cluster in tiers[profit]:
                    placement = engine.find_placement(node, cluster)
                    if isinstance(placement, Placement):
                        tier[cluster] = placement
                if not feasible:
                    feasible = tier

            if not feasible:
                return False  # II++ and reinitialise (paper step (5))

            chosen = self._choose_cluster(engine, node, feasible, default_cluster)
            engine.commit(feasible[chosen])
            assignment[node] = chosen
        return True

    def _full_log(self, graph: DependenceGraph, ii: int, mii: int) -> FailureLog:
        """Re-run the failed attempt at *ii* trying every cluster."""
        engine = PlacementEngine(graph, self.config, ii, mii)
        self._place_all(engine, probe_all=True)
        return engine.fail

    # ------------------------------------------------------------------
    def _choose_cluster(
        self,
        engine: PlacementEngine,
        node: int,
        candidates: dict[int, Placement],
        default_cluster: int,
    ) -> int:
        """Break the tie between best-profit feasible clusters, by index."""
        if len(candidates) == 1:  # paper step (6)
            return next(iter(candidates))

        # Step (7): a candidate already holding a scheduled pred/succ.
        preds, succs = engine.scheduled_neighbors(node)
        scheduled = {dep.src for dep in preds} | {dep.dst for dep in succs}
        neighbor_clusters: dict[int, int] = {}
        for other in scheduled:
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
            key=lambda c: (engine.placement_pressure(candidates[c]), c),
        )
