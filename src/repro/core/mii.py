"""Minimum initiation interval (MII) computation.

The two classic lower bounds on the initiation interval of a modulo
schedule (Rau & Glaeser; Lam):

* **ResMII** — resource-constrained bound: for every functional-unit class,
  at least ``ceil(ops_of_class / units_of_class)`` cycles are needed per
  iteration.  The paper computes it over the *total* machine resources
  (its Figure 7 example: ``ResMII = ceil(6/4) = 2`` on a 2-cluster machine
  with 2 units per cluster).

* **RecMII** — recurrence-constrained bound: for every dependence cycle C,
  ``II * distance(C) >= latency(C)`` must hold, so
  ``RecMII = max_C ceil(latency(C) / distance(C))``.

RecMII is found by binary search on II with a positive-cycle test on edge
weights ``latency - II * distance`` (Bellman-Ford style relaxation); for a
fixed II a schedule respecting all dependences exists iff no cycle has
positive total weight.  Positivity is monotone non-increasing in II because
every cycle has ``distance >= 1`` (zero-distance cycles are rejected by
graph validation), so binary search is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..arch.cluster import MachineConfig
from ..errors import GraphError
from ..ir.ddg import DependenceGraph


def res_mii(graph: DependenceGraph, config: MachineConfig) -> int:
    """Resource-constrained minimum II over the whole machine."""
    if len(graph) == 0:
        return 1
    totals = config.total_fus
    bound = 1
    # Memoised per graph: counting hashes every node's FU class.
    counts = graph.derived("op_count_by_class", graph.op_count_by_class)
    for fu_class, n_ops in counts.items():
        units = totals.count(fu_class)
        if units == 0:
            raise GraphError(
                f"graph {graph.name!r} uses {fu_class} ops but machine "
                f"{config.name!r} has no {fu_class} units"
            )
        bound = max(bound, math.ceil(n_ops / units))
    return bound


def _has_positive_cycle(graph: DependenceGraph, ii: int) -> bool:
    """True iff some dependence cycle has ``sum(latency - ii*distance) > 0``.

    Longest-path relaxation over ``n`` rounds; a node still relaxing in
    round ``n`` lies on (or is reachable from) a positive cycle.
    """
    nodes = graph.node_ids
    if not nodes:
        return False
    dist = {v: 0 for v in nodes}
    edges = [
        (d.src, d.dst, d.latency - ii * d.distance) for d in graph.edges
    ]
    n = len(nodes)
    for round_idx in range(n):
        changed = False
        for src, dst, w in edges:
            cand = dist[src] + w
            if cand > dist[dst]:
                dist[dst] = cand
                changed = True
        if not changed:
            return False
    return True


def rec_mii(graph: DependenceGraph) -> int:
    """Recurrence-constrained minimum II (1 when the graph is acyclic).

    Memoised per graph: a pure graph property, recomputed by orderings,
    partitioners and the II search alike."""
    return graph.derived("rec_mii", lambda: _rec_mii(graph))


def _rec_mii(graph: DependenceGraph) -> int:
    if len(graph) == 0:
        return 1
    # Upper bound: total latency of all edges certainly stops any cycle.
    hi = max(1, sum(d.latency for d in graph.edges))
    if not _has_positive_cycle(graph, 1):
        return 1
    if _has_positive_cycle(graph, hi):
        raise GraphError(
            f"graph {graph.name!r} has a cycle unsatisfiable at any II "
            "(zero-distance cycle?)"
        )
    lo = 1  # known infeasible
    # Invariant: positive cycle at lo, none at hi.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _has_positive_cycle(graph, mid):
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class MiiReport:
    """Both MII bounds and their maximum."""

    res_mii: int
    rec_mii: int

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.rec_mii)

    @property
    def recurrence_bound(self) -> bool:
        """True when recurrences (not resources) set the lower bound."""
        return self.rec_mii > self.res_mii


def mii_report(graph: DependenceGraph, config: MachineConfig) -> MiiReport:
    """Compute both bounds for *graph* on *config*."""
    return MiiReport(res_mii=res_mii(graph, config), rec_mii=rec_mii(graph))


def mii(graph: DependenceGraph, config: MachineConfig) -> int:
    """``max(ResMII, RecMII)`` — the scheduler's starting II."""
    return mii_report(graph, config).mii
