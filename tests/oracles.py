"""Slow, obviously-correct reference implementations the tests check against.

* :func:`cluster_out_edges` / :func:`out_edges_if_joined` — the paper's
  ``OutEdgesOnCluster`` and ``tmpoutedges`` recounts, whose difference
  :func:`repro.core.bsa.join_profit` computes in O(degree);
* :func:`rec_mii_exact` — RecMII by simple-cycle enumeration, against
  the binary search of :func:`repro.core.mii.rec_mii`.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.errors import GraphError
from repro.ir.ddg import DependenceGraph


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
    g = nx.MultiDiGraph()
    g.add_nodes_from(graph.node_ids)
    for dep in graph.edges:
        g.add_edge(dep.src, dep.dst, latency=dep.latency, distance=dep.distance)
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
