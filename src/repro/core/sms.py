"""Swing Modulo Scheduling (SMS) node ordering (Llosa et al., PACT'96).

The paper's BSA uses the SMS ordering (Section 5.1): "This ordering gives
priority to the nodes in recurrences with the highest RecMII ... the
resulting order ensures that a node in a particular position of the list
only has predecessors or successors before it (except in the case of
starting a new subgraph).  Moreover, nodes that are neighbours in the graph
are placed close together".

The ordering works on *sets*: recurrence SCCs sorted by decreasing RecMII
(each augmented with the nodes lying on paths between it and the previously
ordered nodes), followed by the remaining nodes.  Inside a set a
bidirectional sweep alternates between top-down passes (pick the node of
greatest *height* among the ready successors) and bottom-up passes (pick
the node of greatest *depth* among the ready predecessors), breaking ties
by lowest mobility.

Priorities derive from resource-free ASAP/ALAP times at II = MII, computed
by longest-path relaxation over edge weights ``latency - II * distance``
(valid because no positive cycle exists at II >= RecMII).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..errors import GraphError
from ..ir.ddg import DependenceGraph
from .mii import rec_mii


@dataclass(frozen=True)
class NodeTiming:
    """Resource-free scheduling freedom of one node at a given II."""

    asap: int
    alap: int

    @property
    def mobility(self) -> int:
        return self.alap - self.asap


def compute_timings(graph: DependenceGraph, ii: int) -> dict[int, NodeTiming]:
    """ASAP/ALAP (ignoring resources) for every node at initiation interval *ii*.

    Requires ``ii >= RecMII`` — otherwise relaxation diverges on a positive
    cycle, which is reported as :class:`GraphError`.  Memoised per
    (graph, ii): the same graph is retried at the same II by different
    schedulers and machine configurations (timings are resource-free).
    """
    return graph.derived(("timings", ii), lambda: _compute_timings(graph, ii))


def _compute_timings(graph: DependenceGraph, ii: int) -> dict[int, NodeTiming]:
    nodes = graph.node_ids
    asap = {v: 0 for v in nodes}
    edges = [(d.src, d.dst, d.latency - ii * d.distance) for d in graph.edges]
    n = len(nodes)
    for round_idx in range(n + 1):
        changed = False
        for src, dst, w in edges:
            cand = asap[src] + w
            if cand > asap[dst]:
                asap[dst] = cand
                changed = True
        if not changed:
            break
    else:
        raise GraphError(
            f"ASAP relaxation diverged for {graph.name!r} at II={ii} "
            "(is II below RecMII?)"
        )

    horizon = max(asap.values(), default=0)
    alap = {v: horizon for v in nodes}
    for round_idx in range(n + 1):
        changed = False
        for src, dst, w in edges:
            cand = alap[dst] - w
            if cand < alap[src]:
                alap[src] = cand
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - same divergence condition as above
        raise GraphError(f"ALAP relaxation diverged for {graph.name!r} at II={ii}")

    return {v: NodeTiming(asap[v], alap[v]) for v in nodes}


def recurrence_sets(graph: DependenceGraph) -> list[set[int]]:
    """Recurrence SCCs sorted by decreasing RecMII (then size, then min id).

    Only SCCs containing a cycle qualify (more than one node, or a
    self-loop).  Memoised per graph (shared — do not mutate the result).
    """
    return graph.derived("recurrence_sets", lambda: _recurrence_sets(graph))


def _recurrence_sets(graph: DependenceGraph) -> list[set[int]]:
    g = graph.to_networkx()
    sccs = []
    for comp in nx.strongly_connected_components(g):
        comp = set(comp)
        if len(comp) > 1 or any(
            dep.dst == next(iter(comp))
            for dep in graph.successors(next(iter(comp)))
        ):
            sccs.append(comp)
    scored = []
    for comp in sccs:
        sub = _subgraph(graph, comp)
        scored.append((rec_mii(sub), len(comp), comp))
    scored.sort(key=lambda item: (-item[0], -item[1], min(item[2])))
    return [comp for _, _, comp in scored]


def _subgraph(graph: DependenceGraph, nodes: set[int]) -> DependenceGraph:
    """Induced subgraph on *nodes*, with remapped dense ids."""
    sub = DependenceGraph(f"{graph.name}/scc", graph.catalog)
    remap = {}
    for node in sorted(nodes):
        op = graph.operation(node)
        remap[node] = sub.add_operation(op.opcode.name, op.tag)
    for dep in graph.edges:
        if dep.src in nodes and dep.dst in nodes:
            sub.add_dependence(
                remap[dep.src],
                remap[dep.dst],
                distance=dep.distance,
                kind=dep.kind,
                latency=dep.latency,
            )
    return sub


def _path_nodes(g: nx.DiGraph, sources: set[int], targets: set[int]) -> set[int]:
    """Nodes on some directed path from *sources* to *targets* (inclusive)."""
    reach_fwd: set[int] = set()
    for s in sources:
        reach_fwd.add(s)
        reach_fwd.update(nx.descendants(g, s))
    reach_bwd: set[int] = set()
    for t in targets:
        reach_bwd.add(t)
        reach_bwd.update(nx.ancestors(g, t))
    return reach_fwd & reach_bwd


def ordering_sets(graph: DependenceGraph) -> list[set[int]]:
    """The ordered partition of nodes the SMS sweep consumes.

    Recurrence sets by decreasing RecMII, each augmented with the nodes on
    paths linking it to the union of earlier sets; the remaining nodes
    follow one weakly-connected component at a time (by smallest node id).
    Keeping disconnected subgraphs in separate sets is what lets BSA's
    default-cluster rotation place them — in particular the copies of an
    unrolled loop — on different clusters (paper, Section 5.1 case (a)).
    """
    g = nx.DiGraph()
    g.add_nodes_from(graph.node_ids)
    for dep in graph.edges:
        g.add_edge(dep.src, dep.dst)

    sets: list[set[int]] = []
    placed: set[int] = set()
    for comp in recurrence_sets(graph):
        new = set(comp) - placed
        if not new:
            continue
        if placed:
            connectors = _path_nodes(g, placed, new) | _path_nodes(g, new, placed)
            new |= connectors - placed
        sets.append(new)
        placed |= new
    rest = set(graph.node_ids) - placed
    if rest:
        undirected = g.to_undirected(as_view=True).subgraph(rest)
        components = sorted(
            (set(c) for c in nx.connected_components(undirected)),
            key=min,
        )
        sets.extend(components)
    return sets


def sms_order(graph: DependenceGraph, ii: int | None = None) -> list[int]:
    """The SMS scheduling order of *graph*'s nodes.

    *ii* defaults to RecMII (priorities only need a feasible II; the
    resource component of MII does not change relative mobilities).
    Memoised per (graph, ii): the II search recomputes the order on every
    attempt, and it only depends on the graph (shared — do not mutate).
    """
    return graph.derived(("sms_order", ii), lambda: _sms_order(graph, ii))


def _sms_order(graph: DependenceGraph, ii: int | None = None) -> list[int]:
    if len(graph) == 0:
        return []
    if ii is None:
        ii = rec_mii(graph)
    timing = compute_timings(graph, ii)
    height = {v: 0 for v in graph.node_ids}
    depth = {v: 0 for v in graph.node_ids}
    horizon = max(t.alap for t in timing.values())
    for v, t in timing.items():
        depth[v] = t.asap
        height[v] = horizon - t.alap

    succs: dict[int, set[int]] = {v: set() for v in graph.node_ids}
    preds: dict[int, set[int]] = {v: set() for v in graph.node_ids}
    for dep in graph.edges:
        if dep.src != dep.dst:
            succs[dep.src].add(dep.dst)
            preds[dep.dst].add(dep.src)

    order: list[int] = []
    ordered: set[int] = set()

    def pick(candidates: set[int], key_metric: dict[int, int]) -> int:
        return min(
            candidates,
            key=lambda v: (-key_metric[v], timing[v].mobility, v),
        )

    for node_set in ordering_sets(graph):
        remaining = set(node_set) - ordered
        while remaining:
            pred_ready = {
                v for v in remaining if succs[v] & ordered
            }  # predecessors of already-ordered nodes
            succ_ready = {
                v for v in remaining if preds[v] & ordered
            }  # successors of already-ordered nodes
            if succ_ready:
                direction = "top-down"
                ready = succ_ready
            elif pred_ready:
                direction = "bottom-up"
                ready = pred_ready
            else:
                # New subgraph: seed with a single most-critical source;
                # the alternating waves pull the rest of the component in
                # through neighbour relations, so only this seed counts as
                # "starting a new subgraph" for BSA's cluster rotation.
                direction = "top-down"
                sources = {v for v in remaining if not (preds[v] & remaining)}
                if not sources:  # pure cycle
                    sources = set(remaining)
                ready = {pick(sources, height)}
            while ready:
                if direction == "top-down":
                    v = pick(ready, height)
                else:
                    v = pick(ready, depth)
                order.append(v)
                ordered.add(v)
                remaining.discard(v)
                if direction == "top-down":
                    ready = (ready | (succs[v] & remaining)) - ordered
                else:
                    ready = (ready | (preds[v] & remaining)) - ordered
                ready &= remaining
            # Swap sweep direction for the next wave inside this set.
    return order


def topological_order(graph: DependenceGraph) -> list[int]:
    """Plain topological order on zero-distance edges (ablation baseline).

    Memoised per graph (shared — do not mutate the result)."""

    def build() -> list[int]:
        g = nx.DiGraph()
        g.add_nodes_from(graph.node_ids)
        for dep in graph.edges:
            if dep.distance == 0:
                g.add_edge(dep.src, dep.dst)
        return list(nx.lexicographical_topological_sort(g))

    return graph.derived("topological_order", build)
