"""Data-dependence graphs for modulo scheduling.

A :class:`DependenceGraph` is a multigraph whose nodes are
:class:`~repro.ir.operation.Operation` records and whose edges carry the pair
``(latency, distance)`` used by modulo scheduling: a dependence
``u -> v`` with distance *d* means operation *v* of iteration ``i + d``
consumes the value produced by operation *u* of iteration ``i``; in a
schedule with initiation interval II it imposes::

    sigma(v) + II * d  >=  sigma(u) + latency

Edges are classified by :class:`DepKind`.  Only *flow* dependences move a
register value and therefore may require an inter-cluster communication;
anti/output/memory-ordering edges constrain timing but never use a bus.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import GraphError
from .operation import DEFAULT_CATALOG, OpCatalog, Operation


class DepKind(enum.Enum):
    """Classification of a dependence edge."""

    FLOW = "flow"  # true (read-after-write) register dependence
    ANTI = "anti"  # write-after-read
    OUTPUT = "output"  # write-after-write
    MEM = "mem"  # memory ordering

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Dependence:
    """One edge of a dependence graph.

    ``latency`` is usually the producer's opcode latency for flow edges and
    a small constant for ordering edges, but it is stored explicitly so
    graphs stay meaningful if catalogs change.
    """

    src: int
    dst: int
    latency: int
    distance: int = 0
    kind: DepKind = DepKind.FLOW

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise GraphError(f"dependence {self.src}->{self.dst}: negative distance")
        if self.latency < 0:
            raise GraphError(f"dependence {self.src}->{self.dst}: negative latency")

    @property
    def is_loop_carried(self) -> bool:
        return self.distance > 0

    @property
    def moves_value(self) -> bool:
        """Whether the edge transports a register value (may need a bus)."""
        return self.kind is DepKind.FLOW

    def __str__(self) -> str:
        return (
            f"{self.src}->{self.dst} (lat={self.latency}, d={self.distance},"
            f" {self.kind.value})"
        )


class DependenceGraph:
    """Mutable data-dependence graph of one innermost loop body.

    Nodes are added through :meth:`add_operation` and referenced everywhere
    by their dense integer id.  Multiple edges between the same pair of
    nodes are allowed (e.g. a flow and an anti dependence).
    """

    def __init__(self, name: str = "loop", catalog: OpCatalog = DEFAULT_CATALOG):
        self.name = name
        self.catalog = catalog
        self._nodes: dict[int, Operation] = {}
        self._edges: list[Dependence] = []
        self._succs: dict[int, list[Dependence]] = {}
        self._preds: dict[int, list[Dependence]] = {}
        self._flow_out_cache: dict[int, tuple[Dependence, ...]] | None = None
        self._flow_in_cache: dict[int, tuple[Dependence, ...]] | None = None
        self._derived: dict[object, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operation(self, opcode_name: str, tag: str = "") -> int:
        """Append an operation; returns its node id."""
        opcode = self.catalog[opcode_name]
        node_id = len(self._nodes)
        op = Operation(node_id, opcode, tag)
        self._nodes[node_id] = op
        self._succs[node_id] = []
        self._preds[node_id] = []
        self._invalidate_caches()
        return node_id

    def add_dependence(
        self,
        src: int,
        dst: int,
        *,
        distance: int = 0,
        kind: DepKind = DepKind.FLOW,
        latency: int | None = None,
    ) -> Dependence:
        """Add an edge ``src -> dst``.

        For flow edges the latency defaults to the producer's opcode
        latency; ordering edges default to latency 1 (store->load) so the
        consumer issues strictly later, matching conventional memory
        disambiguation conservatism.
        """
        if src not in self._nodes or dst not in self._nodes:
            raise GraphError(f"edge {src}->{dst}: unknown node")
        if latency is None:
            latency = self._nodes[src].latency if kind is DepKind.FLOW else 1
        if kind is DepKind.FLOW and not self._nodes[src].writes_register:
            raise GraphError(
                f"edge {src}->{dst}: source {self._nodes[src]} produces no register value"
            )
        dep = Dependence(src, dst, latency, distance, kind)
        self._edges.append(dep)
        self._succs[src].append(dep)
        self._preds[dst].append(dep)
        self._invalidate_caches()
        return dep

    def _invalidate_caches(self) -> None:
        self._flow_out_cache = None
        self._flow_in_cache = None
        if self._derived:
            self._derived.clear()

    def derived(self, key, build):
        """Memoise ``build()`` against this graph's current content.

        Schedulers re-derive orderings, timing priorities and MII bounds
        for the *same* graph on every II attempt; memoising them on the
        graph (invalidated by any mutation) makes retries nearly free.
        The cached value is shared — callers must not mutate it.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> list[int]:
        return list(self._nodes)

    def operation(self, node_id: int) -> Operation:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node id {node_id}") from None

    def operations(self) -> Iterator[Operation]:
        return iter(self._nodes.values())

    @property
    def edges(self) -> list[Dependence]:
        return list(self._edges)

    def successors(self, node_id: int) -> list[Dependence]:
        """Outgoing edges of *node_id*."""
        return list(self._succs[node_id])

    def predecessors(self, node_id: int) -> list[Dependence]:
        """Incoming edges of *node_id*."""
        return list(self._preds[node_id])

    def neighbors(self, node_id: int) -> set[int]:
        """Node ids adjacent to *node_id* in either direction."""
        out = {d.dst for d in self._succs[node_id]}
        out.update(d.src for d in self._preds[node_id])
        out.discard(node_id)
        return out

    def flow_consumers(self, node_id: int) -> tuple[Dependence, ...]:
        """Flow edges leaving *node_id* (consumers of its value).

        Cached per graph: schedulers call this in their inner loops.
        """
        if self._flow_out_cache is None:
            self._flow_out_cache = {
                n: tuple(d for d in succs if d.moves_value)
                for n, succs in self._succs.items()
            }
        return self._flow_out_cache[node_id]

    def flow_producers(self, node_id: int) -> tuple[Dependence, ...]:
        """Flow edges entering *node_id* (values it reads).

        Cached per graph: schedulers call this in their inner loops.
        """
        if self._flow_in_cache is None:
            self._flow_in_cache = {
                n: tuple(d for d in preds if d.moves_value)
                for n, preds in self._preds.items()
            }
        return self._flow_in_cache[node_id]

    def op_count_by_class(self) -> dict:
        """Number of operations per functional-unit class."""
        counts: dict = {}
        for op in self._nodes.values():
            counts[op.fu_class] = counts.get(op.fu_class, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def strongly_connected_components(self) -> list[set[int]]:
        """SCCs of the graph (recurrences are the SCCs with a cycle).

        Iterative Tarjan; memoised per graph (shared — do not mutate).
        """
        return self.derived("sccs", self._tarjan)

    def _tarjan(self) -> list[set[int]]:
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        stack: list[int] = []
        on_stack: set[int] = set()
        work: list[tuple[int, Iterator[Dependence]]] = []
        sccs: list[set[int]] = []

        def visit(v: int) -> None:
            index[v] = low[v] = len(index)
            stack.append(v)
            on_stack.add(v)
            work.append((v, iter(self._succs[v])))

        for root in self._nodes:
            if root in index:
                continue
            visit(root)
            while work:
                v, deps = work[-1]
                for dep in deps:
                    if dep.dst not in index:
                        visit(dep.dst)
                        break
                    if dep.dst in on_stack:
                        low[v] = min(low[v], index[dep.dst])
                else:  # every successor of v is done
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[v])
                    if low[v] == index[v]:
                        comp: set[int] = set()
                        while v not in comp:
                            comp.add(stack.pop())
                        on_stack -= comp
                        sccs.append(comp)
        return sccs

    def zero_distance_order(self) -> list[int]:
        """Topological order of the distance-0 edges, smallest id first.

        Kahn's algorithm with a heap, so the order is the unique
        lexicographically smallest one.  Raises :class:`GraphError` when
        the distance-0 edges hold a cycle.  Memoised per graph (shared —
        do not mutate the result).
        """
        return self.derived("zero_distance_order", self._zero_distance_order)

    def _zero_distance_order(self) -> list[int]:
        indegree = dict.fromkeys(self._nodes, 0)
        for dep in self._edges:
            if dep.distance == 0:
                indegree[dep.dst] += 1
        ready = [v for v, n in indegree.items() if n == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for dep in self._succs[v]:
                if dep.distance == 0:
                    indegree[dep.dst] -= 1
                    if indegree[dep.dst] == 0:
                        heapq.heappush(ready, dep.dst)
        if len(order) < len(indegree):
            raise GraphError(
                "zero-distance cycle (unschedulable): "
                f"{self._zero_distance_cycle(indegree)}"
            )
        return order

    def _zero_distance_cycle(self, indegree: dict[int, int]) -> list[tuple[int, int]]:
        """One cycle, as edges, among the nodes Kahn's sort left behind.

        Each such node keeps a distance-0 predecessor that was left behind
        too, so walking predecessors from one of them must revisit a node.
        """
        v = next(v for v, n in indegree.items() if n)
        path: list[int] = []
        seen: dict[int, int] = {}
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = next(
                d.src for d in self._preds[v] if d.distance == 0 and indegree[d.src]
            )
        cycle = path[seen[v] :][::-1]
        return list(zip(cycle, cycle[1:] + cycle[:1]))

    def validate(self) -> None:
        """Raise :class:`GraphError` on structural problems.

        Checks: edge endpoints exist (guaranteed by construction), every
        zero-distance subgraph is acyclic (a cycle entirely at distance 0
        can never be scheduled), and flow-edge latencies match producers.
        """
        self.zero_distance_order()
        for dep in self._edges:
            if dep.kind is DepKind.FLOW:
                expected = self._nodes[dep.src].latency
                if dep.latency < expected:
                    raise GraphError(
                        f"flow edge {dep}: latency below producer latency {expected}"
                    )

    def copy(self, name: str | None = None) -> "DependenceGraph":
        """Deep-enough copy (operations are immutable)."""
        g = DependenceGraph(name or self.name, self.catalog)
        for op in self._nodes.values():
            new_id = g.add_operation(op.opcode.name, op.tag)
            assert new_id == op.node_id
        for dep in self._edges:
            g.add_dependence(
                dep.src,
                dep.dst,
                distance=dep.distance,
                kind=dep.kind,
                latency=dep.latency,
            )
        return g

    # ------------------------------------------------------------------
    # Debugging helpers
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable dump."""
        lines = [f"DependenceGraph {self.name!r}: {len(self)} ops, {len(self._edges)} deps"]
        for op in self._nodes.values():
            lines.append(f"  {op}")
        for dep in self._edges:
            lines.append(f"  {dep}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """GraphViz dot text (loop-carried edges dashed)."""
        lines = [f'digraph "{self.name}" {{']
        for op in self._nodes.values():
            lines.append(f'  n{op.node_id} [label="{op}"];')
        for dep in self._edges:
            style = "dashed" if dep.is_loop_carried else "solid"
            label = f"{dep.latency},{dep.distance}"
            lines.append(
                f'  n{dep.src} -> n{dep.dst} [label="{label}", style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)


def merge_graphs(name: str, graphs: Iterable[DependenceGraph]) -> DependenceGraph:
    """Disjoint union of several graphs (used to build large loop bodies)."""
    graphs = list(graphs)
    if not graphs:
        raise GraphError("merge_graphs: no graphs given")
    catalog = graphs[0].catalog
    merged = DependenceGraph(name, catalog)
    for g in graphs:
        offset = len(merged)
        for op in g.operations():
            merged.add_operation(op.opcode.name, op.tag)
        for dep in g.edges:
            merged.add_dependence(
                dep.src + offset,
                dep.dst + offset,
                distance=dep.distance,
                kind=dep.kind,
                latency=dep.latency,
            )
    return merged
