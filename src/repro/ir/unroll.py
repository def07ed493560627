"""Graph-level loop unrolling (Section 5.2 of the paper).

Unrolling by a factor *U* replicates the loop body *U* times.  A dependence
``u -> v`` with iteration distance *d* in the original loop relates copy
*k* of *u* (original iteration ``U*j + k``) to the consumer in original
iteration ``U*j + k + d``, i.e. copy ``(k + d) mod U`` of *v* in unrolled
iteration ``j + (k + d) // U``::

    u_k  ->  v_{(k+d) mod U}    with distance (k + d) // U

Intra-iteration edges (d = 0) therefore stay inside each copy, and the
paper's observation follows directly: a loop with few loop-carried
dependences unrolls into *U* nearly disconnected subgraphs, which the BSA
scheduler then places on different clusters with almost no communication.

``count_cross_copy_deps`` implements the paper's ``NDepsNotMult``: the
number of dependences whose distance is greater than zero and not a
multiple of the unroll factor — exactly the edges that end up crossing
copies (and hence potentially clusters) after unrolling.
"""

from __future__ import annotations

from ..errors import GraphError
from .ddg import DependenceGraph


def unroll_graph(graph: DependenceGraph, factor: int) -> DependenceGraph:
    """Return *graph* unrolled by *factor* (factor 1 returns a copy).

    Node ids map as ``new_id = copy_index * len(graph) + old_id`` so tests
    and visualisers can recover the correspondence.
    """
    if factor < 1:
        raise GraphError(f"unroll factor must be >= 1, got {factor}")
    if factor == 1:
        return graph.copy()

    n = len(graph)
    unrolled = DependenceGraph(f"{graph.name}@x{factor}", graph.catalog)
    for k in range(factor):
        for op in graph.operations():
            tag = f"{op.tag}#{k}" if op.tag else f"#{k}"
            new_id = unrolled.add_operation(op.opcode.name, tag)
            # Not an assert: the id layout is load-bearing (copy_of /
            # original_node arithmetic) and must hold under ``python -O``.
            if new_id != k * n + op.node_id:
                raise GraphError(
                    f"unroll id layout broken: copy {k} of node {op.node_id} "
                    f"got id {new_id}, expected {k * n + op.node_id} "
                    "(non-dense node ids in the source graph?)"
                )
    for k in range(factor):
        for dep in graph.edges:
            dst_copy = (k + dep.distance) % factor
            new_distance = (k + dep.distance) // factor
            unrolled.add_dependence(
                k * n + dep.src,
                dst_copy * n + dep.dst,
                distance=new_distance,
                kind=dep.kind,
                latency=dep.latency,
            )
    return unrolled


def unrolled(graph: DependenceGraph, factor: int) -> DependenceGraph:
    """*graph* unrolled by *factor*, built once; *graph* itself for factor 1.

    Memoised on *graph* (:meth:`DependenceGraph.derived`, dropped by any
    mutation) and keyed by its name, which the unrolled graph carries,
    for the same reason ``graph_content_hash`` is.  The result is shared
    by every caller and must not be mutated; :func:`unroll_graph` builds
    a fresh copy.
    """
    if factor == 1:
        return graph
    return graph.derived(
        ("unrolled", factor, graph.name), lambda: unroll_graph(graph, factor)
    )


def copy_of(node_id: int, original_size: int) -> int:
    """Which unrolled copy a node id of an unrolled graph belongs to."""
    return node_id // original_size


def original_node(node_id: int, original_size: int) -> int:
    """The original node id a node of an unrolled graph descends from."""
    return node_id % original_size


def count_cross_copy_deps(graph: DependenceGraph, factor: int) -> int:
    """The paper's ``NDepsNotMult(G)``.

    Dependences with ``distance > 0`` and ``distance % factor != 0`` connect
    different copies after unrolling by *factor*.  Only value-moving (flow)
    edges are counted, because only those require a bus transfer.
    """
    if factor < 1:
        raise GraphError(f"unroll factor must be >= 1, got {factor}")
    return sum(
        1
        for dep in graph.edges
        if dep.moves_value and dep.distance > 0 and dep.distance % factor != 0
    )
