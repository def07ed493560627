"""The stdlib graph algorithms of the core agree with networkx.

``DependenceGraph.strongly_connected_components`` (Tarjan),
``DependenceGraph.validate`` and ``zero_distance_order`` (Kahn) and
``repro.core.sms.ordering_sets`` (BFS) replace networkx calls; the
networkx versions live in :mod:`oracles`.  Each is compared on generated
loop bodies (with extra distance-0 memory edges, so some graphs carry a
zero-distance cycle) and on every catalogue kernel unrolled x1, x2, x4.
The core itself must not import networkx at all.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ordering_sets_nx,
    sccs_nx,
    topological_order_nx,
    zero_distance_acyclic_nx,
)

from repro.core.sms import ordering_sets, topological_order
from repro.errors import GraphError
from repro.ir.ddg import DepKind
from repro.ir.unroll import unroll_graph
from repro.workloads.generator import LoopShape, RecurrenceSpec, generate_loop
from repro.workloads.kernels import ALL_KERNELS


def partition(components):
    return {frozenset(c) for c in components}


def check_against_networkx(graph):
    assert partition(graph.strongly_connected_components()) == partition(sccs_nx(graph))
    if not zero_distance_acyclic_nx(graph):
        with pytest.raises(GraphError, match="zero-distance cycle") as info:
            graph.validate()
        # The reported cycle is made of distance-0 edges and closes.
        cycle = ast.literal_eval(str(info.value).split(": ", 1)[1])
        zero = {(d.src, d.dst) for d in graph.edges if d.distance == 0}
        assert cycle and set(cycle) <= zero
        assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        with pytest.raises(GraphError):
            topological_order(graph)
        return
    graph.validate()
    assert topological_order(graph) == topological_order_nx(graph)
    assert ordering_sets(graph) == ordering_sets_nx(graph)


shapes = st.builds(
    LoopShape,
    name=st.just("prop"),
    seed=st.integers(0, 10_000),
    n_ops=st.integers(3, 40),
    mem_fraction=st.floats(0.1, 0.6),
    recurrences=st.lists(
        st.builds(RecurrenceSpec, st.integers(1, 4), st.integers(1, 3)),
        max_size=3,
    ).map(tuple),
    carried_edge_prob=st.floats(0.0, 0.5),
)


@settings(max_examples=80, deadline=None)
@given(
    shape=shapes,
    extra=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=4),
)
def test_generated_graphs_match_networkx(shape, extra):
    graph = generate_loop(shape)
    for src, dst in extra:
        graph.add_dependence(src % len(graph), dst % len(graph), kind=DepKind.MEM)
    check_against_networkx(graph)


@pytest.mark.parametrize("factor", [1, 2, 4])
@pytest.mark.parametrize("kernel", sorted(ALL_KERNELS))
def test_catalogue_kernels_match_networkx(kernel, factor):
    check_against_networkx(unroll_graph(ALL_KERNELS[kernel](), factor))


def test_cli_import_leaves_networkx_out():
    """networkx is a test dependency only: the CLI must not load it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import repro.cli\n"
        "print('networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, src], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
