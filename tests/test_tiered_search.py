"""BSA's tiered cluster search schedules exactly as trying every cluster.

:class:`repro.core.bsa.BsaScheduler` tries a node's clusters in tiers of
equal join profit, best first, and stops at the first tier that fits; a
failed attempt is re-run with every probe only where LimitedByBus or the
register-pressure exit reads a failure its lazy log does not show.
:class:`oracles.ReferenceBsa` tries every cluster for every node.  The
two must agree on everything but the failure counts: the schedule,
LimitedByBus, the number of failed attempts and any error text.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ReferenceBsa

from repro.arch.configs import clustered_config, four_cluster_config
from repro.core.bsa import BsaScheduler
from repro.errors import SchedulingError
from repro.ir.serialize import schedule_to_dict
from repro.ir.unroll import unroll_graph
from repro.workloads.generator import LoopShape, RecurrenceSpec, generate_loop
from repro.workloads.registry import workloads
from repro.workloads.specfp import specfp95_suite

MACHINES = [clustered_config(n, 1, latency) for n in (2, 4) for latency in (1, 4)]
KERNELS = {spec.name: spec.factory for spec in workloads(tag="kernel")}
VARIANTS = [{}, {"order": "topo"}, {"default_cluster_policy": "least-loaded"}]


def outcome(scheduler, graph):
    try:
        sched = scheduler.schedule(graph)
    except SchedulingError as exc:
        return str(exc)
    data = schedule_to_dict(sched)
    del data["attempt_failures"]
    return data, sched.was_bus_limited, len(sched.attempt_failures)


def check(graph, config, **variant):
    tiered = outcome(BsaScheduler(config, **variant), graph)
    assert tiered == outcome(ReferenceBsa(config, **variant), graph)


def unrolled(graph, factor):
    return graph if factor == 1 else unroll_graph(graph, factor)


shapes = st.builds(
    LoopShape,
    name=st.just("prop"),
    seed=st.integers(0, 10_000),
    n_ops=st.integers(3, 24),
    mem_fraction=st.floats(0.1, 0.6),
    recurrences=st.lists(
        st.builds(RecurrenceSpec, st.integers(1, 4), st.integers(1, 3)),
        max_size=3,
    ).map(tuple),
    carried_edge_prob=st.floats(0.0, 0.5),
)


@settings(max_examples=100, deadline=None)
@given(
    shape=shapes,
    factor=st.sampled_from([1, 2, 4]),
    config=st.sampled_from(MACHINES),
    variant=st.sampled_from(VARIANTS),
)
def test_generated_loops_match_the_reference(shape, factor, config, variant):
    check(unrolled(generate_loop(shape), factor), config, **variant)


@pytest.mark.parametrize("factor", [1, 2, 4])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_catalogue_kernels_match_the_reference(kernel, factor):
    for config in MACHINES:
        check(unrolled(KERNELS[kernel](), factor), config)


def suite_graph(name):
    return next(
        loop.graph
        for program in specfp95_suite()
        for loop in program.eligible_loops()
        if loop.name == name
    )


def test_bus_failure_found_by_a_rerun():
    """Only a re-run of the failed attempt at MII logs its bus failure."""
    config = four_cluster_config(n_buses=1, bus_latency=1)
    sched = BsaScheduler(config).schedule(unroll_graph(suite_graph("mgrid.resid1"), 4))
    assert (sched.ii, sched.mii, sched.was_bus_limited) == (29, 28, True)


def test_register_pressure_exit_fires_where_it_did():
    """Re-runs show the pressure failures that stop the search at II 84."""
    config = four_cluster_config(n_buses=1, bus_latency=4)
    graph = unroll_graph(suite_graph("tomcatv.mesh1"), 4)
    with pytest.raises(SchedulingError, match="register-pressure bound") as info:
        BsaScheduler(config).schedule(graph)
    assert info.value.ii_tried == 84
    assert str(info.value).endswith("for 8 II attempts, II reached 84)")
